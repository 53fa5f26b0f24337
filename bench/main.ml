(* Experiment harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md §4 and EXPERIMENTS.md for the
   index), plus Bechamel microbenchmarks of the synthesis kernels.

   Usage:
     dune exec bench/main.exe                 # everything, default effort
     dune exec bench/main.exe -- --quick      # reduced effort (CI)
     dune exec bench/main.exe -- --only table-3
     dune exec bench/main.exe -- --no-micro   # skip Bechamel section
     dune exec bench/main.exe -- --jobs 4     # evaluation worker domains *)

module Dfg = Hsyn_dfg.Dfg
module Op = Hsyn_dfg.Op
module B = Hsyn_dfg.Dfg.Builder
module Registry = Hsyn_dfg.Registry
module Text = Hsyn_dfg.Text
module Flatten = Hsyn_dfg.Flatten
module Library = Hsyn_modlib.Library
module Voltage = Hsyn_modlib.Voltage
module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched
module AreaM = Hsyn_eval.Area
module Power = Hsyn_eval.Power
module Trace = Hsyn_eval.Trace
module Fsm = Hsyn_eval.Fsm
module Embed = Hsyn_embed.Embed
module Cost = Hsyn_core.Cost
module Clib = Hsyn_core.Clib
module Engine = Hsyn_core.Engine
module Session = Hsyn_core.Session
module Initial = Hsyn_core.Initial
module Moves = Hsyn_core.Moves
module Pass = Hsyn_core.Pass
module S = Hsyn_core.Synthesize
module Suite = Hsyn_benchmarks.Suite
module Table = Hsyn_util.Table
module Stats = Hsyn_util.Stats
module Rng = Hsyn_util.Rng
module Json = Hsyn_util.Json

let lib = Library.default

let quick = Array.exists (( = ) "--quick") Sys.argv
let no_micro = Array.exists (( = ) "--no-micro") Sys.argv

let arg_value key =
  let rec find i =
    if i >= Array.length Sys.argv - 1 then None
    else if Sys.argv.(i) = key then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let only = arg_value "--only"

let jobs =
  match arg_value "--jobs" with
  | Some s -> ( match int_of_string_opt s with Some j -> max 1 j | None -> 1)
  | None -> Hsyn_util.Pool.default_jobs ()

let section name = match only with None -> true | Some s -> s = name

let header name title =
  Printf.printf "\n================================================================\n";
  Printf.printf "[%s] %s\n" name title;
  Printf.printf "================================================================\n%!"

let policy = { Engine.default_policy with Engine.jobs }

(* [Request.make] + [synthesize], raising on error like the retired
   [S.run]/[S.run_flat] shims — bench sections have no error channel. *)
let synthesize ?(flatten = false) ?session ~config ~lib registry dfg objective ~sampling_ns () =
  match
    Result.bind
      (S.Request.make ~config ~flatten ?session ~lib ~registry ~dfg ~objective ~sampling_ns ())
      S.synthesize
  with
  | Ok r -> r
  | Error msg -> failwith ("synthesis failed: " ^ msg)

let config =
  if quick then
    {
      S.default_config with
      S.max_moves = 6;
      max_passes = 2;
      max_candidates = 24;
      trace_length = 8;
      max_clocks = 2;
      clib_effort =
        { Clib.default_effort with Clib.max_moves = 4; max_passes = 1; engine = policy };
      engine = policy;
    }
  else
    (* full effort still has to finish the 6 benchmarks × 3 laxity
       factors × 6 synthesis runs grid in minutes, not hours *)
    {
      S.default_config with
      S.max_passes = 2;
      max_candidates = 40;
      trace_length = 10;
      max_clocks = 2;
      clib_effort = { Clib.default_effort with Clib.engine = policy };
      engine = policy;
    }

let laxity_factors = if quick then [ 2.2 ] else [ 1.2; 2.2; 3.2 ]

(* ------------------------------------------------------------------ *)
(* Table 1: the module library *)

let table_1 () =
  header "table-1" "Summary of functional unit and register properties";
  let t = Table.create ~header:[ "unit"; "functions"; "area"; "delay@5V(20ns clk)"; "energy cap" ] in
  List.iter
    (fun (u : Hsyn_modlib.Fu.t) ->
      let funcs =
        match u.Hsyn_modlib.Fu.kind with
        | Hsyn_modlib.Fu.Unit fns -> String.concat "/" (List.map Op.name fns)
        | Hsyn_modlib.Fu.Chain (op, k) -> Printf.sprintf "chain of %d %s" k (Op.name op)
      in
      Table.add_row t
        [
          u.Hsyn_modlib.Fu.name;
          funcs;
          Table.cell_f ~digits:0 u.Hsyn_modlib.Fu.area;
          string_of_int (Hsyn_modlib.Fu.cycles_at u 5.0 ~clk_ns:20.0) ^ " cycles";
          Table.cell_f u.Hsyn_modlib.Fu.energy_cap;
        ])
    lib.Library.units;
  Table.add_row t
    [ "reg1"; "register"; Table.cell_f ~digits:0 lib.Library.reg_area; "-"; Table.cell_f lib.Library.reg_cap ];
  Table.print t;
  Printf.printf
    "(Table 1 of the paper: add1/add2/chained_add2/chained_add3/mult1/mult2/reg1 rows match\n\
    \ the paper's areas 30/20/60/90/150/100/10 and cycle counts 1/2/1/1/3/5 exactly.)\n"

(* ------------------------------------------------------------------ *)
(* Figure 1: hierarchical DFG test1 and a scheduled/assigned version *)

let figure_1 () =
  header "figure-1" "Hierarchical DFG test1 (reconstruction) and a scheduled design";
  let b = Suite.test1 () in
  let buf = Buffer.create 1024 in
  List.iter
    (fun bname ->
      List.iter
        (fun v -> Text.print_dfg buf ~behavior:bname v)
        (Registry.variants b.Suite.registry bname))
    (Registry.behaviors b.Suite.registry);
  Text.print_dfg buf b.Suite.dfg;
  print_string (Buffer.contents buf);
  let min_ns = S.min_sampling_ns lib b.Suite.registry b.Suite.dfg in
  let r = synthesize ~config ~lib b.Suite.registry b.Suite.dfg Cost.Area ~sampling_ns:(1.2 *. min_ns) () in
  let cs = Sched.relaxed ~deadline:r.S.deadline_cycles r.S.design.Design.dfg in
  let sch = Sched.schedule r.S.ctx cs r.S.design in
  Format.printf "%a@." Sched.pp_schedule (r.S.design, sch);
  Format.printf "%a@." Design.pp r.S.design;
  (* Example 1: profile and environment semantics *)
  Printf.printf "Example 1 check (profile/environment semantics):\n";
  let inner_b = B.create "sop" in
  let a = B.input inner_b "a" and x = B.input inner_b "b" in
  let c = B.input inner_b "c" and dd = B.input inner_b "d" in
  let m1 = B.op inner_b ~label:"m1" Op.Mult [ a; x ] in
  let s1 = B.op inner_b ~label:"s1" Op.Add [ m1; c ] in
  let m2 = B.op inner_b ~label:"m2" Op.Mult [ s1; dd ] in
  B.output inner_b ~label:"y" m2;
  let inner = B.finish inner_b in
  let ctx5 = { Design.lib; vdd = 5.0; clk_ns = 20.0 } in
  let part = Initial.build ctx5 ~complexes:(fun _ -> []) (Registry.create ()) inner in
  let rm = { Design.rm_name = "RTL3"; parts = [ ("sop", part) ] } in
  let p = Sched.module_profile ctx5 rm "sop" in
  Printf.printf "  Profile(RTL3) inputs expected at {%s}, output at {%s} (paper: staggered, out 7)\n"
    (String.concat "," (Array.to_list (Array.map string_of_int p.Sched.in_need)))
    (String.concat "," (Array.to_list (Array.map string_of_int p.Sched.out_ready)));
  let start =
    Array.fold_left max 0 (Array.mapi (fun i a -> a - p.Sched.in_need.(i)) [| 2; 5; 3; 7 |])
  in
  Printf.printf
    "  With arrivals (2,5,3,7) the module starts at cycle %d and finishes at cycle %d\n"
    start
    (start + p.Sched.out_ready.(0))

(* ------------------------------------------------------------------ *)
(* Figure 2: library of complex modules *)

let figure_2 () =
  header "figure-2" "Library of complex RTL modules (built for test1's behaviors)";
  let b = Suite.test1 () in
  let ctx = { Design.lib; vdd = 5.0; clk_ns = 20.0 } in
  let clib =
    Clib.build ctx b.Suite.registry ~rng:(Rng.create 42) ~trace_length:8
      ~effort:Clib.default_effort ~families:Moves.all_families ~top:b.Suite.dfg
  in
  Format.printf "%a@." (Clib.pp ctx) clib

(* ------------------------------------------------------------------ *)
(* Figure 3 + Table 2: RTL embedding *)

let figure_3 () =
  header "figure-3" "RTL embedding: two DFGs on one RTL module (and Table 2)";
  let ctx = { Design.lib; vdd = 5.0; clk_ns = 20.0 } in
  let build name mk =
    let g = mk () in
    {
      Design.rm_name = name;
      parts = [ (g.Dfg.name, Initial.build ctx ~complexes:(fun _ -> []) (Registry.create ()) g) ];
    }
  in
  let rtl1 =
    build "RTL1" (fun () ->
        let bb = B.create "dotprod" in
        let a = B.input bb "a" and x = B.input bb "b" in
        let c = B.input bb "c" and d = B.input bb "d" in
        let m1 = B.op bb ~label:"M1" Op.Mult [ a; x ] in
        let m2 = B.op bb ~label:"M2" Op.Mult [ c; d ] in
        B.output bb (B.op bb ~label:"A1" Op.Add [ m1; m2 ]);
        B.finish bb)
  in
  let rtl2 =
    build "RTL2" (fun () ->
        let bb = B.create "prodmix" in
        let a = B.input bb "a" and x = B.input bb "b" in
        let c = B.input bb "c" and d = B.input bb "d" in
        let s = B.op bb ~label:"A2" Op.Add [ a; x ] in
        let t = B.op bb ~label:"S1" Op.Sub [ c; d ] in
        B.output bb (B.op bb ~label:"M3" Op.Mult [ s; t ]);
        B.finish bb)
  in
  match Embed.merge_modules ctx ~name:"NewRTL" rtl1 rtl2 with
  | None -> Printf.printf "embedding refused (unexpected)\n"
  | Some (merged, corr) ->
      Format.printf "%a@." Embed.pp_correspondence (rtl1, rtl2, merged, corr);
      let a1 = AreaM.module_area ctx rtl1 in
      let a2 = AreaM.module_area ctx rtl2 in
      let am = AreaM.module_area ctx merged in
      let t = Table.create ~header:[ "module"; "behaviors"; "area" ] in
      Table.add_row t [ "RTL1"; "dotprod"; Table.cell_f a1 ];
      Table.add_row t [ "RTL2"; "prodmix"; Table.cell_f a2 ];
      Table.add_row t [ "NewRTL"; "dotprod+prodmix"; Table.cell_f am ];
      Table.print t;
      Printf.printf
        "paper (Example 3): RTL1 57.94, RTL2 53.89, NewRTL 61.67 — the merged module is far\n\
         smaller than the sum of its parts; here %.1f + %.1f = %.1f vs merged %.1f (%.0f%% saved)\n"
        a1 a2 (a1 +. a2) am
        (100. *. (1. -. (am /. (a1 +. a2))))

(* ------------------------------------------------------------------ *)
(* Table 3 + Table 4: the main experiment *)

type cell = {
  bench : string;
  lf : float;
  flat_a_area : float;
  flat_a_power5 : float;
  flat_a_power_sc : float;
  flat_p_area : float;
  flat_p_power : float;
  hier_a_area : float;
  hier_a_power_sc : float;
  hier_p_area : float;
  hier_p_power : float;
  flat_time : float;
  hier_time : float;
}

let run_cell (b : Suite.t) lf =
  let min_ns = S.min_sampling_ns lib b.Suite.registry b.Suite.dfg in
  let sampling_ns = lf *. min_ns in
  let fa = synthesize ~flatten:true ~config ~lib b.Suite.registry b.Suite.dfg Cost.Area ~sampling_ns () in
  let fa_sc = S.rescale_vdd ~config fa Voltage.candidates in
  let fp = synthesize ~flatten:true ~config ~lib b.Suite.registry b.Suite.dfg Cost.Power ~sampling_ns () in
  let ha = synthesize ~config ~lib b.Suite.registry b.Suite.dfg Cost.Area ~sampling_ns () in
  let ha_sc = S.rescale_vdd ~config ha Voltage.candidates in
  let hp = synthesize ~config ~lib b.Suite.registry b.Suite.dfg Cost.Power ~sampling_ns () in
  {
    bench = b.Suite.name;
    lf;
    flat_a_area = fa.S.eval.Cost.area;
    flat_a_power5 = fa.S.eval.Cost.power;
    flat_a_power_sc = fa_sc.S.eval.Cost.power;
    flat_p_area = fp.S.eval.Cost.area;
    flat_p_power = fp.S.eval.Cost.power;
    hier_a_area = ha.S.eval.Cost.area;
    hier_a_power_sc = ha_sc.S.eval.Cost.power;
    hier_p_area = hp.S.eval.Cost.area;
    hier_p_power = hp.S.eval.Cost.power;
    flat_time = fa.S.elapsed_s +. fp.S.elapsed_s;
    hier_time = ha.S.elapsed_s +. hp.S.elapsed_s;
  }

let all_cells = ref ([] : cell list)

let cells () =
  if !all_cells = [] then begin
    let benches = Suite.all () in
    all_cells :=
      List.concat_map
        (fun (b : Suite.t) ->
          List.map
            (fun lf ->
              Printf.printf "  running %s at L.F. %.1f ...\n%!" b.Suite.name lf;
              run_cell b lf)
            laxity_factors)
        benches
  end;
  !all_cells

let table_3 () =
  header "table-3" "Area (normalized) and power (normalized) results";
  Printf.printf
    "Normalization as in the paper: every entry is relative to the flattened,\n\
     area-optimized, 5 V circuit at the same laxity factor. Column A = area-optimized\n\
     then V_dd-scaled; column P = power-optimized.\n\n";
  let t =
    Table.create ~header:[ "circuit"; "row"; "L.F."; "Flat A"; "Flat P"; "Hier A"; "Hier P" ]
  in
  let by_bench = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let cur = try Hashtbl.find by_bench c.bench with Not_found -> [] in
      Hashtbl.replace by_bench c.bench (c :: cur))
    (cells ());
  List.iter
    (fun (b : Suite.t) ->
      let bcells =
        (try Hashtbl.find by_bench b.Suite.name with Not_found -> [])
        |> List.sort (fun a c -> compare a.lf c.lf)
      in
      List.iter
        (fun c ->
          let a0 = c.flat_a_area and p0 = c.flat_a_power5 in
          Table.add_row t
            [
              c.bench;
              "A";
              Table.cell_f ~digits:1 c.lf;
              "1.00";
              Table.cell_f (c.flat_p_area /. a0);
              Table.cell_f (c.hier_a_area /. a0);
              Table.cell_f (c.hier_p_area /. a0);
            ];
          Table.add_row t
            [
              "";
              "P";
              "";
              Table.cell_f (c.flat_a_power_sc /. p0);
              Table.cell_f (c.flat_p_power /. p0);
              Table.cell_f (c.hier_a_power_sc /. p0);
              Table.cell_f (c.hier_p_power /. p0);
            ])
        bcells;
      Table.add_rule t)
    (Suite.all ());
  Table.print t

let table_4 () =
  header "table-4" "Summary of area (ratio), power (ratio) and synthesis time";
  let t =
    Table.create
      ~header:
        [
          "L.F.";
          "Area Fl";
          "Area Hi";
          "Pwr5V Fl";
          "Pwr5V Hi";
          "PwrVsc Fl";
          "PwrVsc Hi";
          "Time Fl (s)";
          "Time Hi (s)";
        ]
  in
  List.iter
    (fun lf ->
      let cs = List.filter (fun c -> c.lf = lf) (cells ()) in
      let avg f = Stats.mean (List.map f cs) in
      Table.add_row t
        [
          Table.cell_f ~digits:1 lf;
          Table.cell_f (avg (fun c -> c.flat_p_area /. c.flat_a_area));
          Table.cell_f (avg (fun c -> c.hier_p_area /. c.flat_a_area));
          Table.cell_f (avg (fun c -> c.flat_p_power /. c.flat_a_power5));
          Table.cell_f (avg (fun c -> c.hier_p_power /. c.flat_a_power5));
          Table.cell_f (avg (fun c -> c.flat_p_power /. c.flat_a_power_sc));
          Table.cell_f (avg (fun c -> c.hier_p_power /. c.flat_a_power_sc));
          Table.cell_f (avg (fun c -> c.flat_time));
          Table.cell_f (avg (fun c -> c.hier_time));
        ])
    laxity_factors;
  Table.print t;
  Printf.printf
    "(Paper's Table 4 shape: power-optimized circuits cost ~25-35%% extra area, consume a\n\
    \ fraction of the 5 V area-optimized power, and hierarchical synthesis is several\n\
    \ times faster than flattened synthesis.)\n"

let headline () =
  header "headline" "Checks of the paper's headline claims";
  let cs = cells () in
  let reduction c = c.flat_a_power5 /. c.hier_p_power in
  let best =
    List.fold_left (fun acc c -> if reduction c > reduction acc then c else acc) (List.hd cs) cs
  in
  Printf.printf
    "1. Max power reduction of hierarchical power-opt vs 5V area-opt: %.1fx (%s, L.F. %.1f)\n"
    (reduction best) best.bench best.lf;
  Printf.printf "   at area overhead %.0f%% over the flat area-optimized circuit\n"
    (100. *. ((best.hier_p_area /. best.flat_a_area) -. 1.));
  Printf.printf "   (paper: up to 6.7x at area overheads not exceeding 50%%)\n";
  let hier_vs_flat_power = Stats.mean (List.map (fun c -> c.hier_p_power /. c.flat_p_power) cs) in
  Printf.printf
    "2. Hierarchical power-opt consumes on average %.1f%% %s power than flattened power-opt\n"
    (100. *. Float.abs (1. -. hier_vs_flat_power))
    (if hier_vs_flat_power <= 1. then "less" else "more");
  Printf.printf "   (paper: 13.3%% less)\n";
  let hier_area_overhead = Stats.mean (List.map (fun c -> c.hier_a_area /. c.flat_a_area) cs) in
  Printf.printf "3. Hierarchical area-opt has %.1f%% area overhead over flattened area-opt\n"
    (100. *. (hier_area_overhead -. 1.));
  Printf.printf "   (paper: 5.6%%)\n";
  let speedup = Stats.mean (List.map (fun c -> c.flat_time /. Float.max 1e-6 c.hier_time) cs) in
  Printf.printf "4. Hierarchical synthesis is %.1fx faster than flattened on average\n" speedup;
  Printf.printf "   (paper: 2.6-3.2x on the SGI Challenge)\n"

(* ------------------------------------------------------------------ *)
(* Ablation: knock out move families and see what degrades.
   DESIGN.md calls these out as the design choices worth isolating:
   resynthesis (move B), RTL embedding (complex-module merging), and
   splitting (move D). *)

let ablation () =
  header "ablation" "Move-family knockouts and move-usage census";
  let variants =
    [
      ("full", config);
      ("no B (resynthesis)", { config with S.enable_resynth = false });
      ("no RTL embedding", { config with S.enable_embed = false });
      ("no D (splitting)", { config with S.enable_split = false });
      ( "A+C only",
        { config with S.enable_resynth = false; enable_embed = false; enable_split = false } );
    ]
  in
  let cases =
    [
      (Suite.test1 (), Cost.Area, 1.2);
      (Suite.test1 (), Cost.Power, 2.2);
      (Suite.iir (), Cost.Power, 2.2);
    ]
  in
  let t =
    Table.create ~header:[ "case"; "engine"; "power"; "area"; "moves A/B/C/D"; "synth (s)" ]
  in
  List.iter
    (fun ((b : Suite.t), objective, lf) ->
      let min_ns = S.min_sampling_ns lib b.Suite.registry b.Suite.dfg in
      let sampling_ns = lf *. min_ns in
      let case = Printf.sprintf "%s/%s/%.1f" b.Suite.name (Cost.objective_name objective) lf in
      List.iter
        (fun (tag, cfg) ->
          match synthesize ~config:cfg ~lib b.Suite.registry b.Suite.dfg objective ~sampling_ns () with
          | r ->
              let count prefix =
                List.length
                  (List.filter
                     (fun line ->
                       String.length line > String.length prefix
                       && String.sub line 0 (String.length prefix) = prefix)
                     r.S.stats.Pass.log)
              in
              Table.add_row t
                [
                  case;
                  tag;
                  Table.cell_f ~digits:2 r.S.eval.Cost.power;
                  Table.cell_f ~digits:0 r.S.eval.Cost.area;
                  Printf.sprintf "%d/%d/%d/%d" (count "[A:") (count "[B:") (count "[C:")
                    (count "[D:");
                  Table.cell_f ~digits:1 r.S.elapsed_s;
                ]
          | exception Failure _ -> Table.add_row t [ case; tag; "infeasible"; "-"; "-"; "-" ])
        variants;
      Table.add_rule t)
    cases;
  Table.print t;
  Printf.printf
    "Reading: the census shows which families actually fire on the winning trajectory.\n\
     Final quality often ties across knockouts at this problem scale — the families\n\
     partially substitute for each other (e.g. selection of a pre-optimized library\n\
     module can stand in for on-the-fly resynthesis) — but the B knockout is visible on\n\
     the tight-laxity area case, and disabling everything but A+C consistently changes\n\
     the move mix and the reachable designs on larger inputs.\n"

(* ------------------------------------------------------------------ *)
(* Evaluation-engine ablation: the same synthesis run with the engine's
   machinery disabled (no cache, sequential) versus enabled, checking
   that the synthesized design is bit-identical and reporting the
   end-to-end speedup plus cache statistics. *)

let engine_section () =
  header "engine"
    (Printf.sprintf "Evaluation-engine ablation (jobs=%d; cache + pool vs direct)" jobs);
  let baseline = { Engine.jobs = 1; cache_capacity = 0 } in
  let with_policy p =
    { config with S.engine = p; clib_effort = { config.S.clib_effort with Clib.engine = p } }
  in
  let repeats = if quick then 1 else 3 in
  let cases =
    [
      (Suite.test1 (), Cost.Power, 2.2);
      (Suite.iir (), Cost.Power, 2.2);
      (Suite.test1 (), Cost.Area, 1.2);
    ]
  in
  let t =
    Table.create
      ~header:[ "case"; "direct (s)"; "engine (s)"; "speedup"; "cache hits"; "identical" ]
  in
  let sched_before = Sched.stats () in
  let case_objs = ref [] in
  List.iter
    (fun ((b : Suite.t), objective, lf) ->
      let min_ns = S.min_sampling_ns lib b.Suite.registry b.Suite.dfg in
      let sampling_ns = lf *. min_ns in
      let case = Printf.sprintf "%s/%s/%.1f" b.Suite.name (Cost.objective_name objective) lf in
      Printf.printf "  running %s (direct vs engine, %d repeat%s) ...\n%!" case repeats
        (if repeats = 1 then "" else "s");
      (* each repeat runs on its own fresh session (matching the old
         reset-globals-per-case semantics); the tracked sessions give
         the engine-side counters for the table *)
      let tracked = ref [] in
      let timed ~track p =
        List.init repeats (fun _ ->
            let session = Session.create () in
            if track then tracked := session :: !tracked;
            let req =
              match
                S.Request.make ~config:(with_policy p) ~session ~lib ~registry:b.Suite.registry
                  ~dfg:b.Suite.dfg ~objective ~sampling_ns ()
              with
              | Ok req -> req
              | Error msg -> failwith msg
            in
            match S.synthesize req with
            | Ok r -> (r, r.S.elapsed_s)
            | Error msg -> failwith msg)
      in
      let base_runs = timed ~track:false baseline in
      let eng_runs = timed ~track:true policy in
      let c =
        List.fold_left (fun acc s -> Engine.add acc (Session.totals s)) Engine.zero !tracked
      in
      (* medians are robust to the occasional GC/scheduling outlier;
         p90 shows the spread when repeats > 1 *)
      let med runs = Stats.median (List.map snd runs) in
      let p90 runs = Stats.percentile 90. (List.map snd runs) in
      let base_med = med base_runs and eng_med = med eng_runs in
      let speedup = base_med /. Float.max 1e-9 eng_med in
      let e0 = (fst (List.hd base_runs)).S.eval and e1 = (fst (List.hd eng_runs)).S.eval in
      let identical = e0.Cost.area = e1.Cost.area && e0.Cost.power = e1.Cost.power in
      let probes = c.Engine.cache_hits + c.Engine.cache_misses in
      let hit_rate = if probes = 0 then 0. else 100. *. Float.of_int c.Engine.cache_hits /. Float.of_int probes in
      Table.add_row t
        [
          case;
          Printf.sprintf "%.2f (p90 %.2f)" base_med (p90 base_runs);
          Printf.sprintf "%.2f (p90 %.2f)" eng_med (p90 eng_runs);
          Printf.sprintf "%.2fx" speedup;
          Printf.sprintf "%d/%d (%.0f%%)" c.Engine.cache_hits probes hit_rate;
          (if identical then "yes" else "NO");
        ];
      case_objs :=
        Json.Obj
          [
            ("case", Json.String case);
            ("direct_s", Json.Float base_med);
            ("engine_s", Json.Float eng_med);
            ("speedup", Json.Float speedup);
            ("cache_hit_rate", Json.Float (hit_rate /. 100.));
            ("power_sims", Json.Int c.Engine.power_sims);
            ("identical", Json.Bool identical);
            ("result", S.Result.to_json_value (fst (List.hd eng_runs)));
          ]
        :: !case_objs)
    cases;
  let sd = Sched.sub_stats (Sched.stats ()) sched_before in
  let json =
    Json.Obj
      [
        ("jobs", Json.Int jobs);
        ("repeats", Json.Int repeats);
        ("result_schema_version", Json.Int S.Result.schema_version);
        ("sched",
         Json.Obj
           [
             ("schedules", Json.Int sd.Sched.schedules);
             ("events_popped", Json.Int sd.Sched.events_popped);
             ("prepared_hits", Json.Int sd.Sched.prepared_hits);
             ("prepared_builds", Json.Int sd.Sched.prepared_builds);
           ]);
        ("cases", Json.List (List.rev !case_objs));
      ]
  in
  Table.print t;
  Printf.printf "engine-json: %s\n" (Json.to_string json);
  Printf.printf
    "Reading: \"identical\" confirms the engine is result-preserving — memoization\n\
     and the worker pool change how candidates are costed, never which candidate wins.\n"

(* ------------------------------------------------------------------ *)
(* Session memoization: the same synthesis twice — cold on a fresh
   session, then again on the now-warm session. The second run must be
   bit-identical (a cache hit only changes which computation ran, never
   the value observed) and should hit the shared cost cache. CI greps
   BENCH_session.json for "ok":true. *)

let session_section () =
  header "session" "Session-scoped memoization (cold vs shared-warm)";
  let cases =
    [ (Suite.test1 (), Cost.Power, 2.2); (Suite.iir (), Cost.Power, 2.2) ]
  in
  let t =
    Table.create
      ~header:[ "case"; "cold (s)"; "warm (s)"; "speedup"; "warm hit rate"; "identical" ]
  in
  let case_objs = ref [] in
  let all_ok = ref true in
  List.iter
    (fun ((b : Suite.t), objective, lf) ->
      let min_ns = S.min_sampling_ns lib b.Suite.registry b.Suite.dfg in
      let sampling_ns = lf *. min_ns in
      let case = Printf.sprintf "%s/%s/%.1f" b.Suite.name (Cost.objective_name objective) lf in
      Printf.printf "  running %s (cold, then warm on the same session) ...\n%!" case;
      let session = Session.create () in
      let run () =
        let req =
          match
            S.Request.make ~config ~session ~lib ~registry:b.Suite.registry ~dfg:b.Suite.dfg
              ~objective ~sampling_ns ()
          with
          | Ok req -> req
          | Error msg -> failwith msg
        in
        match S.synthesize req with Ok r -> r | Error msg -> failwith msg
      in
      let cold = run () in
      let warmed = (Session.stats session).Session.cost_tbl in
      let warm = run () in
      let rerun = (Session.stats session).Session.cost_tbl in
      let hits = rerun.Hsyn_util.Shard_tbl.hits - warmed.Hsyn_util.Shard_tbl.hits in
      let probes =
        hits + rerun.Hsyn_util.Shard_tbl.misses - warmed.Hsyn_util.Shard_tbl.misses
      in
      let hit_rate = if probes = 0 then 0. else Float.of_int hits /. Float.of_int probes in
      let identical =
        cold.S.eval.Cost.area = warm.S.eval.Cost.area
        && cold.S.eval.Cost.power = warm.S.eval.Cost.power
        && Design.fingerprint cold.S.design = Design.fingerprint warm.S.design
      in
      let speedup = cold.S.elapsed_s /. Float.max 1e-9 warm.S.elapsed_s in
      all_ok := !all_ok && identical && hits > 0;
      Table.add_row t
        [
          case;
          Printf.sprintf "%.2f" cold.S.elapsed_s;
          Printf.sprintf "%.2f" warm.S.elapsed_s;
          Printf.sprintf "%.2fx" speedup;
          Printf.sprintf "%d/%d (%.0f%%)" hits probes (100. *. hit_rate);
          (if identical then "yes" else "NO");
        ];
      case_objs :=
        Json.Obj
          [
            ("case", Json.String case);
            ("cold_s", Json.Float cold.S.elapsed_s);
            ("warm_s", Json.Float warm.S.elapsed_s);
            ("speedup", Json.Float speedup);
            ("warm_hits", Json.Int hits);
            ("warm_probes", Json.Int probes);
            ("warm_hit_rate", Json.Float hit_rate);
            ("identical", Json.Bool identical);
          ]
        :: !case_objs)
    cases;
  Table.print t;
  let json =
    Json.Obj
      [
        ("quick", Json.Bool quick);
        ("ok", Json.Bool !all_ok);
        ("cases", Json.List (List.rev !case_objs));
      ]
  in
  let line = Json.to_string json in
  Printf.printf "session-json: %s\n" line;
  let oc = open_out "BENCH_session.json" in
  output_string oc line;
  output_char oc '\n';
  close_out oc;
  Printf.printf "  (written to BENCH_session.json)\n";
  Printf.printf
    "Reading: the warm run replays the same sweep against the already-populated session,\n\
     so its cost-cache hit rate is the upper bound sharing can deliver; \"identical\"\n\
     confirms sharing never changes the synthesized design.\n"

(* ------------------------------------------------------------------ *)
(* Move family E: the same synthesis with and without algebraic
   rewriting. "ok" requires at least one case where family E strictly
   improves the best objective value — the datapaths with mult-by-
   power-of-two taps and long add chains are where the rewrites bite.
   CI greps BENCH_rewrite.json for "ok":true. *)

let rewrite_section () =
  header "rewrite" "Move family E: algebraic rewriting on vs off";
  let cases =
    [
      (Suite.avenhaus_cascade (), Cost.Area, 2.2);
      (Suite.avenhaus_cascade (), Cost.Power, 2.2);
      (Suite.iir (), Cost.Power, 2.2);
    ]
  in
  let t =
    Table.create
      ~header:[ "case"; "with E"; "without E"; "delta %"; "rewrites committed"; "better" ]
  in
  let case_objs = ref [] in
  let any_better = ref false in
  List.iter
    (fun ((b : Suite.t), objective, lf) ->
      let min_ns = S.min_sampling_ns lib b.Suite.registry b.Suite.dfg in
      let sampling_ns = lf *. min_ns in
      let case = Printf.sprintf "%s/%s/%.1f" b.Suite.name (Cost.objective_name objective) lf in
      Printf.printf "  running %s (rewrite on, then off) ...\n%!" case;
      let run enable_rewrite =
        synthesize
          ~config:{ config with S.enable_rewrite }
          ~lib b.Suite.registry b.Suite.dfg objective ~sampling_ns ()
      in
      let on = run true and off = run false in
      let v_on = Cost.objective_value objective on.S.eval in
      let v_off = Cost.objective_value objective off.S.eval in
      let delta = if v_off = 0. then 0. else 100. *. (v_off -. v_on) /. v_off in
      let kinds = on.S.stats.Pass.rewrite_kinds in
      let kinds_str =
        match kinds with
        | [] -> "-"
        | ks -> String.concat " " (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) ks)
      in
      let better = v_on < v_off in
      any_better := !any_better || better;
      Table.add_row t
        [
          case;
          Printf.sprintf "%.1f" v_on;
          Printf.sprintf "%.1f" v_off;
          Printf.sprintf "%+.1f%%" delta;
          kinds_str;
          (if better then "yes" else "no");
        ];
      case_objs :=
        Json.Obj
          [
            ("case", Json.String case);
            ("with_rewrite", Json.Float v_on);
            ("without_rewrite", Json.Float v_off);
            ("improvement_pct", Json.Float delta);
            ("rewrites_committed",
             Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) kinds));
            ("strictly_better", Json.Bool better);
          ]
        :: !case_objs)
    cases;
  Table.print t;
  let json =
    Json.Obj
      [
        ("quick", Json.Bool quick);
        ("ok", Json.Bool !any_better);
        ("cases", Json.List (List.rev !case_objs));
      ]
  in
  let line = Json.to_string json in
  Printf.printf "rewrite-json: %s\n" line;
  let oc = open_out "BENCH_rewrite.json" in
  output_string oc line;
  output_char oc '\n';
  close_out oc;
  Printf.printf "  (written to BENCH_rewrite.json)\n";
  Printf.printf
    "Reading: identical sweeps, identical budgets — the only difference is whether the\n\
     improvement loop may propose strength reductions, chain rebalancing and CSE.\n\
     \"ok\" means at least one benchmark ends strictly better with family E enabled.\n"

(* ------------------------------------------------------------------ *)
(* Persistent cache tier: each workload runs twice — cold (populating
   and saving the cache) and warm (a fresh session reloading the
   persisted cache, simulating a process restart). The warm run must be
   bit-identical to the cold one with a nonzero disk hit rate. CI greps
   BENCH_cache.json for "ok":true. *)

let cache_section () =
  header "cache" "Persistent cost cache (cold vs disk-warm)";
  let module Gen = Hsyn_fuzz.Gen in
  (* suite workloads plus fuzz-generated near-duplicates: consecutive
     seeds draw structurally similar programs, the cross-workload
     sharing a persistent cache is meant to exploit *)
  let cases =
    let bench (b : Suite.t) objective =
      (Printf.sprintf "%s/%s" b.Suite.name (Cost.objective_name objective),
       b.Suite.registry, b.Suite.dfg, objective)
    in
    let fuzz seed objective =
      let p = Gen.program (Rng.create seed) in
      (Printf.sprintf "fuzz-%d/%s" seed (Cost.objective_name objective),
       p.Text.registry, Gen.top_graph p, objective)
    in
    [ bench (Suite.test1 ()) Cost.Power; fuzz 21 Cost.Power; fuzz 22 Cost.Area ]
  in
  let fresh_dir () =
    let path = Filename.temp_file "hsyn-bench-cache" "" in
    Sys.remove path;
    Sys.mkdir path 0o700;
    path
  in
  let remove_dir dir =
    (try
       Array.iter
         (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
         (Sys.readdir dir)
     with Sys_error _ -> ());
    try Sys.rmdir dir with Sys_error _ -> ()
  in
  let t =
    Table.create
      ~header:
        [ "case"; "cold (s)"; "warm (s)"; "speedup"; "disk hits"; "ok" ]
  in
  let case_objs = ref [] in
  let all_ok = ref true in
  List.iter
    (fun (case, registry, dfg, objective) ->
      Printf.printf "  running %s (cold + save, warm reload) ...\n%!" case;
      let sampling_ns = 2.2 *. Float.max 1.0 (S.min_sampling_ns lib registry dfg) in
      let dir = fresh_dir () in
      Fun.protect ~finally:(fun () -> remove_dir dir) @@ fun () ->
      let request session =
        match S.Request.make ~config ~session ~lib ~registry ~dfg ~objective ~sampling_ns () with
        | Ok req -> req
        | Error msg -> failwith msg
      in
      let run ?cache_dir session =
        match S.synthesize ?cache_dir (request session) with
        | Ok r -> r
        | Error msg -> failwith msg
      in
      (* cold: fresh session, empty cache directory — populates + saves *)
      let cold = run ~cache_dir:dir (Session.create ()) in
      (* warm: a fresh session (as after a restart) reloading the file *)
      let warm_session = Session.create () in
      let warm = run ~cache_dir:dir warm_session in
      let disk_hits = (Session.totals warm_session).Engine.disk_hits in
      let cache_hits = (Session.totals warm_session).Engine.cache_hits in
      let identical =
        Int64.bits_of_float cold.S.eval.Cost.area = Int64.bits_of_float warm.S.eval.Cost.area
        && Int64.bits_of_float cold.S.eval.Cost.power
           = Int64.bits_of_float warm.S.eval.Cost.power
        && Design.fingerprint cold.S.design = Design.fingerprint warm.S.design
      in
      let cold_v = Cost.objective_value objective cold.S.eval in
      let ok = identical && disk_hits > 0 in
      let speedup = cold.S.elapsed_s /. Float.max 1e-9 warm.S.elapsed_s in
      all_ok := !all_ok && ok;
      Table.add_row t
        [
          case;
          Printf.sprintf "%.2f" cold.S.elapsed_s;
          Printf.sprintf "%.2f" warm.S.elapsed_s;
          Printf.sprintf "%.2fx" speedup;
          Printf.sprintf "%d/%d" disk_hits cache_hits;
          (if ok then "yes" else "NO");
        ];
      case_objs :=
        Json.Obj
          [
            ("case", Json.String case);
            ("cold_s", Json.Float cold.S.elapsed_s);
            ("warm_s", Json.Float warm.S.elapsed_s);
            ("speedup", Json.Float speedup);
            ("disk_hits", Json.Int disk_hits);
            ("cache_hits", Json.Int cache_hits);
            ("disk_hit_rate",
             Json.Float
               (if cache_hits = 0 then 0.
                else Float.of_int disk_hits /. Float.of_int cache_hits));
            ("cold_value", Json.Float cold_v);
            ("identical", Json.Bool identical);
            ("ok", Json.Bool ok);
          ]
        :: !case_objs)
    cases;
  Table.print t;
  let json =
    Json.Obj
      [
        ("quick", Json.Bool quick);
        ("ok", Json.Bool !all_ok);
        ("cases", Json.List (List.rev !case_objs));
      ]
  in
  let line = Json.to_string json in
  Printf.printf "cache-json: %s\n" line;
  let oc = open_out "BENCH_cache.json" in
  output_string oc line;
  output_char oc '\n';
  close_out oc;
  Printf.printf "  (written to BENCH_cache.json)\n";
  Printf.printf
    "Reading: the warm run starts from a fresh session plus the cache file the cold run\n\
     persisted — its disk hits are work a restarted process did not redo, and \"ok\"\n\
     additionally confirms warm ≡ cold bit-for-bit.\n"

(* ------------------------------------------------------------------ *)
(* Observability overhead: the same synthesis run with the flight
   recorder fully off (the default), and fully armed (trace + metrics;
   --profile reads the metrics). The disabled path must be
   indistinguishable from the pre-observability code: each probe
   costs one atomic load, and the
   section both measures that cost directly (Bechamel on a disabled
   span) and scales it by the run's actual probe count to bound the
   disabled overhead — the wall-clock medians alone cannot resolve a
   sub-percent effect over run-to-run noise. *)

let obs_section () =
  let module Bm = Bechamel in
  let module Test = Bechamel.Test in
  let module Staged = Bechamel.Staged in
  let module Obs = Hsyn_obs in
  let b = Suite.avenhaus_cascade () in
  header "obs"
    (Printf.sprintf "Observability overhead (instrumented vs disabled, %s)" b.Suite.name);
  let min_ns = S.min_sampling_ns lib b.Suite.registry b.Suite.dfg in
  let sampling_ns = 2.2 *. min_ns in
  let repeats = if quick then 1 else 3 in
  let run () =
    synthesize ~config ~lib b.Suite.registry b.Suite.dfg Cost.Power ~sampling_ns ()
  in
  let timed () = List.init repeats (fun _ -> let r = run () in (r, r.S.elapsed_s)) in
  let off () =
    Obs.Trace.set_enabled false;
    Obs.Metrics.set_enabled false
  in
  off ();
  Printf.printf "  running disabled (%d repeat%s) ...\n%!" repeats (if repeats = 1 then "" else "s");
  let dis_runs = timed () in
  Obs.Trace.set_capacity 262_144;
  Obs.Trace.set_enabled true;
  Obs.Metrics.set_enabled true;
  Printf.printf "  running instrumented (%d repeat%s) ...\n%!" repeats
    (if repeats = 1 then "" else "s");
  let en_runs = timed () in
  (* probe census while the registry is still hot: every span is one
     stage.* histogram observation *)
  let probes_per_run =
    match Obs.Metrics.snapshot () with
    | Json.Obj fields -> (
        match List.assoc_opt "histograms" fields with
        | Some (Json.Obj hists) ->
            List.fold_left
              (fun acc (name, h) ->
                if String.length name > 6 && String.sub name 0 6 = "stage." then
                  match h with
                  | Json.Obj hf -> (
                      match List.assoc_opt "count" hf with
                      | Some (Json.Int c) -> acc + c
                      | _ -> acc)
                  | _ -> acc
                else acc)
              0 hists
            / max 1 repeats
        | _ -> 0)
    | _ -> 0
  in
  let dropped = Obs.Trace.dropped () in
  off ();
  Obs.Trace.reset ();
  Obs.Metrics.reset ();
  (* cost of one disabled probe, measured on the disabled path *)
  let tests =
    [
      Test.make ~name:"disabled-span"
        (Staged.stage (fun () -> Obs.Trace.span Obs.Trace.Schedule "obs_noop" (fun () -> ())));
      (* a filtered log call (debug under the default warn threshold)
         must share the same one-atomic-load budget *)
      Test.make ~name:"disabled-log" (Staged.stage (fun () -> Obs.Log.debug "obs_noop"));
    ]
  in
  let ols = Bm.Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Bm.Measure.run |] in
  let instances = Bm.Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Bm.Benchmark.cfg ~limit:2000 ~quota:(Bm.Time.second 0.5) ~kde:None () in
  let raw = Bm.Benchmark.all cfg instances (Test.make_grouped ~name:"obs" tests) in
  let results = Bm.Analyze.all ols Bm.Toolkit.Instance.monotonic_clock raw in
  let estimate key =
    match Hashtbl.fold (fun k v acc -> if k = key then Some v else acc) results None with
    | Some r -> ( match Bm.Analyze.OLS.estimates r with Some [ ns ] -> ns | _ -> nan)
    | None -> nan
  in
  let probe_ns = estimate "obs/disabled-span" in
  let log_probe_ns = estimate "obs/disabled-log" in
  let med runs = Stats.median (List.map snd runs) in
  let dis_med = med dis_runs and en_med = med en_runs in
  let enabled_overhead_pct = 100. *. ((en_med /. Float.max 1e-9 dis_med) -. 1.) in
  (* disabled overhead = measured per-probe cost x probes actually
     executed, as a fraction of the disabled run *)
  let disabled_overhead_pct =
    probe_ns *. Float.of_int probes_per_run /. (Float.max 1e-9 dis_med *. 1e9) *. 100.
  in
  let within_budget = Float.is_nan disabled_overhead_pct = false && disabled_overhead_pct < 2.0 in
  let e0 = (fst (List.hd dis_runs)).S.eval and e1 = (fst (List.hd en_runs)).S.eval in
  let identical = e0.Cost.area = e1.Cost.area && e0.Cost.power = e1.Cost.power in
  let t =
    Table.create
      ~header:[ "mode"; "median (s)"; "probes/run"; "probe cost"; "overhead"; "identical" ]
  in
  Table.add_row t
    [
      "disabled";
      Printf.sprintf "%.3f" dis_med;
      string_of_int probes_per_run;
      Printf.sprintf "%.1f ns" probe_ns;
      Printf.sprintf "%.4f%% (bound)" disabled_overhead_pct;
      "-";
    ];
  Table.add_row t
    [
      "trace+metrics";
      Printf.sprintf "%.3f" en_med;
      string_of_int probes_per_run;
      "-";
      Printf.sprintf "%.1f%%" enabled_overhead_pct;
      (if identical then "yes" else "NO");
    ];
  Table.print t;
  Printf.printf "  filtered log call: %.1f ns (disabled span: %.1f ns)\n" log_probe_ns probe_ns;
  if not within_budget then
    Printf.printf
      "WARNING: disabled-path overhead bound %.4f%% exceeds the 2%% budget (probe %.1f ns)\n"
      disabled_overhead_pct probe_ns;
  if not identical then
    Printf.printf "WARNING: instrumented run produced a different design\n";
  let json =
    Json.Obj
      [
        ("benchmark", Json.String b.Suite.name);
        ("objective", Json.String "power");
        ("repeats", Json.Int repeats);
        ("disabled_s", Json.Float dis_med);
        ("enabled_s", Json.Float en_med);
        ("probes_per_run", Json.Int probes_per_run);
        ("probe_ns", Json.Float probe_ns);
        ("log_probe_ns", Json.Float log_probe_ns);
        ("disabled_overhead_pct", Json.Float disabled_overhead_pct);
        ("enabled_overhead_pct", Json.Float enabled_overhead_pct);
        ("trace_dropped_events", Json.Int dropped);
        ("within_budget", Json.Bool within_budget);
        ("identical", Json.Bool identical);
        ("quick", Json.Bool quick);
      ]
  in
  let line = Json.to_string json in
  Printf.printf "obs-json: %s\n" line;
  let oc = open_out "BENCH_obs.json" in
  output_string oc line;
  output_char oc '\n';
  close_out oc;
  Printf.printf "  (written to BENCH_obs.json)\n";
  assert within_budget

(* ------------------------------------------------------------------ *)
(* hsyn serve under load: an in-process daemon on a temp Unix socket,
   a mixed request stream (suite benchmarks + fuzz-generated programs)
   pushed by concurrent client domains, throughput and p90 latency
   reported, and every served final line checked bit-identical
   (modulo elapsed_s) to a solo in-process run of the same document.
   CI greps BENCH_serve.json for "ok":true and keeps
   serve.metrics.json as the scrape-endpoint artifact. *)

let serve_section () =
  header "serve" "Multi-tenant daemon load generation (hsyn serve)";
  let module Serve = Hsyn_serve.Serve in
  let module Wire = Hsyn_core.Wire in
  let module Gen = Hsyn_fuzz.Gen in
  let n_clients = 4 in
  let serve_cfg =
    {
      Serve.default_config with
      Serve.max_inflight = 2;
      max_queue = 16;
      retry_after_s = 0.2;
      (* exercise the full telemetry path under load: every synthesis
         request outruns 250 ms here, so the slow-request log and the
         recent-slow ring fill up *)
      slow_ms = Some 250.0;
    }
  in
  (* route the daemon's structured log (one access record per request)
     into an artifact next to the metrics snapshot *)
  let module Log = Hsyn_obs.Log in
  let module Report = Hsyn_obs.Report in
  let log_sink = Report.Sink.create "serve.access.ndjson" in
  Log.set_sink log_sink;
  Log.set_level Log.Info;
  (* request mix: the two cheap suite benchmarks under both objectives,
     plus fuzz-generated programs shipped inline as textual DFGs *)
  let docs =
    let bench name objective =
      ( Printf.sprintf "%s/%s" name (Cost.objective_name objective),
        Wire.make_doc ~objective ~timing:(Wire.Laxity 2.2) ~config (Wire.Bench name) )
    in
    let fuzz seed objective =
      let text = Text.to_string (Gen.program (Rng.create seed)) in
      ( Printf.sprintf "fuzz-%d/%s" seed (Cost.objective_name objective),
        Wire.make_doc ~objective ~timing:(Wire.Laxity 2.2) ~config
          (Wire.Program { text; graph = None }) )
    in
    Array.of_list
      [
        bench "test1" Cost.Area;
        bench "test1" Cost.Power;
        bench "paulin" Cost.Area;
        bench "paulin" Cost.Power;
        fuzz 11 Cost.Area;
        fuzz 12 Cost.Power;
        fuzz 13 Cost.Area;
        fuzz 14 Cost.Power;
        fuzz 15 Cost.Area;
        fuzz 16 Cost.Power;
      ]
  in
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hsyn-bench-%d.sock" (Unix.getpid ()))
  in
  let server =
    match Serve.create ~config:serve_cfg (Serve.Unix_socket sock) with
    | Ok s -> s
    | Error msg -> failwith ("serve: " ^ msg)
  in
  let addr = Serve.address server in
  let server_domain = Domain.spawn (fun () -> Serve.run server) in
  Printf.printf "  %d requests, %d client domains, %d workers, queue %d ...\n%!"
    (Array.length docs) n_clients serve_cfg.Serve.max_inflight serve_cfg.Serve.max_queue;
  (* one load-generator domain per client: grab the next un-served doc,
     send it, retry on a typed overload reject after its hint *)
  let next = Atomic.make 0 in
  let final_code line =
    match Json.of_string line with
    | Error _ -> None
    | Ok j -> (
        match Option.bind (Json.member "kind" j) Json.to_string_opt with
        | Some "hsyn.result" -> Some "result"
        | Some "hsyn.error" -> Option.bind (Json.member "code" j) Json.to_string_opt
        | _ -> None)
  in
  (* an overload reject is a backpressure signal, not a terminal
     answer: honor the server's retry_after_s hint (falling back to
     the configured default), doubling per consecutive reject up to a
     2 s cap, until the request is admitted *)
  let rec send_doc attempts doc =
    match Serve.Client.request ~timeout_s:300. addr doc with
    | Error msg -> Error msg
    | Ok [] -> Error "empty response"
    | Ok lines -> (
        let final = List.nth lines (List.length lines - 1) in
        match final_code final with
        | Some "overloaded" when attempts < 50 ->
            let hint =
              match Json.of_string final with
              | Ok j -> Option.bind (Json.member "retry_after_s" j) Json.to_float_opt
              | Error _ -> None
            in
            let base = Option.value hint ~default:serve_cfg.Serve.retry_after_s in
            Unix.sleepf (Float.min 2.0 (base *. Float.of_int (1 lsl min attempts 4)));
            send_doc (attempts + 1) doc
        | _ -> Ok (final, List.length lines - 1, attempts))
  in
  let t0 = Unix.gettimeofday () in
  let clients =
    List.init n_clients (fun _ ->
        Domain.spawn (fun () ->
            let rec loop acc =
              let i = Atomic.fetch_and_add next 1 in
              if i >= Array.length docs then acc
              else
                let _, doc = docs.(i) in
                let c0 = Unix.gettimeofday () in
                let outcome = send_doc 0 doc in
                let ms = 1000. *. (Unix.gettimeofday () -. c0) in
                loop ((i, outcome, ms) :: acc)
            in
            loop []))
  in
  let served = List.concat_map Domain.join clients in
  let wall_s = Unix.gettimeofday () -. t0 in
  let metrics_line =
    match Serve.Client.metrics addr with Ok l -> l | Error msg -> failwith ("metrics: " ^ msg)
  in
  Serve.stop server;
  Domain.join server_domain;
  let stats = Serve.stats server in
  (* identity: the served final line must match a solo in-process run
     of the same document, byte for byte once elapsed_s is nulled *)
  let t =
    Table.create ~header:[ "request"; "events"; "latency (ms)"; "retries"; "final"; "solo-identical" ]
  in
  let all_ok = ref true in
  let latencies = ref [] in
  List.iter
    (fun (i, outcome, ms) ->
      let name, doc = docs.(i) in
      latencies := ms :: !latencies;
      match outcome with
      | Error msg ->
          all_ok := false;
          Table.add_row t [ name; "-"; Printf.sprintf "%.1f" ms; "-"; "IO error: " ^ msg; "NO" ]
      | Ok (final, events, retries) ->
          let ok_final = final_code final = Some "result" in
          let identical =
            ok_final
            && Serve.canonical_final final
               = Serve.canonical_final (Serve.solo_final serve_cfg doc)
          in
          all_ok := !all_ok && ok_final && identical;
          Table.add_row t
            [
              name;
              string_of_int events;
              Printf.sprintf "%.1f" ms;
              string_of_int retries;
              (match final_code final with Some c -> c | None -> "???");
              (if identical then "yes" else "NO");
            ])
    (List.sort compare served);
  Table.print t;
  let n = List.length served in
  let rps = Float.of_int n /. Float.max 1e-9 wall_s in
  let p90_ms = Stats.percentile 90. !latencies in
  let total_retries =
    List.fold_left
      (fun acc (_, outcome, _) -> match outcome with Ok (_, _, r) -> acc + r | Error _ -> acc)
      0 served
  in
  let drained =
    stats.Serve.in_flight = 0 && stats.Serve.queued = 0
    && stats.Serve.completed + stats.Serve.errors >= n
  in
  let ok = !all_ok && n = Array.length docs && drained in
  Printf.printf "  %d requests in %.2fs: %.2f req/s, p90 latency %.1f ms\n" n wall_s rps p90_ms;
  Printf.printf "  server: accepted %d, completed %d, rejected %d, errors %d\n" stats.Serve.accepted
    stats.Serve.completed stats.Serve.rejected stats.Serve.errors;
  let json =
    Json.Obj
      [
        ("quick", Json.Bool quick);
        ("ok", Json.Bool ok);
        ("requests", Json.Int n);
        ("clients", Json.Int n_clients);
        ("workers", Json.Int serve_cfg.Serve.max_inflight);
        ("wall_s", Json.Float wall_s);
        ("rps", Json.Float rps);
        ("p90_ms", Json.Float p90_ms);
        ("accepted", Json.Int stats.Serve.accepted);
        ("completed", Json.Int stats.Serve.completed);
        ("rejected", Json.Int stats.Serve.rejected);
        ("errors", Json.Int stats.Serve.errors);
        ("retries", Json.Int total_retries);
      ]
  in
  let line = Json.to_string json in
  Printf.printf "serve-json: %s\n" line;
  let oc = open_out "BENCH_serve.json" in
  output_string oc line;
  output_char oc '\n';
  close_out oc;
  let oc = open_out "serve.metrics.json" in
  output_string oc metrics_line;
  output_char oc '\n';
  close_out oc;
  Log.set_level Log.Warn;
  Log.set_sink (Report.Sink.of_channel stderr);
  Report.Sink.close log_sink;
  (* the live-scraped metrics line is exactly what [hsyn top] polls:
     render one dashboard frame from it *)
  let module Top = Hsyn_serve.Top in
  (match Top.of_line ~at:(Unix.gettimeofday ()) metrics_line with
  | Ok sample ->
      Printf.printf "  hsyn top frame from the live scrape:\n";
      String.split_on_char '\n' (Top.render sample)
      |> List.iter (fun l -> if l <> "" then Printf.printf "    %s\n" l)
  | Error msg -> Printf.printf "  WARNING: hsyn top could not render the scrape: %s\n" msg);
  Printf.printf
    "  (written to BENCH_serve.json; metrics snapshot in serve.metrics.json; access log in \
     serve.access.ndjson)\n";
  Printf.printf
    "Reading: every request rides the daemon's shared session, yet each served final line\n\
     is byte-identical (modulo the elapsed_s / stats observability fields) to a solo run\n\
     of the same JSON document — multi-tenancy changes who computed a value (cache hits,\n\
     wall clocks), never the value.\n"

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the synthesis kernels *)

let micro () =
  header "micro" "Bechamel microbenchmarks (synthesis kernels behind each table)";
  let module Bm = Bechamel in
  let module Test = Bechamel.Test in
  let module Staged = Bechamel.Staged in
  let b = Suite.test1 () in
  let ctx = { Design.lib; vdd = 5.0; clk_ns = 20.0 } in
  let d = Initial.build ctx ~complexes:(fun _ -> []) b.Suite.registry b.Suite.dfg in
  let cs = Sched.relaxed ~deadline:1000 b.Suite.dfg in
  let trace =
    Trace.generate (Rng.create 1) Trace.default_kind
      ~n_inputs:(Array.length b.Suite.dfg.Dfg.inputs)
      ~length:8
  in
  let flat = Flatten.flatten b.Suite.registry b.Suite.dfg in
  let quick_cfg =
    {
      S.default_config with
      S.max_moves = 4;
      max_passes = 1;
      max_candidates = 12;
      trace_length = 6;
      max_clocks = 1;
      clib_effort = { Clib.default_effort with Clib.max_moves = 2; max_passes = 1 };
    }
  in
  let min_ns = S.min_sampling_ns lib b.Suite.registry b.Suite.dfg in
  let tests =
    [
      Test.make ~name:"table3.schedule" (Staged.stage (fun () -> Sched.schedule ctx cs d));
      Test.make ~name:"table3.power-estimate"
        (Staged.stage (fun () -> Power.energy_per_sample ctx cs d trace));
      Test.make ~name:"table3.area" (Staged.stage (fun () -> AreaM.datapath ctx d));
      Test.make ~name:"table3.flatten"
        (Staged.stage (fun () -> Flatten.flatten b.Suite.registry b.Suite.dfg));
      Test.make ~name:"table4.full-hier-synthesis"
        (Staged.stage (fun () ->
             synthesize ~config:quick_cfg ~lib b.Suite.registry b.Suite.dfg Cost.Area
               ~sampling_ns:(2.2 *. min_ns) ()));
      Test.make ~name:"table3.critical-path"
        (Staged.stage (fun () -> Sched.critical_path_ns lib flat));
    ]
  in
  let ols = Bm.Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Bm.Measure.run |] in
  let instances = Bm.Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Bm.Benchmark.cfg ~limit:2000 ~quota:(Bm.Time.second 0.5) ~kde:None () in
  let raw = Bm.Benchmark.all cfg instances (Test.make_grouped ~name:"hsyn" tests) in
  let results = Bm.Analyze.all ols Bm.Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let cell =
        match Bm.Analyze.OLS.estimates ols_result with
        | Some [ ns ] -> Printf.sprintf "%12.1f ns/run" ns
        | _ -> "(no estimate)"
      in
      rows := (name, cell) :: !rows)
    results;
  List.iter (fun (name, cell) -> Printf.printf "  %-32s %s\n" name cell)
    (List.sort compare !rows)

(* ------------------------------------------------------------------ *)

let () =
  Printf.printf "H-SYN experiment harness (%s effort)\n" (if quick then "quick" else "full");
  if section "table-1" then table_1 ();
  if section "figure-1" then figure_1 ();
  if section "figure-2" then figure_2 ();
  if section "figure-3" || section "table-2" then figure_3 ();
  if section "table-3" then table_3 ();
  if section "table-4" then table_4 ();
  if section "headline" then headline ();
  if section "ablation" then ablation ();
  if section "engine" then engine_section ();
  if section "session" then session_section ();
  if section "rewrite" then rewrite_section ();
  if section "cache" then cache_section ();
  if section "obs" then obs_section ();
  if section "serve" then serve_section ();
  if (not no_micro) && section "micro" then micro ();
  Printf.printf "\ndone.\n"

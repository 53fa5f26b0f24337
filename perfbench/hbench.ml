(* H-SYN synthesis benchmark.

     hbench --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload's request list through [Synthesize.synthesize] in
   this process, on one domain, checks every result, and prints each
   metric as "name value unit" followed by one JSON object on the last
   line. [--trace 0] measures the end-to-end metrics untraced;
   [--trace 1] runs the list once untraced (work counters, GC) and once
   with the program's trace spans armed (self-time ledger), then
   replays single layer calls on the final designs. See README.md. *)

module W = Workload
module Cost = Hsyn_core.Cost
module Session = Hsyn_core.Session
module Pass = Hsyn_core.Pass
module Moves = Hsyn_core.Moves
module S = Hsyn_core.Synthesize
module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched
module Sim = Hsyn_eval.Sim
module Shard_tbl = Hsyn_util.Shard_tbl
module Stats = Hsyn_util.Stats
module Obs = Hsyn_obs.Trace

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("hbench: " ^ m); exit 2) fmt

(* -- command line -------------------------------------------------------- *)

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse_args () =
  let get key =
    let rec find i =
      if i >= Array.length Sys.argv - 1 then die "missing %s" key
      else if Sys.argv.(i) = key then Sys.argv.(i + 1)
      else find (i + 1)
    in
    find 1
  in
  let int key = match int_of_string_opt (get key) with Some v -> v | None -> die "%s: not an integer" key in
  let seconds = int "--seconds" in
  if seconds < 1 then die "--seconds must be at least 1";
  let trace = match int "--trace" with 0 -> false | 1 -> true | _ -> die "--trace takes 0 or 1" in
  { workload = get "--workload"; seed = int "--seed"; seconds = Float.of_int seconds; trace }

(* -- one pass over the request list ----------------------------------- *)

type outcome = {
  input : W.input;
  wall_s : float;
  result : (S.result, string) result;
  counters : Session.counters;  (* engine work of this request *)
  families : (string * Session.counters) list;
  schedules : int;  (* scheduler calls of this request *)
}

type pass = {
  outcomes : outcome list;
  pass_wall_s : float;  (* sum of the request times *)
  sessions : Session.stats list;  (* each session the pass used, read when it was done *)
  sched : Sched.stats;
  minor_words : float;
  major_collections : int;
}

let family_delta before after =
  List.map
    (fun (fam, c) ->
      (fam, match List.assoc_opt fam before with Some b -> Session.sub c b | None -> c))
    after

(* [before] runs ahead of each request, untimed; [around] wraps it (the
   traced pass gives it a span). *)
let run_pass ?(before = ignore) ?(around = fun f -> f ()) (w : W.t) inputs =
  let shared = if w.W.shared_session then Some (Session.create ()) else None in
  let sessions = ref [] in
  let gc0 = Gc.quick_stat () and sched0 = Sched.stats () in
  let outcomes =
    List.map
      (fun (input : W.input) ->
        let session = match shared with Some s -> s | None -> Session.create () in
        let c0 = Session.totals session and f0 = Session.family_totals session in
        let s0 = (Sched.stats ()).Sched.schedules in
        before ();
        let r0 = Unix.gettimeofday () in
        let result =
          around (fun () ->
              try S.synthesize (input.W.request session) with e -> Error (Printexc.to_string e))
        in
        let wall_s = Unix.gettimeofday () -. r0 in
        if shared = None then sessions := Session.stats session :: !sessions;
        {
          input;
          wall_s;
          result;
          counters = Session.sub (Session.totals session) c0;
          families = family_delta f0 (Session.family_totals session);
          schedules = (Sched.stats ()).Sched.schedules - s0;
        })
      inputs
  in
  let pass_wall_s = List.fold_left (fun s o -> s +. o.wall_s) 0. outcomes in
  let gc1 = Gc.quick_stat () in
  let sessions = match shared with Some s -> [ Session.stats s ] | None -> List.rev !sessions in
  {
    outcomes;
    pass_wall_s;
    sessions;
    sched = Sched.sub_stats (Sched.stats ()) sched0;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

(* -- correctness gate ----------------------------------------------------- *)

(* Bits a repeat of a request must reproduce exactly. *)
let signature (r : S.result) =
  (Design.fingerprint r.S.design, Int64.bits_of_float r.S.eval.Cost.area, Int64.bits_of_float r.S.eval.Cost.power)

type checker = {
  seed : int;
  cases : (string, int array list * int array list) Hashtbl.t;  (* per benchmark *)
  first : (string, int64 * int64 * int64) Hashtbl.t;  (* per request name *)
}

let checker seed = { seed; cases = Hashtbl.create 8; first = Hashtbl.create 16 }

let check_case c (b : W.Suite.t) =
  match Hashtbl.find_opt c.cases b.W.Suite.name with
  | Some x -> x
  | None ->
      let x = W.check_case ~seed:c.seed b in
      Hashtbl.add c.cases b.W.Suite.name x;
      x

(* Failure reasons of a pass, one per failed request. [c.first] holds
   the signature of the first occurrence of each request name, across
   passes: a repeat in a shared session and every later pass must
   reproduce it. *)
let check c (p : pass) =
  List.filter_map
    (fun o ->
      let name = W.spec_name o.input.W.spec in
      let fail fmt = Printf.ksprintf (fun m -> Some (name ^ ": " ^ m)) fmt in
      let trace, reference = check_case c o.input.W.suite in
      match o.result with
      | Error m -> fail "synthesize failed: %s" m
      | Ok r when not r.S.eval.Cost.feasible -> fail "infeasible result"
      | Ok r -> (
          match Sim.outputs r.S.design (Sim.run r.S.design trace) with
          | exception e -> fail "simulation raised %s" (Printexc.to_string e)
          | outs when outs <> reference ->
              fail "design outputs differ from the flattened behaviour on the check trace"
          | _ -> (
              let sg = signature r in
              match Hashtbl.find_opt c.first name with
              | None ->
                  Hashtbl.add c.first name sg;
                  None
              | Some sg0 when sg0 = sg -> None
              | Some _ -> fail "repeat is not bit-identical to the first run")))
    p.outcomes

let results p = List.filter_map (fun o -> Result.to_option o.result) p.outcomes

let objective_geo p =
  Stats.geomean (List.map (fun r -> Cost.objective_value r.S.objective r.S.eval) (results p))

(* -- metrics --------------------------------------------------------------- *)

type value = F of float | I of int
type metric = { name : string; value : value; unit_ : string }

let m name unit_ v = { name; value = F v; unit_ }
let mi name unit_ v = { name; value = I v; unit_ }
let ratio a b = if a + b = 0 then 0. else Float.of_int a /. Float.of_int (a + b)

let sum_counters l = List.fold_left Session.add Session.zero l

let family_totals p =
  List.fold_left
    (fun acc o ->
      List.fold_left
        (fun acc (fam, c) ->
          let prev = Option.value ~default:Session.zero (List.assoc_opt fam acc) in
          (fam, Session.add prev c) :: List.remove_assoc fam acc)
        acc o.families)
    [] p.outcomes

(* Power simulations of every repeated request over those of its first
   occurrence; 1 when nothing is reused across requests, which is the
   case by construction when every request has a fresh session. *)
let repeat_sims (p : pass) =
  let first = Hashtbl.create 16 in
  let rep = ref 0 and base = ref 0 in
  List.iter
    (fun o ->
      let name = W.spec_name o.input.W.spec in
      match Hashtbl.find_opt first name with
      | None -> Hashtbl.add first name o.counters.Session.power_sims
      | Some sims0 ->
          rep := !rep + o.counters.Session.power_sims;
          base := !base + sims0)
    p.outcomes;
  if !base = 0 then 1. else Float.of_int !rep /. Float.of_int !base

(* Deterministic work of one pass: the same code and inputs give the
   same numbers on every run. A move family is named by its letter:
   "A:select" gives moves.A.generated and so on. *)
let work_metrics (p : pass) =
  let c = sum_counters (List.map (fun o -> o.counters) p.outcomes) in
  let cost = List.fold_left (fun s st -> Shard_tbl.add_stats s st.Session.cost_tbl) Shard_tbl.zero_stats p.sessions in
  let rs = results p in
  let fams = family_totals p in
  let fam_metrics =
    List.concat_map
      (fun fam ->
        let letter = String.sub fam 0 1 in
        let f = Option.value ~default:Session.zero (List.assoc_opt fam fams) in
        [
          mi ("moves." ^ letter ^ ".generated") "count" f.Session.generated;
          mi ("moves." ^ letter ^ ".evaluated") "count" f.Session.evaluated;
          mi ("moves." ^ letter ^ ".power_sims") "count" f.Session.power_sims;
        ])
      Moves.family_names
  in
  let sum f = List.fold_left (fun s r -> s + f r) 0 rs in
  [
    mi "engine.generated" "count" c.Session.generated;
    mi "engine.evaluated" "count" c.Session.evaluated;
    mi "engine.power_sims" "count" c.Session.power_sims;
    mi "engine.power_skipped" "count" c.Session.power_skipped;
    m "engine.skip_ratio" "ratio" (ratio c.Session.power_skipped c.Session.power_sims);
    m "engine.cache_hit_rate" "ratio" (ratio c.Session.cache_hits c.Session.cache_misses);
    mi "sched.schedules" "count" p.sched.Sched.schedules;
    mi "sched.events_popped" "count" p.sched.Sched.events_popped;
    m "sched.prepared_hit_rate" "ratio" (ratio p.sched.Sched.prepared_hits p.sched.Sched.prepared_builds);
    m "session.cost.hit_rate" "ratio" (ratio cost.Shard_tbl.hits cost.Shard_tbl.misses);
    mi "session.cost.evictions" "count" cost.Shard_tbl.evictions;
    mi "session.contexts" "count" (List.fold_left (fun s st -> s + st.Session.contexts) 0 p.sessions);
    m "session.repeat_sims" "ratio" (repeat_sims p);
    mi "moves.committed" "count" (sum (fun r -> r.S.stats.Pass.moves_committed));
    mi "moves.reverted" "count"
      (sum (fun r -> List.fold_left (fun s (_, n) -> s + n) 0 r.S.stats.Pass.reverted));
    mi "synthesize.contexts_done" "count" (sum (fun r -> r.S.coverage.S.contexts_done));
    mi "synthesize.moves_tried" "count" (sum (fun r -> r.S.coverage.S.moves_tried));
    m "gc.minor_mwords" "Mwords" (p.minor_words /. 1e6);
    mi "gc.major_collections" "count" p.major_collections;
  ]
  @ fam_metrics

(* -- output -------------------------------------------------------------- *)

let value_json = function
  | I n -> string_of_int n
  | F x when Float.is_finite x -> Printf.sprintf "%.17g" x
  | F _ -> "null"

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun mt ->
      let v = match mt.value with I n -> string_of_int n | F x -> Printf.sprintf "%.6g" x in
      Printf.printf "%-34s %14s %s\n" mt.name v mt.unit_)
    metrics;
  let fields =
    List.map
      (fun mt -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name (value_json mt.value) mt.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " fields)

let report_failures fails =
  List.iteri (fun i f -> if i < 10 then prerr_endline ("hbench: FAIL " ^ f)) fails;
  if List.length fails > 10 then Printf.eprintf "hbench: ... %d failures in all\n" (List.length fails)

(* -- the two modes ------------------------------------------------------- *)

(* [setup_s] is the median of many set-ups spread over the whole run —
   a batch up front and a few before every request — so that it sees the
   same changes in machine speed as the passes do. *)
let setup_reps_first = 20
let setup_reps_per_request = 5

let timed_setups w samples n =
  for _ = 1 to n do
    let t0 = Unix.gettimeofday () in
    ignore (W.setup w : W.input list);
    samples := (Unix.gettimeofday () -. t0) :: !samples
  done

let req_p50_s passes =
  Stats.median (List.concat_map (fun p -> List.map (fun o -> o.wall_s) p.outcomes) passes)

let end_to_end (w : W.t) ~seed ~seconds =
  let samples = ref [] in
  let inputs = W.setup w in
  timed_setups w samples setup_reps_first;
  let before () = timed_setups w samples setup_reps_per_request in
  let c = checker seed in
  let start = Unix.gettimeofday () in
  let first_pass = run_pass ~before w inputs in
  (* Peak heap of set-up and one pass, so that it does not depend on
     how many passes fit in the run. *)
  let peak_heap_mb =
    Float.of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let rec loop acc fails =
    if Unix.gettimeofday () -. start >= seconds then (List.rev acc, fails)
    else
      let p = run_pass ~before w inputs in
      loop (p :: acc) (fails @ check c p)
  in
  let passes, fails = loop [ first_pass ] (check c first_pass) in
  List.iter
    (fun o -> Printf.printf "  %-28s %8.3f s\n" (W.spec_name o.input.W.spec) o.wall_s)
    first_pass.outcomes;
  report_failures fails;
  let attempted = List.fold_left (fun s p -> s + List.length p.outcomes) 0 passes in
  let failed = List.length fails in
  let fail_frac = Float.of_int failed /. Float.of_int attempted in
  Printf.printf "workload %s seed %d: %d passes of %d requests, fail_frac %g (%d/%d), req_p50_s %.4f\n"
    w.W.name seed (List.length passes) (List.length inputs) fail_frac failed attempted
    (req_p50_s passes);
  let metrics =
    [
      m "wall_s" "s" (Stats.median (List.map (fun p -> p.pass_wall_s) passes));
      m "setup_s" "s" (Stats.median !samples);
      m "peak_heap_mb" "MB" peak_heap_mb;
      m "ok_frac" "ratio" (1. -. fail_frac);
      m "objective_geo" "cost" (objective_geo first_pass);
    ]
  in
  print_result ~correct:(failed = 0) ~attempted ~failed metrics

let ledger_tolerance = 0.02
let trace_capacity = 1 lsl 21

let per_layer (w : W.t) ~seed =
  let inputs = W.setup w in
  let c = checker seed in
  let plain = run_pass w inputs in
  let fails = check c plain in
  Obs.set_capacity trace_capacity;
  Obs.reset ();
  Obs.set_enabled true;
  let traced = run_pass ~around:(Obs.span Obs.Pass Ledger.request_span) w inputs in
  Obs.set_enabled false;
  let traced_wall_s = traced.pass_wall_s in
  let dropped = Obs.dropped () in
  let ledger = Ledger.of_events (Obs.events ()) in
  Obs.reset ();
  let fails = fails @ check c traced in
  report_failures fails;
  let residual = (Ledger.total ledger -. traced_wall_s) /. traced_wall_s in
  let work = work_metrics plain and traced_work = work_metrics traced in
  let deterministic mt = mt.unit_ = "count" && not (String.starts_with ~prefix:"gc." mt.name) in
  let same_work =
    List.filter deterministic work = List.filter deterministic traced_work
  in
  let ledger_ok = dropped = 0 && ledger.Ledger.domains = 1 && Float.abs residual <= ledger_tolerance in
  Printf.printf
    "workload %s seed %d: traced %.3f s (untraced %.3f s), %d spans on %d domain(s), %d dropped, ledger residual %+.3f%%\n"
    w.W.name seed traced_wall_s plain.pass_wall_s ledger.Ledger.spans ledger.Ledger.domains dropped
    (100. *. residual);
  if not ledger_ok then prerr_endline "hbench: FAIL self-time ledger does not account for the traced wall time";
  if not same_work then prerr_endline "hbench: FAIL traced pass did different work from the untraced one";
  (* Replay each distinct request's final design once; a model term is
     the sum over requests of a counter times that request's µs/call. *)
  let replayed = Hashtbl.create 8 in
  let per_request =
    List.filter_map
      (fun o ->
        Result.to_option o.result
        |> Option.map (fun r ->
               let key = W.spec_name o.input.W.spec in
               let us =
                 match Hashtbl.find_opt replayed key with
                 | Some us -> us
                 | None ->
                     let us = Replay.design_us W.config r in
                     Hashtbl.add replayed key us;
                     us
               in
               (o, us)))
      plain.outcomes
  in
  let call_us layer =
    Stats.mean (Hashtbl.fold (fun _ us acc -> List.assoc layer us :: acc) replayed [])
  in
  let model layer count =
    List.fold_left (fun s (o, us) -> s +. (Float.of_int (count o) *. List.assoc layer us /. 1e6)) 0. per_request
  in
  let self name = List.assoc name ledger.Ledger.self_s in
  let batch_area_s = model "area" (fun o -> o.counters.Session.evaluated) in
  let batch_fp_s = model "fingerprint" (fun o -> o.counters.Session.generated) in
  let times =
    List.map (fun (layer, s) -> m (layer ^ ".self_s") "s" s) ledger.Ledger.self_s
    @ [
        m "unattributed_s" "s" ledger.Ledger.unattributed_s;
        m "synthesize.req_p50_s" "s" (req_p50_s [ plain ]);
        mi "embed.calls" "count" ledger.Ledger.embed_calls;
        m "obs.trace_overhead_pct" "%" (100. *. (traced_wall_s -. plain.pass_wall_s) /. plain.pass_wall_s);
      ]
    @ List.map (fun layer -> m (layer ^ ".call_us") "us" (call_us layer)) Replay.layers
    @ [
        m "model.sched_s" "s" (model "sched" (fun o -> o.schedules));
        m "model.power_s" "s" (model "power" (fun o -> o.counters.Session.power_sims));
        m "model.sim_s" "s" (model "sim" (fun o -> o.counters.Session.power_sims));
        m "model.batch.area_s" "s" batch_area_s;
        m "model.batch.fingerprint_s" "s" batch_fp_s;
        m "model.batch.residual_s" "s" (self "engine.batch" -. batch_area_s -. batch_fp_s);
      ]
  in
  let metrics = times @ work in
  (* One line of exact work for the repeatability check: every count,
     the GC volume and the result quality. *)
  Printf.printf "work %s\n"
    (String.concat " "
       (List.map
          (fun mt -> mt.name ^ "=" ^ value_json mt.value)
          (work @ [ m "objective_geo" "cost" (objective_geo plain) ])));
  let attempted = List.length plain.outcomes + List.length traced.outcomes in
  print_result
    ~correct:(fails = [] && ledger_ok && same_work)
    ~attempted ~failed:(List.length fails) metrics

let () =
  let a = parse_args () in
  match W.make a.workload with
  | None -> die "unknown workload %S (one of: %s)" a.workload (String.concat ", " W.names)
  | Some w -> if a.trace then per_layer w ~seed:a.seed else end_to_end w ~seed:a.seed ~seconds:a.seconds

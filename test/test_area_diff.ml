(* Differential tests: the count-based area kernel must be
   bit-identical to the string-keyed reference model
   ([Hsyn_fuzz.Ref_area]) in all five breakdown fields. Synthesized
   designs of the six Table-4 benchmarks are checked under both
   objectives, with every complex-library module, and small hand-built
   designs pin the steering edge cases with explicit counts. *)

module Design = Hsyn_rtl.Design
module Dfg = Hsyn_dfg.Dfg
module Op = Hsyn_dfg.Op
module B = Hsyn_dfg.Dfg.Builder
module Sched = Hsyn_sched.Sched
module Area = Hsyn_eval.Area
module Ref_area = Hsyn_fuzz.Ref_area
module Cost = Hsyn_core.Cost
module Clib = Hsyn_core.Clib
module Moves = Hsyn_core.Moves
module S = Hsyn_core.Synthesize
module Suite = Hsyn_benchmarks.Suite
module Library = Hsyn_modlib.Library
module Rng = Hsyn_util.Rng

let checkb = Alcotest.check Alcotest.bool
let lib = Library.default
let bits = Int64.bits_of_float
let ctx = Tu.ctx ()

let check_float what want got =
  if bits want <> bits got then Alcotest.failf "%s: %h <> %h" what got want

let check_breakdown what (want : Area.breakdown) (got : Area.breakdown) =
  check_float (what ^ " units") want.Area.units got.Area.units;
  check_float (what ^ " registers") want.Area.registers got.Area.registers;
  check_float (what ^ " muxes") want.Area.muxes got.Area.muxes;
  check_float (what ^ " wires") want.Area.wires got.Area.wires;
  check_float (what ^ " controller") want.Area.controller got.Area.controller

let diff_module what ctx (rm : Design.rtl_module) =
  check_float
    (Printf.sprintf "%s: module %s" what rm.Design.rm_name)
    (Ref_area.module_area ctx rm) (Area.module_area ctx rm)

(* Every module instance of a design, nested ones included. *)
let rec diff_modules what ctx (d : Design.t) =
  Array.iter
    (function
      | Design.Simple _ -> ()
      | Design.Module rm ->
          diff_module what ctx rm;
          List.iter (fun (_, part) -> diff_modules what ctx part) rm.Design.parts)
    d.Design.insts

let diff_design what ctx ~n_states (d : Design.t) =
  check_breakdown what (Ref_area.total ctx d ~n_states) (Area.total ctx d ~n_states);
  diff_modules what ctx d

(* ------------------------------------------------------------------ *)
(* Final designs of the Table-4 benchmarks and their module library *)

let config =
  {
    S.default_config with
    S.max_moves = 5;
    max_passes = 2;
    max_candidates = 16;
    trace_length = 8;
    max_clocks = 2;
    clib_effort = { Clib.default_effort with Clib.max_moves = 3; max_passes = 1 };
  }

let table4 = [ "test1"; "iir"; "avenhaus_cascade"; "dct"; "lat"; "hier_paulin" ]

let has_module (d : Design.t) =
  Array.exists (function Design.Module _ -> true | Design.Simple _ -> false) d.Design.insts

(* Also the [--stats] breakdown: its components sum bit-identically to
   the area the result reports. *)
let test_final_designs () =
  let with_modules = ref 0 in
  List.iter
    (fun name ->
      let b = Option.get (Suite.by_name name) in
      List.iter
        (fun objective ->
          let what = Printf.sprintf "%s/%s" name (Cost.objective_name objective) in
          let min_ns = S.min_sampling_ns lib b.Suite.registry b.Suite.dfg in
          match
            Result.bind
              (S.Request.make ~config ~lib ~registry:b.Suite.registry ~dfg:b.Suite.dfg ~objective
                 ~sampling_ns:(2.2 *. min_ns) ())
              S.synthesize
          with
          | Error msg -> Alcotest.failf "synthesis of %s failed: %s" what msg
          | Ok r ->
              let d = r.S.design in
              if has_module d then incr with_modules;
              let makespan = r.S.eval.Cost.makespan in
              diff_design what r.S.ctx ~n_states:(max 1 makespan) d;
              let parts = Cost.area_breakdown r.S.ctx d ~makespan in
              check_float (what ^ ": breakdown sums to the reported area") r.S.eval.Cost.area
                (Area.grand_total parts))
        [ Cost.Area; Cost.Power ])
    table4;
  checkb "some final design has a module instance" true (!with_modules > 0)

let test_clib_modules () =
  let n = ref 0 in
  List.iter
    (fun name ->
      let b = Option.get (Suite.by_name name) in
      let clib =
        Clib.build ctx b.Suite.registry ~rng:(Rng.create 3) ~trace_length:4
          ~effort:config.S.clib_effort ~families:Moves.all_families ~top:b.Suite.dfg
      in
      List.iter
        (fun behavior ->
          List.iter
            (fun rm ->
              incr n;
              diff_module name ctx rm;
              List.iter (fun (_, part) -> diff_modules name ctx part) rm.Design.parts)
            (Clib.lookup clib behavior))
        (Clib.behaviors clib))
    table4;
  checkb "library modules checked" true (!n > 0)

(* ------------------------------------------------------------------ *)
(* Steering edge cases, with the counts spelled out *)

let expect what ~units ~regs ~mux_inputs ~nets (got : Area.breakdown) =
  check_breakdown what
    {
      Area.units;
      registers = Float.of_int regs *. lib.Library.reg_area;
      muxes = Float.of_int mux_inputs *. lib.Library.mux_area_per_input;
      wires = Float.of_int nets *. lib.Library.wire_area;
      controller = 0.;
    }
    got

let check_small what ~units ~regs ~mux_inputs ~nets (d : Design.t) =
  checkb (what ^ ": valid") true (Design.validate ctx d = Ok ());
  diff_design what ctx ~n_states:3 d;
  expect what ~units ~regs ~mux_inputs ~nets (Area.datapath ctx d)

let area_of name = (Library.find_exn lib name).Hsyn_modlib.Fu.area
let value (d : Design.t) label =
  Design.value_index d.Design.dfg { Dfg.node = Tu.node_id d.Design.dfg label; out = 0 }

(* simple units only, folded in instance order as the model does *)
let units_of (d : Design.t) =
  Array.fold_left
    (fun acc -> function Design.Simple fu -> acc +. fu.Hsyn_modlib.Fu.area | Design.Module _ -> acc)
    0. d.Design.insts

(* s1 = a + b, s2 = s1 + c, s3 = s2 + d on one chained_add3: the
   external feeds a, b, c, d get keys 0..3 in member order; s1 -> s2
   and s2 -> s3 stay inside the chain. *)
let chain_design () =
  let d = Tu.initial ctx (Tu.add_chain_graph ()) in
  let d, k = Design.add_inst d (Design.Simple (Library.find_exn lib "chained_add3")) in
  let d =
    List.fold_left
      (fun d l -> Design.with_binding d (Tu.node_id d.Design.dfg l) k)
      d [ "s1"; "s2"; "s3" ]
  in
  Design.compact d

let test_chain () =
  let d = chain_design () in
  (* 4 port nets; 7 registers (4 inputs, 3 sums), one writer each *)
  check_small "chain" ~units:(area_of "chained_add3") ~regs:7 ~mux_inputs:0 ~nets:11 d;
  (* As the one part of a two-part module whose other part swaps the
     registers of a and c, keys 0 and 2 each see two registers: a
     key per port index (0 and 1 only) would count differently. *)
  let ra = d.Design.value_reg.(value d "a") and rc = d.Design.value_reg.(value d "c") in
  let swapped = Design.with_value_reg (Design.with_value_reg d (value d "a") rc) (value d "c") ra in
  diff_module "chain parts" ctx { Design.rm_name = "CH"; parts = [ ("p", d); ("q", swapped) ] }

(* x + (-3) and y + 3 on one adder: the two constants are distinct
   hardwired sources of port 1. *)
let test_negative_constant () =
  let b = B.create "negc" in
  let x = B.input b "x" and y = B.input b "y" in
  let s1 = B.op b ~label:"s1" Op.Add [ x; B.const b (-3) ] in
  let s2 = B.op b ~label:"s2" Op.Add [ y; B.const b 3 ] in
  B.output b ~label:"o1" s1;
  B.output b ~label:"o2" s2;
  let g = B.finish b in
  let d = Tu.initial ctx g in
  let d = Design.compact (Design.with_binding d (Tu.node_id g "s2") (Tu.inst_of d "s1")) in
  Array.iteri
    (fun id (n : Dfg.node) ->
      match n.Dfg.kind with
      | Dfg.Const _ ->
          checkb "constant unregistered" true
            (d.Design.value_reg.(Design.value_index g { Dfg.node = id; out = 0 }) < 0)
      | _ -> ())
    g.Dfg.nodes;
  (* port 0 {x, y}, port 1 {-3, 3}; registers x, y, s1, s2 *)
  check_small "negative constant" ~units:(area_of "add1") ~regs:4 ~mux_inputs:2 ~nets:8 d

(* (a + b) * (c + d) with s1 left unregistered: the multiplier's port
   0 is fed directly from the first adder's output. *)
let test_direct_feed () =
  let d = Tu.initial ctx (Tu.small_graph ()) in
  let d = Design.compact (Design.with_value_reg d (value d "s1") (-1)) in
  (* 6 port nets, one direct; registers a, b, c, d, s2, m *)
  check_small "direct feed" ~units:(units_of d) ~regs:6 ~mux_inputs:0 ~nets:12 d

(* One register written by the input x, the delay z and the adder. *)
let test_mixed_writers () =
  let b = B.create "mixed" in
  let x = B.input b "x" in
  let z = B.delay b ~label:"z" ~init:0 x in
  let s = B.op b ~label:"s" Op.Add [ x; z ] in
  B.output b ~label:"y" s;
  let g = B.finish b in
  let d = Tu.initial ctx g in
  let r = d.Design.value_reg.(value d "x") in
  let d = Design.with_value_reg (Design.with_value_reg d (value d "z") r) (value d "s") r in
  let d = Design.compact d in
  (* both adder ports read the one register; its 3 writers cost 2 mux inputs *)
  check_small "mixed writers" ~units:(area_of "add1") ~regs:1 ~mux_inputs:2 ~nets:5 d

(* Two parts over one resource set of two adders and registers
   p=0, q=1, s=2, t=3:
     fa: s = p + q on adder 0, t = s + q on adder 1
     fb: s = p + q on adder 0, t = s + p on adder 0
   Register 2 is written from adder 0 in both parts (one writer after
   deduplication across parts); register 3 from adder 1 in fa and
   adder 0 in fb (two writers). *)
let merged_module () =
  let part name ~t_args ~t_inst =
    let b = B.create name in
    let p = B.input b "p" and q = B.input b "q" in
    let s = B.op b ~label:"s" Op.Add [ p; q ] in
    let t = B.op b ~label:"t" Op.Add (t_args p q s) in
    B.output b ~label:"os" s;
    B.output b ~label:"ot" t;
    let g = B.finish b in
    let node_inst =
      Array.map
        (fun (n : Dfg.node) ->
          match n.Dfg.label with "s" -> 0 | "t" -> t_inst | _ -> -1)
        g.Dfg.nodes
    in
    let value_reg =
      Array.init (Design.n_values g) (fun v ->
          let ({ Dfg.node; _ } : Dfg.port) = Design.value_of_index g v in
          match g.Dfg.nodes.(node).Dfg.label with
          | "p" -> 0
          | "q" -> 1
          | "s" -> 2
          | "t" -> 3
          | _ -> -1)
    in
    let add = Design.Simple (Library.find_exn lib "add1") in
    { Design.dfg = g; insts = [| add; add |]; node_inst; value_reg; n_regs = 4 }
  in
  let fa = part "fa" ~t_args:(fun _ q s -> [ s; q ]) ~t_inst:1 in
  let fb = part "fb" ~t_args:(fun p _ s -> [ s; p ]) ~t_inst:0 in
  { Design.rm_name = "M"; parts = [ ("fa", fa); ("fb", fb) ] }

let test_merged_writers () =
  let rm = merged_module () in
  List.iter
    (fun (_, part) -> checkb "part valid" true (Design.validate ctx part = Ok ()))
    rm.Design.parts;
  diff_module "merged" ctx rm;
  (* ports: adder 0 {p, s} {q, p}, adder 1 {s} {q} -> 6 nets, 2 mux
     inputs; registers: p, q, s one writer each, t two -> 5 nets, 1 *)
  let states =
    List.fold_left
      (fun acc (behavior, _) -> acc + (Sched.module_profile ctx rm behavior).Sched.busy)
      0 rm.Design.parts
  in
  let want =
    Area.grand_total
      {
        Area.units = area_of "add1" +. area_of "add1";
        registers = 4. *. lib.Library.reg_area;
        muxes = 3. *. lib.Library.mux_area_per_input;
        wires = 11. *. lib.Library.wire_area;
        controller = Float.of_int states *. lib.Library.ctrl_area_per_state;
      }
  in
  check_float "merged module area" want (Area.module_area ctx rm)

(* ------------------------------------------------------------------ *)
(* An empty module is a typed error, naming the module *)

let test_empty_module () =
  let empty = { Design.rm_name = "EMPTY"; parts = [] } in
  let e = Invalid_argument "Area: module EMPTY has no parts" in
  Alcotest.check_raises "module_area" e (fun () -> ignore (Area.module_area ctx empty));
  let registry, g = Tu.hier_graph () in
  let d = Tu.initial ~registry ctx g in
  let d = Design.with_inst d (Tu.inst_of d "c1") (Design.Module empty) in
  Alcotest.check_raises "datapath" e (fun () -> ignore (Area.datapath ctx d))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "area_diff"
    [
      ( "steering edges",
        [
          tc "chain unit keys" test_chain;
          tc "negative constant source" test_negative_constant;
          tc "unregistered direct feed" test_direct_feed;
          tc "input, delay and unit write one register" test_mixed_writers;
          tc "merged module writers" test_merged_writers;
          tc "empty module" test_empty_module;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "table-4 final designs" `Slow test_final_designs;
          Alcotest.test_case "complex-library modules" `Slow test_clib_modules;
        ] );
    ]

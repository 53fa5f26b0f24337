(* Differential tests: the compiled simulator and the array power
   kernel must be bit-identical to the list-based reference model
   ([Hsyn_fuzz.Ref_power]). Synthesized designs of the six Table-4
   benchmarks are checked under both objectives, and small hand-built
   designs pin the simulator's edge cases. *)

module Design = Hsyn_rtl.Design
module Dfg = Hsyn_dfg.Dfg
module Op = Hsyn_dfg.Op
module B = Hsyn_dfg.Dfg.Builder
module Registry = Hsyn_dfg.Registry
module Sched = Hsyn_sched.Sched
module Sim = Hsyn_eval.Sim
module Power = Hsyn_eval.Power
module Ref_power = Hsyn_fuzz.Ref_power
module Cost = Hsyn_core.Cost
module Clib = Hsyn_core.Clib
module S = Hsyn_core.Synthesize
module Suite = Hsyn_benchmarks.Suite
module Library = Hsyn_modlib.Library

let checkb = Alcotest.check Alcotest.bool
let lib = Library.default
let bits = Int64.bits_of_float

let check_energy what want got =
  if bits want <> bits got then Alcotest.failf "%s: energy %h <> reference %h" what got want

(* Streams, the estimate scheduling for itself, and the estimate on a
   handed-over schedule, all against the reference. *)
let diff_design what ctx cs trace (d : Design.t) =
  checkb (what ^ ": value streams") true (Sim.run d trace = Ref_power.run d trace);
  let want = Ref_power.energy_per_sample ctx cs d trace in
  check_energy what want (Power.energy_per_sample ctx cs d trace);
  let schedule = Sched.schedule ctx cs d in
  check_energy (what ^ " (handed schedule)") want
    (Power.energy_per_sample ~schedule ctx cs d trace)

(* ------------------------------------------------------------------ *)
(* Final designs of the Table-4 benchmarks *)

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
              let cs = Sched.relaxed ~deadline:r.S.deadline_cycles d.Design.dfg in
              diff_design what r.S.ctx cs (Tu.trace ~length:16 d.Design.dfg) d)
        [ Cost.Area; Cost.Power ])
    table4;
  checkb "some final design has a module instance" true (!with_modules > 0)

(* ------------------------------------------------------------------ *)
(* Simulator edge cases *)

let ctx = Tu.ctx ()

let diff_small what ?registry g =
  let d = Tu.initial ?registry ctx g in
  diff_design what ctx (Tu.relaxed_cs g) (Tu.trace ~length:6 g) d;
  d

let outputs d trace = List.map Array.to_list (Sim.outputs d (Sim.run d trace))

(* z^-2 at the top level: state crosses samples through two delays. *)
let test_delay_chain () =
  let b = B.create "z2" in
  let x = B.input b "x" in
  let d1 = B.delay b ~label:"d1" ~init:3 x in
  let d2 = B.delay b ~label:"d2" ~init:5 d1 in
  B.output b ~label:"y" d2;
  B.output b ~label:"s" (B.op b ~label:"a" Op.Add [ x; d2 ]);
  let d = diff_small "delay chain" (B.finish b) in
  checkb "two-sample delay" true
    (outputs d [ [| 10 |]; [| 20 |]; [| 30 |] ] = [ [ 5; 15 ]; [ 3; 23 ]; [ 10; 40 ] ])

(* A delay inside a module part restarts from its initial value at
   every invocation, including between two calls in one sample. *)
let test_delay_in_part () =
  let registry = Registry.create () in
  let acc =
    let b = B.create "acc" in
    let p = B.input b "p" in
    let prev, feed = B.delay_feed b ~init:7 () in
    let s = B.op b ~label:"s" Op.Add [ p; prev ] in
    feed s;
    B.output b ~label:"y" s;
    B.finish b
  in
  Registry.register registry "acc" acc;
  let b = B.create "top" in
  let x = B.input b "x" in
  let c1 = B.call b ~label:"c1" ~behavior:"acc" ~n_out:1 [ x ] in
  let c2 = B.call b ~label:"c2" ~behavior:"acc" ~n_out:1 [ c1.(0) ] in
  B.output b ~label:"o" c2.(0);
  let d = diff_small "delay in part" ~registry (B.finish b) in
  checkb "restarts each invocation" true (outputs d [ [| 1 |]; [| 2 |] ] = [ [ 15 ]; [ 16 ] ])

(* Two levels of module nesting: top calls outer, outer calls inner. *)
let test_two_level_nesting () =
  let registry = Registry.create () in
  let inner =
    let b = B.create "inner" in
    let p = B.input b "p" and q = B.input b "q" in
    B.output b ~label:"y" (B.op b ~label:"m" Op.Mult [ p; q ]);
    B.finish b
  in
  Registry.register registry "inner" inner;
  let outer =
    let b = B.create "outer" in
    let a = B.input b "a" and x = B.input b "b" and c = B.input b "c" in
    let m1 = B.call b ~label:"i1" ~behavior:"inner" ~n_out:1 [ a; x ] in
    let m2 = B.call b ~label:"i2" ~behavior:"inner" ~n_out:1 [ x; c ] in
    B.output b ~label:"y" (B.op b ~label:"s" Op.Add [ m1.(0); m2.(0) ]);
    B.finish b
  in
  Registry.register registry "outer" outer;
  let b = B.create "top" in
  let x = B.input b "x" and y = B.input b "y" and z = B.input b "z" in
  let o = B.call b ~label:"o1" ~behavior:"outer" ~n_out:1 [ x; y; z ] in
  B.output b ~label:"r" o.(0);
  let d = diff_small "two-level nesting" ~registry (B.finish b) in
  checkb "a*b + b*c" true (outputs d [ [| 2; 3; 4 |] ] = [ [ 18 ] ])

(* A call with two outputs writes both destination values. *)
let test_two_output_call () =
  let registry = Registry.create () in
  let sd =
    let b = B.create "sumdiff" in
    let p = B.input b "p" and q = B.input b "q" in
    B.output b ~label:"s" (B.op b ~label:"a" Op.Add [ p; q ]);
    B.output b ~label:"d" (B.op b ~label:"m" Op.Sub [ p; q ]);
    B.finish b
  in
  Registry.register registry "sumdiff" sd;
  let b = B.create "top" in
  let x = B.input b "x" and y = B.input b "y" in
  let r = B.call b ~label:"c" ~behavior:"sumdiff" ~n_out:2 [ x; y ] in
  B.output b ~label:"o0" r.(0);
  B.output b ~label:"o1" (B.op b ~label:"n" Op.Neg [ r.(1) ]);
  let d = diff_small "two-output call" ~registry (B.finish b) in
  checkb "sum and negated difference" true (outputs d [ [| 9; 4 |] ] = [ [ 13; 0xffff - 4 ] ])

let test_input_width_mismatch () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let e = Invalid_argument "Sim: input vector width mismatch" in
  Alcotest.check_raises "compiled" e (fun () -> ignore (Sim.run d [ [| 1; 2; 3; 4 |]; [| 1 |] ]));
  Alcotest.check_raises "reference" e (fun () -> ignore (Ref_power.run d [ [| 1; 2; 3; 4 |]; [| 1 |] ]))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "power_diff"
    [
      ( "sim edges",
        [
          tc "top-level delay chain" test_delay_chain;
          tc "delay inside a module part" test_delay_in_part;
          tc "two-level module nesting" test_two_level_nesting;
          tc "call with two outputs" test_two_output_call;
          tc "input width mismatch" test_input_width_mismatch;
        ] );
      ("synthesis", [ Alcotest.test_case "table-4 final designs" `Slow test_final_designs ]);
    ]

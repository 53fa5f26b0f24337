(* Differential tests: the event-driven scheduler kernel must be
   bit-identical to the time-stepped reference kernel
   ([Hsyn_fuzz.Ref_sched]). Every built-in benchmark is scheduled at
   several deadlines and under several technology contexts, the winners
   of full synthesis runs are re-checked against the reference, and
   ALAP is checked against ASAP. *)

module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched
module Ref_sched = Hsyn_fuzz.Ref_sched
module Dfg = Hsyn_dfg.Dfg
module Cost = Hsyn_core.Cost
module Clib = Hsyn_core.Clib
module S = Hsyn_core.Synthesize
module Suite = Hsyn_benchmarks.Suite
module Library = Hsyn_modlib.Library
module Op = Hsyn_dfg.Op
module B = Hsyn_dfg.Dfg.Builder

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let lib = Library.default

let check_same_schedule what (a : Sched.schedule) (b : Sched.schedule) =
  checkb (what ^ ": feasible") a.Sched.feasible b.Sched.feasible;
  checki (what ^ ": makespan") a.Sched.makespan b.Sched.makespan;
  checkb (what ^ ": start") true (a.Sched.start = b.Sched.start);
  checkb (what ^ ": avail") true (a.Sched.avail = b.Sched.avail)

(* Schedule one design under both kernels and the given constraints,
   and demand field-by-field equality. The event kernel is exercised
   both with and without an explicitly prepared context. *)
let diff_cs what ctx cs d =
  let reference = Ref_sched.schedule ctx cs d in
  let event = Sched.schedule ctx cs d in
  let prepared = Sched.prepared_for d.Design.dfg in
  let event_p = Sched.schedule ~prepared ctx cs d in
  check_same_schedule (what ^ " event") event reference;
  check_same_schedule (what ^ " event+prepared") event_p reference;
  reference

let diff_schedule what ctx d ~deadline = diff_cs what ctx (Sched.relaxed ~deadline d.Design.dfg) d

(* The relaxed schedule, then the same at its own makespan and one
   cycle under it. *)
let diff_ladder what ctx d =
  let r = diff_schedule what ctx d ~deadline:1_000 in
  ignore (diff_schedule (what ^ " tight") ctx d ~deadline:(max 1 r.Sched.makespan));
  ignore (diff_schedule (what ^ " infeasible") ctx d ~deadline:(max 1 (r.Sched.makespan - 1)));
  r

let value_of g label = Design.value_index g { Dfg.node = Tu.node_id g label; out = 0 }

(* Every built-in benchmark, three deadlines (relaxed, exactly the
   relaxed makespan, and one cycle tighter — usually infeasible), two
   technology contexts. *)
let test_suite_schedules () =
  List.iter
    (fun (b : Suite.t) ->
      List.iter
        (fun (vdd, clk_ns) ->
          let ctx = { Design.lib; vdd; clk_ns } in
          let d = Tu.initial ~registry:b.Suite.registry ctx b.Suite.dfg in
          let what = Printf.sprintf "%s@%.1fV" b.Suite.name vdd in
          let relaxed = diff_schedule what ctx d ~deadline:1_000 in
          checkb (what ^ ": relaxed feasible") true relaxed.Sched.feasible;
          let m = relaxed.Sched.makespan in
          ignore (diff_schedule (what ^ " tight") ctx d ~deadline:(max 1 m));
          ignore (diff_schedule (what ^ " infeasible") ctx d ~deadline:(max 1 (m - 1))))
        [ (5.0, 20.0); (3.3, 34.0) ])
    (Suite.all ())

(* Two equal-priority jobs competing for one adder: the tie goes to the
   lower job index, so [s1] starts at 0 and [s2] at 1 under both
   kernels. The suite graphs never pose this tie on one instance. *)
let test_equal_priority_tie_break () =
  let ctx = Tu.ctx () in
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let d = Design.compact (Design.with_binding d (Tu.node_id g "s2") (Tu.inst_of d "s1")) in
  let event = Sched.schedule ctx (Sched.relaxed ~deadline:1_000 g) d in
  checki "event: s1 first" 0 event.Sched.start.(Tu.node_id g "s1");
  checki "event: s2 waits for the adder" 1 event.Sched.start.(Tu.node_id g "s2");
  ignore (diff_schedule "shared adder" ctx d ~deadline:1_000)

(* Forcing s1 and s2 of (a+b)*(c+d) into one register orders s2's
   write after m's read of s1, while m needs s2: a cycle, so the kernel
   deadlocks once s1 has fired. Both kernels must return the same
   infeasible record: no start, s1 available, makespan at the bound
   (busy 1+1+3, plus 3 per job, plus 4). *)
let test_register_deadlock () =
  let ctx = Tu.ctx () in
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let d = Design.with_value_reg d (value_of g "s2") d.Design.value_reg.(value_of g "s1") in
  let r = diff_schedule "register deadlock" ctx d ~deadline:1_000 in
  checkb "infeasible" false r.Sched.feasible;
  checkb "nothing started" true (Array.for_all (fun s -> s = -1) r.Sched.start);
  checki "s1 fired before the deadlock" 1 r.Sched.avail.(value_of g "s1");
  checki "s2 never written" (-1) r.Sched.avail.(value_of g "s2");
  checki "makespan is the bound" 18 r.Sched.makespan

(* Chaining units: one job with several members, alone and next to a
   plain adder, and with a member's result sharing a register. *)
let test_chain_jobs () =
  let ctx = Tu.ctx () in
  let g = Tu.add_chain_graph () in
  let on_chain name labels =
    let d = Tu.initial ctx g in
    let d, inst = Design.add_inst d (Design.Simple (Library.find_exn lib name)) in
    let d =
      List.fold_left (fun acc l -> Design.with_binding acc (Tu.node_id g l) inst) d labels
    in
    Design.compact d
  in
  let r3 = diff_ladder "chained_add3" ctx (on_chain "chained_add3" [ "s1"; "s2"; "s3" ]) in
  checki "chained_add3: one cycle" 1 r3.Sched.makespan;
  let d2 = on_chain "chained_add2" [ "s1"; "s2" ] in
  let r2 = diff_ladder "chained_add2" ctx d2 in
  checki "chained_add2: members share a start" r2.Sched.start.(Tu.node_id g "s1")
    r2.Sched.start.(Tu.node_id g "s2");
  let shared = Design.with_value_reg d2 (value_of g "s3") d2.Design.value_reg.(value_of g "s1") in
  ignore (diff_ladder "chained_add2, s3 in s1's register" ctx shared)

(* Two multiplications on one pipelined multiplier: the instance is
   held one cycle, not the unit's latency. *)
let test_pipelined_shared () =
  let ctx = Tu.ctx () in
  let b = B.create "pipe" in
  let a = B.input b "a" and x = B.input b "b" in
  let c = B.input b "c" and y = B.input b "d" in
  let m1 = B.op b ~label:"m1" Op.Mult [ a; x ] in
  let m2 = B.op b ~label:"m2" Op.Mult [ c; y ] in
  B.output b (B.op b ~label:"s" Op.Add [ m1; m2 ]);
  let g = B.finish b in
  let d = Tu.initial ctx g in
  let i1 = Tu.inst_of d "m1" in
  let d = Design.with_inst d i1 (Design.Simple (Library.find_exn lib "mult_pipe")) in
  let d = Design.compact (Design.with_binding d (Tu.node_id g "m2") i1) in
  let r = diff_ladder "mult_pipe" ctx d in
  checki "initiation interval 1" 1
    (abs (r.Sched.start.(Tu.node_id g "m1") - r.Sched.start.(Tu.node_id g "m2")))

(* A module design (two multiply-accumulate calls, separate and on one
   shared instance) under input arrivals, then with each output due
   exactly when the reference consumes it and one cycle earlier. The
   mac profile needs its third input 3 cycles after its start, so the
   need offsets of module jobs are exercised. *)
let test_module_constraints () =
  let ctx = Tu.ctx () in
  let registry, g = Tu.hier_graph () in
  let d = Tu.initial ~registry ctx g in
  (match d.Design.insts.(Tu.inst_of d "c1") with
  | Design.Module rm ->
      checki "mac needs r late" 3 (Sched.module_profile ctx rm "mac").Sched.in_need.(2)
  | Design.Simple _ -> Alcotest.fail "c1 is not on a module");
  let shared = Design.compact (Design.with_binding d (Tu.node_id g "c2") (Tu.inst_of d "c1")) in
  List.iter
    (fun (what, d) ->
      let arrivals = { (Sched.relaxed ~deadline:1_000 g) with Sched.input_arrival = [| 1; 0; 2 |] } in
      let r = diff_cs (what ^ " arrivals") ctx arrivals d in
      checkb (what ^ ": feasible") true r.Sched.feasible;
      let consumed = r.Sched.avail.(value_of g "c2") in
      let due slack =
        { arrivals with Sched.output_deadline = Some [| consumed - slack |]; deadline = r.Sched.makespan }
      in
      checkb (what ^ ": met") true (diff_cs (what ^ " due") ctx (due 0) d).Sched.feasible;
      checkb (what ^ ": missed") false (diff_cs (what ^ " due - 1") ctx (due 1) d).Sched.feasible)
    [ ("separate", d); ("shared", shared) ]

(* A module job reads its third input 3 cycles after its start; an
   add whose result takes over that input's register must write after
   the read, so it starts 3 cycles after the call instead of at 0. *)
let test_module_read_orders_write () =
  let ctx = Tu.ctx () in
  let registry, _ = Tu.hier_graph () in
  let b = B.create "mac_and_add" in
  let x = B.input b "x" and y = B.input b "y" and z = B.input b "z" in
  let c1 = B.call b ~label:"c1" ~behavior:"mac" ~n_out:1 [ x; y; z ] in
  B.output b ~label:"o1" c1.(0);
  B.output b ~label:"o2" (B.op b ~label:"s" Op.Add [ x; y ]);
  let g = B.finish b in
  let d = Tu.initial ~registry ctx g in
  let z = Design.value_index g { Dfg.node = g.Dfg.inputs.(2); out = 0 } in
  let d = Design.with_value_reg d (value_of g "s") d.Design.value_reg.(z) in
  let r = diff_ladder "mac read" ctx d in
  checki "call starts at 0" 0 r.Sched.start.(Tu.node_id g "c1");
  checki "s writes after the call reads z" 3 r.Sched.start.(Tu.node_id g "s")

(* Two adds on separate adders whose results share one register, each
   read only by an Output: the Output reads the first result when it
   becomes available, so the second add may write one cycle later at
   the earliest instead of alongside the first. *)
let test_output_read_orders_write () =
  let ctx = Tu.ctx () in
  let b = B.create "two_outputs" in
  let a = B.input b "a" and x = B.input b "x" and y = B.input b "y" in
  B.output b ~label:"ys" (B.op b ~label:"s" Op.Add [ x; y ]);
  B.output b ~label:"yt" (B.op b ~label:"t" Op.Add [ a; x ]);
  let g = B.finish b in
  let d = Tu.initial ctx g in
  let d = Design.with_value_reg d (value_of g "t") d.Design.value_reg.(value_of g "s") in
  let r = diff_ladder "output read" ctx d in
  checki "one write a cycle after the other" 1
    (abs (r.Sched.start.(Tu.node_id g "s") - r.Sched.start.(Tu.node_id g "t")))

(* An input value shares a register with an op result while an Output
   (or a Delay) reads it at its arrival: the op may only write the
   register after that read, a static bound on its start. *)
let test_input_register_read_bound () =
  let ctx = Tu.ctx () in
  let check_bound what g =
    let d = Tu.initial ctx g in
    let d = Design.with_value_reg d (value_of g "s") d.Design.value_reg.(value_of g "a") in
    let cs = { (Sched.relaxed ~deadline:1_000 g) with Sched.input_arrival = [| 4; 0; 0 |] } in
    let r = diff_cs what ctx cs d in
    checkb (what ^ ": feasible") true r.Sched.feasible;
    (* written at start + 1, strictly after the read at cycle 4 *)
    checki (what ^ ": s waits for the read") 4 r.Sched.start.(Tu.node_id g "s")
  in
  let b = B.create "read_out" in
  let a = B.input b "a" and x = B.input b "x" and y = B.input b "y" in
  B.output b ~label:"ya" a;
  B.output b ~label:"ys" (B.op b ~label:"s" Op.Add [ x; y ]);
  check_bound "output reads a" (B.finish b);
  let b = B.create "read_delay" in
  let a = B.input b "a" and x = B.input b "x" and y = B.input b "y" in
  let z = B.delay b ~label:"z" a in
  B.output b ~label:"ys" (B.op b ~label:"s" Op.Add [ x; y ]);
  B.output b ~label:"yz" z;
  check_bound "delay reads a" (B.finish b)

(* ALAP must never start a node before its ASAP slot, and must agree
   with ASAP on which nodes execute. *)
let test_alap_vs_asap () =
  List.iter
    (fun (b : Suite.t) ->
      let ctx = Tu.ctx () in
      let d = Tu.initial ~registry:b.Suite.registry ctx b.Suite.dfg in
      let sch = Sched.schedule ctx (Sched.relaxed ~deadline:1_000 d.Design.dfg) d in
      checkb (b.Suite.name ^ ": feasible") true sch.Sched.feasible;
      let alap = Sched.alap_start ctx ~deadline:sch.Sched.makespan d in
      Array.iteri
        (fun n a ->
          let s = sch.Sched.start.(n) in
          checkb
            (Printf.sprintf "%s: node %d executes in both" b.Suite.name n)
            (s >= 0) (a >= 0);
          if s >= 0 then
            checkb (Printf.sprintf "%s: alap(%d) >= asap(%d)" b.Suite.name n n) true (a >= s))
        alap)
    (Suite.all ())

(* The winner of a full synthesis run — a design shaped by every move
   family, with nested complex modules — must schedule identically
   under both kernels at its own deadline. The config is small so the
   whole matrix runs in seconds. *)
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

let synth (b : Suite.t) objective =
  let min_ns = S.min_sampling_ns lib b.Suite.registry b.Suite.dfg in
  match
    Result.bind
      (S.Request.make ~config ~lib ~registry:b.Suite.registry ~dfg:b.Suite.dfg ~objective
         ~sampling_ns:(2.2 *. min_ns) ())
      S.synthesize
  with
  | Ok r -> r
  | Error msg -> Alcotest.failf "synthesis of %s failed: %s" b.Suite.name msg

let test_synthesis_equivalence () =
  List.iter
    (fun (b : Suite.t) ->
      List.iter
        (fun objective ->
          let what = Printf.sprintf "%s/%s" b.Suite.name (Cost.objective_name objective) in
          let r = synth b objective in
          let winner =
            diff_schedule (what ^ " winner") r.S.ctx r.S.design ~deadline:r.S.deadline_cycles
          in
          checkb (what ^ ": winner feasible") true winner.Sched.feasible;
          checki (what ^ ": winner makespan") r.S.eval.Cost.makespan winner.Sched.makespan)
        [ Cost.Area; Cost.Power ])
    [ Suite.test1 (); Suite.hier_paulin () ]

(* The kernel counters see every production scheduling call and none
   of the reference kernel's. *)
let test_stats_accounting () =
  let b = Suite.test1 () in
  let ctx = Tu.ctx () in
  let d = Tu.initial ~registry:b.Suite.registry ctx b.Suite.dfg in
  let cs = Sched.relaxed ~deadline:1_000 d.Design.dfg in
  let before = Sched.stats () in
  ignore (Sched.schedule ctx cs d);
  let delta = Sched.sub_stats (Sched.stats ()) before in
  checkb "schedules counted" true (delta.Sched.schedules >= 1);
  checkb "events popped" true (delta.Sched.events_popped > 0);
  let before = Sched.stats () in
  ignore (Ref_sched.schedule ctx cs d);
  checkb "reference kernel uncounted" true
    (Sched.sub_stats (Sched.stats ()) before = Sched.zero_stats)

let () =
  Alcotest.run "sched_diff"
    [
      ( "differential",
        [
          Alcotest.test_case "suite schedules" `Quick test_suite_schedules;
          Alcotest.test_case "alap vs asap" `Quick test_alap_vs_asap;
          Alcotest.test_case "equal-priority tie break" `Quick test_equal_priority_tie_break;
          Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
          Alcotest.test_case "register deadlock" `Quick test_register_deadlock;
          Alcotest.test_case "chain jobs" `Quick test_chain_jobs;
          Alcotest.test_case "pipelined shared unit" `Quick test_pipelined_shared;
          Alcotest.test_case "module arrivals and deadlines" `Quick test_module_constraints;
          Alcotest.test_case "input register read bound" `Quick test_input_register_read_bound;
          Alcotest.test_case "module read orders a write" `Quick test_module_read_orders_write;
          Alcotest.test_case "output read orders a write" `Quick test_output_read_orders_write;
        ] );
      ( "synthesis",
        [ Alcotest.test_case "end to end equivalence" `Slow test_synthesis_equivalence ] );
    ]

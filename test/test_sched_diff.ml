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

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let lib = Library.default

let check_same_schedule what (a : Sched.schedule) (b : Sched.schedule) =
  checkb (what ^ ": feasible") a.Sched.feasible b.Sched.feasible;
  checki (what ^ ": makespan") a.Sched.makespan b.Sched.makespan;
  checkb (what ^ ": start") true (a.Sched.start = b.Sched.start);
  checkb (what ^ ": avail") true (a.Sched.avail = b.Sched.avail)

(* Schedule one design under both kernels at a given deadline and
   context, and demand field-by-field equality. The event kernel is
   exercised both with and without an explicitly prepared context. *)
let diff_schedule what ctx d ~deadline =
  let cs = Sched.relaxed ~deadline d.Design.dfg in
  let reference = Ref_sched.schedule ctx cs d in
  let event = Sched.schedule ctx cs d in
  let prepared = Sched.prepared_for d.Design.dfg in
  let event_p = Sched.schedule ~prepared ctx cs d in
  check_same_schedule (what ^ " event") event reference;
  check_same_schedule (what ^ " event+prepared") event_p reference;
  reference

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
        ] );
      ( "synthesis",
        [ Alcotest.test_case "end to end equivalence" `Slow test_synthesis_equivalence ] );
    ]

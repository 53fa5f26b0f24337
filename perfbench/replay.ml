(* Layer replay: time single calls into each evaluation layer on the
   final designs of a workload, from outside the program. The engine's
   batch span holds the area model, fingerprinting, cost-cache work and
   lazy candidate generation in one opaque self time; the per-call costs
   measured here, multiplied by each request's counters, split it. The
   split is a model: the search also evaluates module parts and
   candidates smaller or larger than the final design. *)

module Design = Hsyn_rtl.Design
module Dfg = Hsyn_dfg.Dfg
module Sched = Hsyn_sched.Sched
module Area = Hsyn_eval.Area
module Power = Hsyn_eval.Power
module Sim = Hsyn_eval.Sim
module Trace = Hsyn_eval.Trace
module Rng = Hsyn_util.Rng
module S = Hsyn_core.Synthesize

let layers = [ "sched"; "area"; "sim"; "power"; "fingerprint" ]
let min_window_s = 0.01

(* Microseconds per call of [f], over a doubling number of calls until
   one timing window is at least [min_window_s] long. *)
let us_per_call f =
  let rec go reps =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= min_window_s || reps >= 1 lsl 20 then dt /. Float.of_int reps *. 1e6 else go (reps * 2)
  in
  go 1

(* The evaluation context the sweep used for the winning design: same
   trace (the config seed drawn for the context), relaxed constraints at
   its deadline, and a scheduler cache warmed by one call per layer. *)
let calls (config : S.config) (r : S.result) =
  let design = r.S.design and ctx = r.S.ctx in
  let dfg = design.Design.dfg in
  let trace =
    Trace.generate (Rng.create config.S.seed) config.S.trace_kind
      ~n_inputs:(Array.length dfg.Dfg.inputs) ~length:config.S.trace_length
  in
  let cs = Sched.relaxed ~deadline:r.S.deadline_cycles dfg in
  let cache = Sched.Cache.create () in
  let n_states = max 1 (Sched.schedule ~cache ctx cs design).Sched.makespan in
  [
    ("sched", fun () -> ignore (Sched.schedule ~cache ctx cs design));
    ("area", fun () -> ignore (Area.total ~sched_cache:cache ctx design ~n_states));
    ("sim", fun () -> ignore (Sim.run design trace));
    ("power", fun () -> ignore (Power.energy_per_sample ~sched_cache:cache ctx cs design trace));
    ("fingerprint", fun () -> ignore (Design.fingerprint design));
  ]

(* µs per call of each layer, in [layers] order, after one warm-up
   call of each. *)
let design_us config r =
  let cs = calls config r in
  List.iter (fun (_, f) -> f ()) cs;
  List.map (fun (name, f) -> (name, us_per_call f)) cs

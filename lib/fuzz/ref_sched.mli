(** Reference scheduler for differential testing.

    The original time-stepped list-scheduling kernel, kept outside the
    production scheduler as the independent implementation that
    {!Hsyn_sched.Sched.schedule} (the event-driven kernel) must match
    bit for bit: same start cycles, value availabilities, makespan and
    feasibility. It scans every job at every cycle, so it is slow; it
    is only run by the [sched-diff] and [engine-direct] fuzz oracles
    and the scheduler tests. Module profiles are derived by this
    kernel and memoized per call, never shared with the production
    scheduler's caches. *)

val schedule :
  Hsyn_rtl.Design.ctx ->
  Hsyn_sched.Sched.constraints ->
  Hsyn_rtl.Design.t ->
  Hsyn_sched.Sched.schedule
(** Same contract as {!Hsyn_sched.Sched.schedule}.
    @raise Invalid_argument if the binding leaves an operation
    unbound. *)

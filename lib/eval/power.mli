(** Switched-capacitance power estimation.

    Replaces the paper's IRSIM switch-level measurement (see
    DESIGN.md) with the module-level model its own cost function uses
    (refs [8]/[10]): every resource charges its effective capacitance
    times the Hamming activity of the data it processes, in the order
    the schedule processes it. Consequently sharing a unit between
    two uncorrelated computations raises its activity — the effect
    that makes resource sharing/splitting (moves C/D) power-relevant.

    Accounted components: functional-unit activations (operand-tuple
    transitions per instance, in scheduled order), nested RTL modules
    (recursively, over the merged invocation streams of all calls
    bound to them), register writes, multiplexer and wire transfers,
    and the controller's per-cycle overhead. Energies are in
    capacitance units; multiply by [Voltage.energy_factor] and divide
    by the sampling period for power.

    One estimate simulates the trace once ({!Sim.run}), builds an
    activity plan of the (design, schedule) — per port the value ids
    it sees in activation order, per register its writes in
    availability order — and sums integer Hamming distances over the
    value streams. The list-based implementation this replaced is kept
    as [Hsyn_fuzz.Ref_power]; results are bit-identical. *)

module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched

val energy_per_sample :
  ?sched_cache:Sched.Cache.t ->
  ?schedule:Sched.schedule ->
  Design.ctx ->
  Sched.constraints ->
  Design.t ->
  int array list ->
  float
(** Average switched capacitance per design invocation over the given
    trace (raw cap units, no voltage scaling). The estimate needs the
    design's schedule: pass [?schedule] when the caller already has
    [Sched.schedule ctx cs design] (the cost oracle hands over its
    stage-1 schedule), otherwise it is computed here. Module parts use
    the schedules their profiles came from ({!Sched.module_schedule}).
    [?sched_cache] memoizes that work across calls — without it a
    transient cache scoped to this call is used. *)

val power :
  ?sched_cache:Sched.Cache.t ->
  Design.ctx ->
  Sched.constraints ->
  Design.t ->
  int array list ->
  sampling_ns:float ->
  float
(** [energy_per_sample · V²-factor / sampling period] — normalized
    power at the context's supply voltage. *)

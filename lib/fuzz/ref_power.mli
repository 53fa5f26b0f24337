(** Reference behavioral simulator and power model.

    The list-based implementations that {!Hsyn_eval.Sim} and
    {!Hsyn_eval.Power} replaced, unchanged. Production results must be
    bit-identical to these on every design and trace; the [power-diff]
    fuzz oracle and [test_power_diff] check that. The reference
    schedules the design and every module part itself. *)

module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched

val run : Design.t -> int array list -> int array array
(** Same contract as {!Hsyn_eval.Sim.run}. *)

val outputs : Design.t -> int array array -> int array list
(** Same contract as {!Hsyn_eval.Sim.outputs}. *)

val energy_per_sample :
  ?sched_cache:Sched.Cache.t ->
  Design.ctx ->
  Sched.constraints ->
  Design.t ->
  int array list ->
  float
(** Same contract as {!Hsyn_eval.Power.energy_per_sample}. *)

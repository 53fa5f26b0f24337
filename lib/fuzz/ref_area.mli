(** Reference area model.

    The string-keyed steering count that {!Hsyn_eval.Area} replaced,
    unchanged: one named net per distinct (source, sink) pair, sources
    and register writers deduplicated with polymorphic list
    membership. Production breakdowns must be bit-identical to these
    on every design and module; the [area-diff] fuzz oracle and
    [test_area_diff] check that. *)

module Design = Hsyn_rtl.Design
module Area = Hsyn_eval.Area

val datapath : ?sched_cache:Hsyn_sched.Sched.Cache.t -> Design.ctx -> Design.t -> Area.breakdown
(** Same contract as {!Hsyn_eval.Area.datapath}. *)

val total :
  ?sched_cache:Hsyn_sched.Sched.Cache.t -> Design.ctx -> Design.t -> n_states:int -> Area.breakdown
(** Same contract as {!Hsyn_eval.Area.total}. *)

val module_area : ?sched_cache:Hsyn_sched.Sched.Cache.t -> Design.ctx -> Design.rtl_module -> float
(** Same contract as {!Hsyn_eval.Area.module_area}, except that a
    module with no parts fails with [Failure "hd"]. *)

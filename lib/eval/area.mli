(** Analytical RTL area model.

    Replaces the paper's SIS + OCTTOOLS layout flow (see DESIGN.md).
    Area = functional units + registers + multiplexing (one increment
    per steered source beyond the first on any functional-unit input
    port or register input) + interconnect (per distinct point-to-point
    net) + controller (per FSM state). Nested RTL modules contribute
    their shared datapath once, with steering counted over the union
    of all behaviors mapped to them — which is precisely what makes
    RTL embedding (merging two modules) cheaper than keeping both.

    The steering terms are integer counts. Each multiplexed input is a
    list of distinct sources: those of one (instance, port key), or
    the writers of one register, unioned over every design sharing the
    resource set. With [n] the length of such a list,
    - mux inputs = Σ (n − 1),
    - nets = Σ n,
    because a net is one distinct (source, sink) pair and no two lists
    share a sink. [muxes], [wires] and [registers] are these counts
    times library constants and [units] folds the instances in index
    order, so every breakdown field equals, bit for bit, that of the
    string-keyed reference model ([Hsyn_fuzz.Ref_area]). *)

module Design = Hsyn_rtl.Design

type source = Reg of int | Const_wire of int | Direct of int * int
(** What a functional-unit input port is steered from: a register, a
    hardwired constant, or an unregistered unit output. *)

val source_of_value : Design.t -> Hsyn_dfg.Dfg.port -> source

val port_feeds : Design.t -> int -> (int * Hsyn_dfg.Dfg.port) list
(** The (stable port key, feeding value) pairs of an instance, over
    every node bound to it — the basis for mux-area counting; {!Power}
    keys its per-port activity streams the same way. Chain groups
    flatten their external inputs in member order. *)

type breakdown = {
  units : float;
  registers : float;
  muxes : float;
  wires : float;
  controller : float;
}

val grand_total : breakdown -> float

val datapath : ?sched_cache:Hsyn_sched.Sched.Cache.t -> Design.ctx -> Design.t -> breakdown
(** Area of the design's datapath (controller field 0; add it with
    {!total} once the schedule length is known). Recurses into module
    instances. Module controllers need module profiles, so a scheduler
    cache can be supplied for memoization across calls; without one a
    transient cache scoped to this call is used.
    @raise Invalid_argument ["Area: module <name> has no parts"] when
    a module instance, at any depth, has an empty [parts] list. *)

val total :
  ?sched_cache:Hsyn_sched.Sched.Cache.t -> Design.ctx -> Design.t -> n_states:int -> breakdown
(** [datapath] plus the top-level controller ([n_states] is the
    schedule makespan). *)

val module_area : ?sched_cache:Hsyn_sched.Sched.Cache.t -> Design.ctx -> Design.rtl_module -> float
(** Area of one complex RTL module: shared units and registers,
    steering unioned over all behaviors, plus its internal controller
    (one state per cycle of each behavior's schedule).
    @raise Invalid_argument as {!datapath} does, also for [rm] itself. *)

val pp_breakdown : Format.formatter -> breakdown -> unit

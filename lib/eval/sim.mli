(** Behavioral simulation of bound designs.

    Evaluates a design's DFG on an input trace, producing the stream of
    every value in the graph — the raw material for switched-capacitance
    power estimation. Hierarchical nodes are evaluated through the RTL
    module implementation they are bound to (i.e. the variant the
    synthesizer actually selected), so a move of type A that swaps a
    functionally equivalent variant keeps the simulated function
    identical while changing internal activity.

    Top-level [Delay] nodes carry state across samples. Behaviors used
    inside RTL modules are expected to be stateless (delays at the top
    level — see DESIGN.md); a delay inside a module part restarts from
    its initial value at every invocation.

    Each run compiles the design once (every module part once) into
    flat instruction arrays over value ids, then executes them per
    sample; the reference list-based simulator lives in
    [Hsyn_fuzz.Ref_power] and must agree bit for bit. *)

module Design = Hsyn_rtl.Design
module Dfg = Hsyn_dfg.Dfg

val run : ?cache:Hsyn_sched.Sched.Cache.t -> Design.t -> int array list -> int array array
(** [run design invocations] evaluates one design invocation per input
    vector, returning [streams] with [streams.(s).(v)] the value with
    id [v] (see {!Design.value_index}) at sample [s]. Delay state
    persists across the samples of the list. Value numbering and
    topological order come from the graphs' prepared scheduling
    contexts, looked up in [?cache] (built afresh without one).
    @raise Invalid_argument if an input vector's width differs from
    the DFG's input arity. *)

val outputs : Design.t -> int array array -> int array list
(** Extract the per-sample primary-output vectors from [run]'s
    result. *)

val run_flat : Dfg.t -> int array list -> int array list
(** Reference semantics: evaluate a flat (call-free) DFG directly,
    returning output vectors. Used by tests to check that synthesized
    designs compute the same function as the flattened behavior. *)

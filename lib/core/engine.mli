(** The candidate-evaluation engine of the move loop.

    Every cost query of the iterative-improvement engine — single
    evaluations in {!Pass} and batch best-candidate selection in
    {!Moves} — goes through an [Engine.t] instead of calling
    {!Cost.evaluate} directly. The engine layers three mechanisms on
    the same cost oracle, all of them result-preserving:

    - {b memoization} — a structural fingerprint of the design
      ({!Hsyn_rtl.Design.fingerprint}) keys a bounded cost cache, so
      candidates re-generated across passes and across the A/B/C/D
      move families are never re-scheduled or re-simulated. Hits are
      verified by structural equality, making collisions harmless.
    - {b two-stage evaluation} — scheduling feasibility and area are
      computed first ({!Cost.schedule_stage}); the trace simulation
      ({!Cost.power_stage}) runs only in power mode, and only for
      feasible candidates. Area searches never simulate.
    - {b parallel batches} — stage-one and stage-two evaluations of a
      candidate batch run on a fixed {!Hsyn_util.Pool} of domains,
      sized by [HSYN_JOBS] / [--jobs], falling back to plain
      sequential evaluation at [jobs = 1].

    Results are bit-identical to direct {!Cost.evaluate} calls and
    independent of the pool size; per-family counters make the cache
    behavior observable ([hsyn synth --stats], the bench harness
    JSON). *)

module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched

type counters = Session.counters = {
  generated : int;  (** candidates pulled from the move generators *)
  evaluated : int;  (** schedule+area stages actually computed *)
  cache_hits : int;
  cache_misses : int;
  evictions : int;  (** cache entries dropped to respect capacity *)
  power_sims : int;  (** trace simulations actually run *)
  power_skipped : int;  (** always 0, see {!Session.counters} *)
  batches : int;  (** [best_of] calls *)
  disk_hits : int;  (** cache hits served by persisted entries ([Session.load_into]) *)
  wall_s : float;  (** wall time spent inside the engine *)
}

val zero : counters
val add : counters -> counters -> counters
val sub : counters -> counters -> counters
(** Fieldwise difference — [sub after before] is the delta of an
    interval, used to attribute engine work to one improvement run. *)

val pp_counters : Format.formatter -> counters -> unit
(** One-line summary incl. hit rate. *)

type policy = {
  jobs : int;  (** parallelism degree; 1 = sequential, no domains *)
  cache_capacity : int;  (** max memoized designs; 0 disables the cache *)
}

val default_policy : policy
(** [jobs] from [HSYN_JOBS] (default 1), capacity 4096. *)

type t

val create :
  ?policy:policy ->
  ?session:Session.t ->
  ?token:Budget.token ->
  ctx:Design.ctx ->
  cs:Sched.constraints ->
  sampling_ns:float ->
  trace:int array list ->
  objective:Cost.objective ->
  unit ->
  t
(** An engine is bound to one evaluation context — the technology
    context, constraints, sampling period, input trace and objective
    fixed for one improvement run — and borrows its caches from
    [session] (a fresh private session when omitted). The session's
    cost cache is partitioned by the evaluation context, so engines
    with different contexts sharing a session can never alias, and
    results are bit-identical whether the session is fresh or shared
    (see {!Session}).

    When a budget [token] is given, {!best_of} polls it for {e hard}
    interruptions (deadline, cancellation) at the start of a batch
    and inside worker tasks, raising {!Budget.Interrupted} — quotas
    are never consulted here, so quota-limited runs stay
    deterministic. An interrupted batch leaves no worker domain stuck
    and no partial result visible. *)

val session : t -> Session.t
(** The session this engine was created against. *)

val objective : t -> Cost.objective

val ctx : t -> Design.ctx
val constraints : t -> Sched.constraints
val trace : t -> int array list
(** The evaluation context the engine was created with. Move
    generators read it from here, so an improvement run states it
    once. *)

val evaluate : t -> Design.t -> Cost.eval
(** Memoized equivalent of
    [Cost.evaluate ~with_power:(objective = Power)]. *)

val evaluate_with_power : t -> Design.t -> Cost.eval
(** Memoized equivalent of [Cost.evaluate ~with_power:true] regardless
    of the objective — for final result reporting. A cached area-only
    entry is upgraded in place (only the simulation runs). *)

val best_of :
  t ->
  ?family:('a -> string) ->
  limit:int ->
  ('a * Design.t) Seq.t ->
  ('a * Design.t * Cost.eval * float) option
(** Pull at most [limit] candidates from the (lazily produced)
    sequence, evaluate them — memoized, in parallel batches —
    and return the feasible candidate minimizing the objective, with
    its evaluation and objective value. Ties go to the earliest
    candidate, matching a sequential fold; the result does not depend
    on [jobs]. [family] labels candidates for per-move-family
    counters. *)

val counters : t -> counters
(** Snapshot of this engine's totals. *)

val family_counters : t -> (string * counters) list
(** Per-family snapshots, sorted by family name. *)

val cache_size : t -> int
(** Resident entries in this engine's context slice of the session
    cost cache (0 when the cache is disabled). *)

(** Engines are created at every level of the synthesis recursion
    (top-level improvement, complex-library construction, move-B
    resynthesis); the {!Session} they share aggregates counters across
    all of them for [--stats] reporting and the bench harness — there
    is no process-wide accounting anymore. *)

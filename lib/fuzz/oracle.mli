(** Differential oracles.

    Each oracle checks one equivalence the codebase promises — two
    implementations, or two paths through one implementation, that
    must agree bit-for-bit on every program. Oracles take the sample
    program plus a private {!Hsyn_util.Rng.t} (for traces, seeds and
    deadline jitter) so every failure is reproducible from the run's
    seed alone.

    The registered oracles:
    - [roundtrip] — [Text.to_string] then [parse_string] reproduces
      the program, for LF and CRLF line endings.
    - [sched-diff] — the production (event-driven) scheduler kernel
      and the time-stepped reference kernel {!Ref_sched} produce
      identical schedules, probed at a relaxed deadline, the exact
      makespan, and one cycle below it.
    - [engine-direct] — [Engine.evaluate] (fresh and cached) is
      bit-identical to direct [Cost.evaluate], and [Engine.best_of]
      agrees with a sequential fold, for both objectives.
    - [checkpoint-resume] — a sweep interrupted after one context and
      resumed from its checkpoint converges to the uninterrupted
      result.
    - [jobs] — synthesis results are independent of the engine's
      worker count, and [Pool.map_array] stays deterministic and
      usable across task exceptions.
    - [embed] — [Embed.merge_modules] preserves every constituent
      behavior's function (checked through [Sim]) and the
      shared-resource module invariants. Module {e profiles} may
      legitimately change (unit upgrades), so they are deliberately
      not compared.
    - [rewrite] — every algebraic rewrite candidate simulates
      bitwise-identically to its original graph.
    - [power-diff] — {!Hsyn_eval.Sim.run} value streams and
      {!Hsyn_eval.Power.energy_per_sample} (scheduling for itself, and
      through {!Hsyn_core.Cost.evaluate}'s schedule hand-off) are
      bit-identical to the reference {!Ref_power}, on the initial
      design, its candidate neighbourhood and a synthesized design.
    - [area-diff] — {!Hsyn_eval.Area.total} breakdowns (all five
      fields) and {!Hsyn_eval.Area.module_area} are bit-identical to
      the reference {!Ref_area}, on the initial design, its candidate
      neighbourhood, every module instance, modules merged by
      [Embed.merge_modules] and a synthesized design. *)

module Rng = Hsyn_util.Rng
module Text = Hsyn_dfg.Text

type t = {
  name : string;  (** stable identifier, usable with [hsyn fuzz --oracle] *)
  doc : string;  (** one-line description of the checked equivalence *)
  check : Rng.t -> Text.program -> (unit, string) result;
      (** [Error msg] describes the divergence; exceptions escaping
          [check] are treated as failures by the runner. *)
}

val all : t list
(** Every registered oracle, in stable order. *)

val find : string -> t option
val names : string list

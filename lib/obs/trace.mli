(** Span tracer: categorized begin/end spans and instant events in
    per-domain ring buffers, exported as Chrome/Perfetto trace-event
    JSON ([hsyn synth --trace out.trace.json]).

    {!span} is the permanent probe of the synthesis pipeline. With
    everything off it costs one atomic load. Armed, one pair of clock
    reads feeds a [stage.<name>] duration histogram in the metrics
    registry (the source of [hsyn synth --profile]) and — when tracing
    proper is on — a trace event under the recording domain's tid.

    Rings are bounded ({!set_capacity}, default 65536 events per
    domain); overflow overwrites the oldest events and is reported in
    the export's [otherData.dropped_events]. Collection ({!events},
    {!to_json}, {!write}) merges the rings sorted by timestamp and is
    exact once writers have quiesced. *)

module Json = Hsyn_util.Json

type category = Pass | Move | Schedule | Power | Embed | Checkpoint

val category_name : category -> string
(** Stable machine name, e.g. ["schedule"] — the [cat] field of the
    exported events. *)

type phase = Complete | Instant

type event = {
  ev_name : string;
  ev_cat : category;
  ev_phase : phase;
  ev_ts_us : float;  (** microseconds since process start *)
  ev_dur_us : float;  (** [Complete] spans only *)
  ev_tid : int;  (** the recording domain's id *)
  ev_scope : int;
      (** request id of the {!Scope} ambient on the recording domain at
          the moment of recording; [0] when unscoped (solo runs, pool
          workers) *)
}

val set_enabled : bool -> unit
val is_enabled : unit -> bool

val span : category -> string -> (unit -> 'a) -> 'a
(** [span cat name f] runs [f], recording its wall-clock duration to
    every armed consumer (also on exceptions). Safe from any domain. *)

val instant : category -> string -> unit
(** A zero-duration marker event; recorded only when tracing is on. *)

val set_capacity : int -> unit
(** Ring capacity for domains that have not recorded yet (min 16). *)

val events : unit -> event list
(** All retained events, merged across domains, ascending timestamp. *)

val scoped_events : int -> event list
(** {!events} restricted to one request id — the spans recorded on
    domains that carried that {!Scope} (the serve driver domain; pool
    workers record unscoped). *)

val render_tree : event list -> string
(** Human-readable indented span tree, grouped per domain, nesting
    recovered from interval containment — the [span_tree] payload of
    the serve daemon's slow-request log. *)

val dropped : unit -> int
(** Events lost to ring overflow since the last {!reset}. *)

val to_json : unit -> Json.t
(** [{"displayTimeUnit":"ms","traceEvents":[...],"otherData":{...}}] —
    loadable by Perfetto / chrome://tracing. Complete spans use
    [ph:"X"] with [ts]/[dur] in microseconds; instants use [ph:"i"].
    [pid] is the OS process, [tid] the OCaml domain. *)

val write : string -> unit
(** {!to_json} to a file. *)

val reset : unit -> unit
(** Drop all rings. Must not race active recording. *)

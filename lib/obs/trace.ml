(* Span tracer with Chrome/Perfetto trace-event export.

   [span] is the one probe embedded permanently in the pipeline's hot
   paths (scheduler prepare/schedule, power simulation, candidate
   batches, passes, contexts, embedding, checkpoints). Disabled — the
   default — it costs exactly one atomic load ({!Gate.armed}). Armed,
   it feeds up to two consumers from one clock read pair:

     - a per-stage duration histogram in the metrics registry (which
       is also what --profile prints);
     - a trace event in this domain's ring buffer.

   Ring buffers are per-domain (pool workers record their own spans
   under their own tid) and bounded: when full the oldest events are
   overwritten and counted as dropped. Collection merges and sorts the
   rings; it is exact when writers have quiesced, which is how the CLI
   uses it (export after synthesis returns). *)

module Json = Hsyn_util.Json

type category = Pass | Move | Schedule | Power | Embed | Checkpoint

let category_name = function
  | Pass -> "pass"
  | Move -> "move"
  | Schedule -> "schedule"
  | Power -> "power"
  | Embed -> "embed"
  | Checkpoint -> "checkpoint"

type phase = Complete | Instant

type event = {
  ev_name : string;
  ev_cat : category;
  ev_phase : phase;
  ev_ts_us : float;  (* since process epoch *)
  ev_dur_us : float;  (* Complete only *)
  ev_tid : int;  (* recording domain *)
  ev_scope : int;  (* request id of the ambient Scope; 0 = unscoped *)
}

let set_enabled = Gate.set_trace
let is_enabled = Gate.trace_enabled

let epoch = Unix.gettimeofday ()
let now_us () = (Unix.gettimeofday () -. epoch) *. 1e6

(* -- per-domain rings -------------------------------------------------- *)

let default_capacity = 65_536
let capacity = Atomic.make default_capacity
let set_capacity n = Atomic.set capacity (max 16 n)

type ring = { buf : event array; cap : int; mutable n : int (* total ever written *) }

let dummy =
  {
    ev_name = "";
    ev_cat = Pass;
    ev_phase = Instant;
    ev_ts_us = 0.;
    ev_dur_us = 0.;
    ev_tid = 0;
    ev_scope = 0;
  }

let current_scope () = match Scope.current_id () with Some id -> id | None -> 0

let rings : (int, ring) Hashtbl.t = Hashtbl.create 8
let rings_lock = Mutex.create ()

let ring_for dom =
  match Hashtbl.find_opt rings dom with
  | Some r -> r
  | None ->
      Mutex.lock rings_lock;
      let r =
        match Hashtbl.find_opt rings dom with
        | Some r -> r
        | None ->
            let r = { buf = Array.make (Atomic.get capacity) dummy; cap = Atomic.get capacity; n = 0 } in
            Hashtbl.add rings dom r;
            r
      in
      Mutex.unlock rings_lock;
      r

(* Only the owning domain writes its ring, so no lock on the push path.
   The unlocked [Hashtbl.find_opt] fast path is safe because rings are
   only ever added (never removed) outside [reset], and reset must not
   race recording. *)
let push ev =
  let r = ring_for ev.ev_tid in
  r.buf.(r.n mod r.cap) <- ev;
  r.n <- r.n + 1

let instant cat name =
  if Gate.trace_enabled () then
    push
      {
        ev_name = name;
        ev_cat = cat;
        ev_phase = Instant;
        ev_ts_us = now_us ();
        ev_dur_us = 0.;
        ev_tid = (Domain.self () :> int);
        ev_scope = current_scope ();
      }

(* -- the probe --------------------------------------------------------- *)

let stage_hist name = Metrics.histogram ("stage." ^ name)

let span_armed cat name f =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Unix.gettimeofday () -. t0 in
      if Gate.metrics_enabled () then Metrics.observe (stage_hist name) (dt *. 1000.);
      if Gate.trace_enabled () then
        push
          {
            ev_name = name;
            ev_cat = cat;
            ev_phase = Complete;
            ev_ts_us = (t0 -. epoch) *. 1e6;
            ev_dur_us = dt *. 1e6;
            ev_tid = (Domain.self () :> int);
            ev_scope = current_scope ();
          })
    f

let span cat name f = if not (Atomic.get Gate.armed) then f () else span_armed cat name f

(* -- collection and export --------------------------------------------- *)

let events () =
  Mutex.lock rings_lock;
  let rs = Hashtbl.fold (fun _ r acc -> r :: acc) rings [] in
  Mutex.unlock rings_lock;
  let evs =
    List.concat_map
      (fun r ->
        let kept = min r.n r.cap in
        List.init kept (fun i -> r.buf.((r.n - kept + i) mod r.cap)))
      rs
  in
  List.sort
    (fun a b ->
      match compare a.ev_ts_us b.ev_ts_us with 0 -> compare a.ev_tid b.ev_tid | c -> c)
    evs

let scoped_events id = List.filter (fun ev -> ev.ev_scope = id) (events ())

(* Indented per-domain span tree, for the serve daemon's slow-request
   log. Events arrive sorted by timestamp; within a domain, nesting is
   recovered from interval containment (a stack of open span end
   times), which is exact because spans on one domain are properly
   nested by construction. *)
let render_tree evs =
  let buf = Buffer.create 512 in
  let tids = List.sort_uniq compare (List.map (fun ev -> ev.ev_tid) evs) in
  List.iter
    (fun tid ->
      Buffer.add_string buf (Printf.sprintf "domain %d:\n" tid);
      let mine = List.filter (fun ev -> ev.ev_tid = tid) evs in
      let mine =
        List.sort
          (fun a b ->
            match compare a.ev_ts_us b.ev_ts_us with
            | 0 -> compare b.ev_dur_us a.ev_dur_us  (* outer span first *)
            | c -> c)
          mine
      in
      let stack = ref [] in
      List.iter
        (fun ev ->
          let rec pop () =
            match !stack with
            | end_us :: tl when ev.ev_ts_us >= end_us ->
                stack := tl;
                pop ()
            | _ -> ()
          in
          pop ();
          let indent = String.make (2 * (1 + List.length !stack)) ' ' in
          (match ev.ev_phase with
          | Complete ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s [%s] %.3f ms\n" indent ev.ev_name
                   (category_name ev.ev_cat) (ev.ev_dur_us /. 1000.));
              stack := (ev.ev_ts_us +. ev.ev_dur_us) :: !stack
          | Instant ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s [%s] (instant)\n" indent ev.ev_name
                   (category_name ev.ev_cat))))
        mine)
    tids;
  Buffer.contents buf

let dropped () =
  Mutex.lock rings_lock;
  let d = Hashtbl.fold (fun _ r acc -> acc + max 0 (r.n - r.cap)) rings 0 in
  Mutex.unlock rings_lock;
  d

let event_json pid ev =
  let base =
    [
      ("name", Json.String ev.ev_name);
      ("cat", Json.String (category_name ev.ev_cat));
      ("ts", Json.Float ev.ev_ts_us);
      ("pid", Json.Int pid);
      ("tid", Json.Int ev.ev_tid);
    ]
  in
  let base =
    if ev.ev_scope = 0 then base
    else base @ [ ("args", Json.Obj [ ("request_id", Json.Int ev.ev_scope) ]) ]
  in
  match ev.ev_phase with
  | Complete -> Json.Obj (("ph", Json.String "X") :: base @ [ ("dur", Json.Float ev.ev_dur_us) ])
  | Instant -> Json.Obj (("ph", Json.String "i") :: ("s", Json.String "t") :: base)

let to_json () =
  let pid = Unix.getpid () in
  Json.Obj
    [
      ("displayTimeUnit", Json.String "ms");
      ("traceEvents", Json.List (List.map (event_json pid) (events ())));
      ("otherData", Json.Obj [ ("dropped_events", Json.Int (dropped ())) ]);
    ]

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string (to_json ()));
      output_char oc '\n')

let reset () =
  Mutex.lock rings_lock;
  Hashtbl.reset rings;
  Mutex.unlock rings_lock

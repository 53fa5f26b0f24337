(* Self-time ledger over the program's own trace spans.

   A span's self time is its duration minus the part of its interval
   covered by its direct children. Spans on one domain nest, so the
   direct parent of a span is the innermost earlier span whose interval
   is still open when it starts. The benchmark wraps each traced request
   in a span of its own ([request_span]); its self time is the time no
   program span covers. It is reported as [unattributed_s] together
   with the self time of program spans the ledger does not name.

   [embed] is named but reported inside [engine.batch]: embedding only
   runs while the batch pulls lazily generated merge candidates, and
   flat designs never embed, so a layer of its own would read exactly
   0 s on [flat_area]. Its call count is reported instead. *)

module Trace = Hsyn_obs.Trace

let request_span = "perfbench.request"

(* Program span name -> metric prefix. *)
let layers =
  [
    ("power", "eval.power");
    ("batch", "engine.batch");
    ("schedule", "sched.schedule");
    ("prepare", "sched.prepare");
    ("best_select_or_resynth", "moves.select_resynth");
    ("best_merge", "moves.merge");
    ("best_split", "moves.split");
    ("best_rewrite", "moves.rewrite");
    ("context", "synthesize.context");
    ("pass", "pass");
    ("embed", "engine.batch");
  ]

let layer_names =
  List.fold_left (fun acc (_, l) -> if List.mem l acc then acc else acc @ [ l ]) [] layers

type t = {
  self_s : (string * float) list;  (* per layer of [layer_names], in that order *)
  unattributed_s : float;
  spans : int;  (* program spans seen *)
  embed_calls : int;
  domains : int;
}

let self_times (evs : Trace.event list) =
  let evs = List.filter (fun ev -> ev.Trace.ev_phase = Trace.Complete) evs in
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun ev ->
      let l = Option.value ~default:[] (Hashtbl.find_opt by_tid ev.Trace.ev_tid) in
      Hashtbl.replace by_tid ev.Trace.ev_tid (ev :: l))
    evs;
  let acc = Hashtbl.create 16 in
  let add name v = Hashtbl.replace acc name (v +. Option.value ~default:0. (Hashtbl.find_opt acc name)) in
  Hashtbl.iter
    (fun _ evs ->
      let a = Array.of_list evs in
      (* outer span first on equal start *)
      Array.sort
        (fun x y ->
          match compare x.Trace.ev_ts_us y.Trace.ev_ts_us with
          | 0 -> compare y.Trace.ev_dur_us x.Trace.ev_dur_us
          | c -> c)
        a;
      let self = Array.map (fun ev -> ev.Trace.ev_dur_us) a in
      let end_of i = a.(i).Trace.ev_ts_us +. a.(i).Trace.ev_dur_us in
      let stack = ref [] in
      Array.iteri
        (fun i ev ->
          let rec pop () =
            match !stack with
            | p :: tl when ev.Trace.ev_ts_us >= end_of p ->
                stack := tl;
                pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with
          | p :: _ ->
              let covered = Float.min (end_of i) (end_of p) -. ev.Trace.ev_ts_us in
              self.(p) <- self.(p) -. Float.max 0. covered
          | [] -> ());
          stack := i :: !stack)
        a;
      Array.iteri (fun i ev -> add ev.Trace.ev_name (self.(i) /. 1e6)) a)
    by_tid;
  (acc, Hashtbl.length by_tid, List.length evs)

let of_events evs =
  let acc, domains, n = self_times evs in
  let layer_self layer =
    List.fold_left
      (fun s (span, l) -> if l = layer then s +. Option.value ~default:0. (Hashtbl.find_opt acc span) else s)
      0. layers
  in
  let unattributed =
    Hashtbl.fold (fun name v s -> if List.mem_assoc name layers then s else s +. v) acc 0.
  in
  let count p = List.length (List.filter p evs) in
  {
    self_s = List.map (fun l -> (l, layer_self l)) layer_names;
    unattributed_s = unattributed;
    spans = n - count (fun ev -> ev.Trace.ev_name = request_span);
    embed_calls = count (fun ev -> ev.Trace.ev_name = "embed");
    domains;
  }

let total t = List.fold_left (fun s (_, v) -> s +. v) t.unattributed_s t.self_s

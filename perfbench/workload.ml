(* The three workloads and their inputs.

   A workload is a list of synthesis requests plus a session policy.
   Everything a request needs before [Synthesize.synthesize] runs —
   the suite DFGs, the laxity-derived sampling period and the validated
   [Request.t] — is built by [setup], the part timed as [setup_s].

   The synthesis inputs do not depend on the seed: the synthesis trace
   comes from the fixed config seed, as in every [hsyn synth] run. The
   seed draws the held-out traces the results are checked on, and they
   are drawn only after the first pass: the peak heap of a pass moves by
   10% or more when anything allocated before it changes. *)

module Dfg = Hsyn_dfg.Dfg
module Flatten = Hsyn_dfg.Flatten
module Library = Hsyn_modlib.Library
module Cost = Hsyn_core.Cost
module Engine = Hsyn_core.Engine
module Clib = Hsyn_core.Clib
module Session = Hsyn_core.Session
module S = Hsyn_core.Synthesize
module Suite = Hsyn_benchmarks.Suite
module Sim = Hsyn_eval.Sim
module Trace = Hsyn_eval.Trace
module Rng = Hsyn_util.Rng

let laxity = 2.2
let check_trace_length = 32

(* One domain everywhere: engine jobs = 2 gave no wall gain on
   avenhaus_cascade power, and a single domain keeps spans nested. *)
let config =
  let engine = { Engine.default_policy with Engine.jobs = 1 } in
  { S.default_config with S.engine; clib_effort = { Clib.default_effort with Clib.engine } }

type spec = { bench : string; objective : Cost.objective; flatten : bool }

let spec_name s =
  Printf.sprintf "%s/%s%s" s.bench (Cost.objective_name s.objective)
    (if s.flatten then "/flat" else "")

type t = {
  name : string;
  shared_session : bool;  (* one Session for the whole list, as [hsyn serve] runs it *)
  specs : spec list;
}

let paper_suite = [ "avenhaus_cascade"; "dct"; "iir"; "lat"; "hier_paulin"; "test1" ]
let mix_benches = [ "iir"; "lat"; "test1"; "hier_paulin" ]
let mix_rounds = 3

(* [session_mix]: three rounds over the eight (benchmark, objective)
   pairs in one fixed order, so each repeat meets the seven other pairs
   in between — the pattern under which the session's 64 evaluation
   contexts are evicted before a request comes back. *)
let mix_specs =
  let round =
    List.concat_map
      (fun bench -> List.map (fun objective -> { bench; objective; flatten = false }) [ Cost.Area; Cost.Power ])
      mix_benches
  in
  List.concat (List.init mix_rounds (fun _ -> round))

let names = [ "hier_power"; "flat_area"; "session_mix" ]

let make name =
  let suite objective flatten = List.map (fun bench -> { bench; objective; flatten }) paper_suite in
  match name with
  | "hier_power" -> Some { name; shared_session = false; specs = suite Cost.Power false }
  | "flat_area" -> Some { name; shared_session = false; specs = suite Cost.Area true }
  | "session_mix" -> Some { name; shared_session = true; specs = mix_specs }
  | _ -> None

(* -- set-up ------------------------------------------------------------- *)

type input = {
  spec : spec;
  suite : Suite.t;
  request : Session.t -> S.Request.t;
}

let bench_of name =
  match Suite.by_name name with Some b -> b | None -> failwith ("unknown benchmark " ^ name)

let request_of (b : Suite.t) spec ~sampling_ns session =
  match
    S.Request.make ~config ~flatten:spec.flatten ?session ~lib:Library.default
      ~registry:b.Suite.registry ~dfg:b.Suite.dfg ~objective:spec.objective ~sampling_ns ()
  with
  | Ok r -> r
  | Error msg -> failwith (spec_name spec ^ ": " ^ msg)

(* Builds every request of the list. The per-benchmark part (DFG and
   sampling period) is built once per distinct benchmark. Every request
   is validated here by [Request.make]; the run path makes it again only
   to attach the session it runs on. *)
let setup (w : t) =
  let per_bench = Hashtbl.create 8 in
  let bench_inputs name =
    match Hashtbl.find_opt per_bench name with
    | Some x -> x
    | None ->
        let b = bench_of name in
        let x = (b, laxity *. S.min_sampling_ns Library.default b.Suite.registry b.Suite.dfg) in
        Hashtbl.add per_bench name x;
        x
  in
  List.map
    (fun spec ->
      let b, sampling_ns = bench_inputs spec.bench in
      ignore (request_of b spec ~sampling_ns None : S.Request.t);
      let request session = request_of b spec ~sampling_ns (Some session) in
      { spec; suite = b; request })
    w.specs

(* The held-out check of one benchmark: a trace drawn from the seed and
   the benchmark's name, and the outputs [Sim.run_flat] gives for it on
   the flattened behaviour. *)
let check_case ~seed (b : Suite.t) =
  let trace =
    Trace.generate (Rng.create (Hashtbl.hash (seed, b.Suite.name))) Trace.default_kind
      ~n_inputs:(Array.length b.Suite.dfg.Dfg.inputs) ~length:check_trace_length
  in
  (trace, Sim.run_flat (Flatten.flatten b.Suite.registry b.Suite.dfg) trace)

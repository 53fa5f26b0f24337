module Dfg = Hsyn_dfg.Dfg
module Design = Hsyn_rtl.Design
module Fu = Hsyn_modlib.Fu
module Pqueue = Hsyn_util.Pqueue
module Shard_tbl = Hsyn_util.Shard_tbl
module Span = Hsyn_obs.Trace

type profile = { in_need : int array; out_ready : int array; busy : int }

type constraints = {
  input_arrival : int array;
  output_deadline : int array option;
  deadline : int;
}

let relaxed ~deadline (dfg : Dfg.t) =
  { input_arrival = Array.make (Array.length dfg.inputs) 0; output_deadline = None; deadline }

type schedule = { start : int array; avail : int array; makespan : int; feasible : bool }

let infinite_deadline = 1_000_000

(* ------------------------------------------------------------------ *)
(* Kernel counters *)

type stats = {
  schedules : int;
  events_popped : int;
  prepared_hits : int;
  prepared_builds : int;
}

let c_schedules = Atomic.make 0
let c_events = Atomic.make 0
let c_prep_hits = Atomic.make 0
let c_prep_builds = Atomic.make 0

let stats () =
  {
    schedules = Atomic.get c_schedules;
    events_popped = Atomic.get c_events;
    prepared_hits = Atomic.get c_prep_hits;
    prepared_builds = Atomic.get c_prep_builds;
  }

let zero_stats =
  { schedules = 0; events_popped = 0; prepared_hits = 0; prepared_builds = 0 }

let sub_stats a b =
  {
    schedules = a.schedules - b.schedules;
    events_popped = a.events_popped - b.events_popped;
    prepared_hits = a.prepared_hits - b.prepared_hits;
    prepared_builds = a.prepared_builds - b.prepared_builds;
  }

let reset_stats () =
  Atomic.set c_schedules 0;
  Atomic.set c_events 0;
  Atomic.set c_prep_hits 0;
  Atomic.set c_prep_builds 0

let pp_stats fmt s =
  Format.fprintf fmt "@[<v>[sched] schedules: %d, events popped: %d@,[sched] prepared contexts: %d hits / %d builds@]"
    s.schedules s.events_popped s.prepared_hits s.prepared_builds

(* ------------------------------------------------------------------ *)
(* Prepared scheduling context: everything that depends only on the
   DFG, not on the binding. The move loop evaluates thousands of
   candidate designs over one physically shared graph (functional
   design updates never replace [d.dfg]), so this is built once per
   graph and reused across every candidate evaluation. *)

module Prepared = struct
  type t = {
    p_dfg : Dfg.t;
    n_nodes : int;
    n_values : int;
    n_ports : int;  (* input ports over all nodes *)
    value_off : int array;  (* n_nodes + 1 prefix sums of n_out *)
    value_node : int array;  (* per value id, its producing node *)
    topo_order : int array;
    write_order : int array;
        (* every value id in register write order: nodes in [topo_order],
           a node's values ascending *)
    cons_off : int array;  (* n_values + 1: value v's consumers are
                              cons_node.(cons_off.(v) .. cons_off.(v + 1) - 1) *)
    cons_node : int array;  (* consumer node per (value, in port), ascending *)
    is_sink : bool array;  (* per node: Output or Delay *)
    sinks : int array;  (* Output and Delay nodes, ascending *)
    execs : int array;  (* Op and Call nodes, ascending: each must be bound *)
    fixed : int array;  (* Const and Delay values: available at cycle 0 *)
  }

  let dfg t = t.p_dfg
  let value_offsets t = t.value_off
  let topo_order t = t.topo_order
  let value_index t ({ Dfg.node; out } : Dfg.port) = t.value_off.(node) + out

  let build (dfg : Dfg.t) =
    Span.span Span.Schedule "prepare" (fun () ->
        Atomic.incr c_prep_builds;
        let nodes = dfg.Dfg.nodes in
        let n_nodes = Array.length nodes in
        let value_off = Array.make (n_nodes + 1) 0 in
        let n_ports = ref 0 and n_sinks = ref 0 and n_execs = ref 0 and n_fixed = ref 0 in
        for id = 0 to n_nodes - 1 do
          let node = nodes.(id) in
          value_off.(id + 1) <- value_off.(id) + node.Dfg.n_out;
          n_ports := !n_ports + Array.length node.Dfg.ins;
          match node.Dfg.kind with
          | Dfg.Output -> incr n_sinks
          | Dfg.Delay _ ->
              incr n_sinks;
              incr n_fixed
          | Dfg.Const _ -> incr n_fixed
          | Dfg.Op _ | Dfg.Call _ -> incr n_execs
          | Dfg.Input -> ()
        done;
        let n_values = value_off.(n_nodes) in
        let value_node = Array.make n_values 0 in
        let cons_off = Array.make (n_values + 1) 0 in
        let is_sink = Array.make n_nodes false in
        let sinks = Array.make !n_sinks 0 and execs = Array.make !n_execs 0 in
        let fixed = Array.make !n_fixed 0 in
        n_sinks := 0;
        n_execs := 0;
        n_fixed := 0;
        for id = 0 to n_nodes - 1 do
          let node = nodes.(id) in
          for v = value_off.(id) to value_off.(id + 1) - 1 do
            value_node.(v) <- id
          done;
          let ins = node.Dfg.ins in
          for port = 0 to Array.length ins - 1 do
            let v = value_off.(ins.(port).Dfg.node) + ins.(port).Dfg.out in
            cons_off.(v + 1) <- cons_off.(v + 1) + 1
          done;
          match node.Dfg.kind with
          | Dfg.Output ->
              is_sink.(id) <- true;
              sinks.(!n_sinks) <- id;
              incr n_sinks
          | Dfg.Delay _ ->
              is_sink.(id) <- true;
              sinks.(!n_sinks) <- id;
              incr n_sinks;
              fixed.(!n_fixed) <- value_off.(id);
              incr n_fixed
          | Dfg.Const _ ->
              fixed.(!n_fixed) <- value_off.(id);
              incr n_fixed
          | Dfg.Op _ | Dfg.Call _ ->
              execs.(!n_execs) <- id;
              incr n_execs
          | Dfg.Input -> ()
        done;
        for v = 0 to n_values - 1 do
          cons_off.(v + 1) <- cons_off.(v + 1) + cons_off.(v)
        done;
        (* fill each value's slice back to front, visiting consumers in
           descending (node, port) order, so slices come out ascending *)
        let fill = Array.sub cons_off 1 n_values in
        let cons_node = Array.make !n_ports 0 in
        for dst = n_nodes - 1 downto 0 do
          let ins = nodes.(dst).Dfg.ins in
          for port = Array.length ins - 1 downto 0 do
            let v = value_off.(ins.(port).Dfg.node) + ins.(port).Dfg.out in
            fill.(v) <- fill.(v) - 1;
            cons_node.(fill.(v)) <- dst
          done
        done;
        let topo_order = Dfg.topo_order dfg in
        let write_order = Array.make n_values 0 in
        let w = ref 0 in
        Array.iter
          (fun id ->
            for v = value_off.(id) to value_off.(id + 1) - 1 do
              write_order.(!w) <- v;
              incr w
            done)
          topo_order;
        {
          p_dfg = dfg;
          n_nodes;
          n_values;
          n_ports = !n_ports;
          value_off;
          value_node;
          topo_order;
          write_order;
          cons_off;
          cons_node;
          is_sink;
          sinks;
          execs;
          fixed;
        })
end

let prepare = Prepared.build

(* Prepared contexts are cached by the graph's physical identity:
   module parts and the top-level graph each get one context for the
   lifetime of a synthesis run. Bounded so long-lived processes that
   churn through many graphs cannot grow without bound. *)

module Dfg_id = struct
  type t = Dfg.t

  let equal = ( == )
  let hash (g : Dfg.t) = Hashtbl.hash (g.Dfg.name, Array.length g.Dfg.nodes)
end

(* ------------------------------------------------------------------ *)
(* Job model: a struct of arrays over job indices. A job's members,
   needs and outputs are contiguous slices of flat arrays, job [j]'s
   slice running from [x_off.(j)] to [x_off.(j + 1) - 1]. Jobs are
   numbered by instance, then by lowest member node id. *)

type jobs = {
  n_jobs : int;
  job_of_node : int array;  (* per node: the job executing it, or -1 *)
  inst : int array;
  busy : int array;  (* cycles the instance is occupied *)
  hold : int array;  (* cycles until the instance takes its next job *)
  mem_off : int array;
  mem : int array;  (* member node ids, ascending within a job *)
  need_off : int array;
  need_v : int array;  (* external input value id *)
  need_at : int array;  (* cycle it is needed, relative to the job's start *)
  out_off : int array;
  out_v : int array;  (* output value id *)
  out_at : int array;  (* cycle it is ready, relative to the job's start *)
}

(* Profiles are requested for every module job of every scheduling
   call, and computing one schedules the module's part recursively —
   memoize per (module identity, behavior, technology context). *)

type profile_key = {
  pk_rm : Design.rtl_module;
  pk_behavior : string;
  pk_vdd : Hsyn_modlib.Voltage.t;
  pk_clk_ns : float;
}

module Profile_key = struct
  type t = profile_key

  let equal a b =
    a.pk_rm == b.pk_rm && a.pk_behavior = b.pk_behavior && a.pk_vdd = b.pk_vdd
    && a.pk_clk_ns = b.pk_clk_ns

  let hash k =
    Hashtbl.hash (k.pk_rm.Design.rm_name, k.pk_behavior, k.pk_vdd, k.pk_clk_ns)
end

module Prep_tbl = Shard_tbl.Make (Dfg_id)
module Prof_tbl = Shard_tbl.Make (Profile_key)

(* A cache value owns both memo tables the scheduler keeps: prepared
   contexts and module profiles. There is deliberately no global
   instance — callers that want sharing (the evaluation engine, via
   its session) pass one down; entry points called without a cache get
   a transient single-shard instance scoped to that call, so recursive
   profile computation is still memoized within the call but nothing
   outlives it. Both tables are shared across domains; [find_or_build]
   makes each key build exactly once even under concurrent lookups. *)

module Cache = struct
  type t = { prepared : Prepared.t Prep_tbl.t; profiles : (profile * schedule) Prof_tbl.t }

  type cache_stats = { prepared_tbl : Shard_tbl.stats; profile_tbl : Shard_tbl.stats }

  let create ?(shards = 8) ?(prepared_capacity = 256) ?(profile_capacity = 1024) () =
    {
      prepared =
        Prep_tbl.create ~shards ~eviction:Shard_tbl.Second_chance ~capacity:prepared_capacity ();
      profiles =
        Prof_tbl.create ~shards ~eviction:Shard_tbl.Second_chance ~capacity:profile_capacity ();
    }

  let stats t =
    { prepared_tbl = Prep_tbl.stats t.prepared; profile_tbl = Prof_tbl.stats t.profiles }

  let transient () = create ~shards:1 ~prepared_capacity:64 ~profile_capacity:256 ()
end

let or_transient = function Some c -> c | None -> Cache.transient ()

let prepared_in (cache : Cache.t) dfg =
  let built = ref false in
  let p =
    Prep_tbl.find_or_build cache.Cache.prepared dfg (fun dfg ->
        built := true;
        Prepared.build dfg)
  in
  if not !built then Atomic.incr c_prep_hits;
  p

let prepared_for ?cache dfg =
  match cache with Some c -> prepared_in c dfg | None -> Prepared.build dfg

(* A profile is derived from one schedule of the module part; the
   table keeps that schedule next to it, because the power model needs
   exactly this schedule (same part, same relaxed constraints) for the
   module's internal activity. *)
let rec profile_in cache ctx rm behavior = fst (profiled_in cache ctx rm behavior)

and profiled_in cache ctx rm behavior =
  let key =
    { pk_rm = rm; pk_behavior = behavior; pk_vdd = ctx.Design.vdd; pk_clk_ns = ctx.Design.clk_ns }
  in
  (* profiles are pure functions of the key; the builder recurses into
     this same cache for nested modules (always under different keys,
     the call graph is acyclic), which [find_or_build] permits because
     builders run outside the shard lock *)
  Prof_tbl.find_or_build cache.Cache.profiles key (fun _ ->
      compute_module_profile cache ctx rm behavior)

and compute_module_profile cache ctx rm behavior =
  let part = Design.module_part rm behavior in
  let dfg = part.Design.dfg in
  let cs = relaxed ~deadline:infinite_deadline dfg in
  let prep = prepared_in cache dfg in
  let sch = schedule_event cache prep ctx cs part in
  let in_need =
    Array.map
      (fun input_id ->
        (* first time the input's value is consumed *)
        let v = prep.Prepared.value_off.(input_id) in
        let first = prep.Prepared.cons_off.(v) and last = prep.Prepared.cons_off.(v + 1) - 1 in
        if last < first then 0
        else begin
          let acc = ref max_int in
          for c = first to last do
            let s = sch.start.(prep.Prepared.cons_node.(c)) in
            acc := min !acc (if s < 0 then 0 else s)
          done;
          !acc
        end)
      dfg.Dfg.inputs
  in
  let out_ready =
    Array.map
      (fun output_id ->
        let src = dfg.Dfg.nodes.(output_id).Dfg.ins.(0) in
        sch.avail.(Prepared.value_index prep src))
      dfg.Dfg.outputs
  in
  ({ in_need; out_ready; busy = sch.makespan }, sch)

(* ------------------------------------------------------------------ *)
(* Event kernel *)

(* The one job builder, shared by [schedule_event] and [alap_start].
   Nodes are grouped by instance with one counting pass over
   [node_inst]; a chaining unit runs all its nodes as one job, any
   other instance one job per node. *)
and build_jobs cache (p : Prepared.t) ctx (d : Design.t) =
  let nodes = d.Design.dfg.Dfg.nodes in
  let n_nodes = p.Prepared.n_nodes in
  let value_off = p.Prepared.value_off in
  let insts = d.Design.insts in
  let n_insts = Array.length insts in
  let node_inst = d.Design.node_inst in
  (* after the fill below, instance i's nodes are
     mem.(inst_off.(i) .. inst_off.(i + 1) - 1), ascending *)
  let inst_off = Array.make (n_insts + 1) 0 in
  for id = 0 to n_nodes - 1 do
    let i = node_inst.(id) in
    if i >= 0 && i < n_insts then inst_off.(i) <- inst_off.(i) + 1
  done;
  for i = 1 to n_insts do
    inst_off.(i) <- inst_off.(i) + inst_off.(i - 1)
  done;
  let n_bound = inst_off.(n_insts) in
  let mem = Array.make n_bound 0 in
  for id = n_nodes - 1 downto 0 do
    let i = node_inst.(id) in
    if i >= 0 && i < n_insts then begin
      inst_off.(i) <- inst_off.(i) - 1;
      mem.(inst_off.(i)) <- id
    end
  done;
  (* at most one job per bound node; at most one output per simple
     member and n_out per module member *)
  let job_of_node = Array.make n_nodes (-1) in
  let inst = Array.make n_bound 0 and busy = Array.make n_bound 0 in
  let hold = Array.make n_bound 0 and mem_off = Array.make (n_bound + 1) 0 in
  let need_off = Array.make (n_bound + 1) 0 and out_off = Array.make (n_bound + 1) 0 in
  let need_v = Array.make p.Prepared.n_ports 0 and need_at = Array.make p.Prepared.n_ports 0 in
  let n_out_max = p.Prepared.n_values + n_bound in
  let out_v = Array.make n_out_max 0 and out_at = Array.make n_out_max 0 in
  let n_jobs = ref 0 and n_needs = ref 0 and n_outs = ref 0 in
  (* job [!n_jobs] runs mem.(first .. last) on instance [i]; a module
     job ([profiled]) needs input port q at [in_need.(q)], any other
     job all its inputs at its start *)
  let add_job i ~first ~last ~busy:b ~hold:h ~profiled in_need =
    let j = !n_jobs in
    inst.(j) <- i;
    busy.(j) <- b;
    hold.(j) <- h;
    for k = first to last do
      job_of_node.(mem.(k)) <- j
    done;
    for k = first to last do
      let ins = nodes.(mem.(k)).Dfg.ins in
      for port = 0 to Array.length ins - 1 do
        let src = ins.(port) in
        if job_of_node.(src.Dfg.node) <> j then begin
          need_v.(!n_needs) <- value_off.(src.Dfg.node) + src.Dfg.out;
          need_at.(!n_needs) <- (if profiled then in_need.(port) else 0);
          incr n_needs
        end
      done
    done;
    mem_off.(j + 1) <- last + 1;
    need_off.(j + 1) <- !n_needs;
    n_jobs := j + 1
  in
  let add_out v at =
    out_v.(!n_outs) <- v;
    out_at.(!n_outs) <- at;
    incr n_outs
  in
  let close_outs () = out_off.(!n_jobs) <- !n_outs in
  for i = 0 to n_insts - 1 do
    let first = inst_off.(i) and last = inst_off.(i + 1) - 1 in
    if last >= first then
      match insts.(i) with
      | Design.Simple fu ->
          let latency = Fu.cycles_at fu ctx.Design.vdd ~clk_ns:ctx.Design.clk_ns in
          let h = if fu.Fu.pipelined then 1 else latency in
          if Fu.is_chain fu then begin
            add_job i ~first ~last ~busy:latency ~hold:h ~profiled:false [||];
            for k = first to last do
              add_out value_off.(mem.(k)) latency
            done;
            close_outs ()
          end
          else
            for k = first to last do
              add_job i ~first:k ~last:k ~busy:latency ~hold:h ~profiled:false [||];
              add_out value_off.(mem.(k)) latency;
              close_outs ()
            done
      | Design.Module rm ->
          for k = first to last do
            let id = mem.(k) in
            let behavior =
              match nodes.(id).Dfg.kind with
              | Dfg.Call b -> b
              | _ -> invalid_arg "Sched: non-call node on module instance"
            in
            let prof = profile_in cache ctx rm behavior in
            let b = max 1 prof.busy in
            add_job i ~first:k ~last:k ~busy:b ~hold:b ~profiled:true prof.in_need;
            for o = 0 to nodes.(id).Dfg.n_out - 1 do
              add_out (value_off.(id) + o) prof.out_ready.(o)
            done;
            close_outs ()
          done
  done;
  {
    n_jobs = !n_jobs;
    job_of_node;
    inst;
    busy;
    hold;
    mem_off;
    mem;
    need_off;
    need_v;
    need_at;
    out_off;
    out_v;
    out_at;
  }

and schedule_event cache (p : Prepared.t) ctx (cs : constraints) (d : Design.t) =
  let dfg = d.Design.dfg in
  let n_nodes = p.Prepared.n_nodes in
  let nv = p.Prepared.n_values in
  let value_off = p.Prepared.value_off and value_node = p.Prepared.value_node in
  let jb = build_jobs cache p ctx d in
  let n_jobs = jb.n_jobs and job_of_node = jb.job_of_node in
  let need_off = jb.need_off and need_v = jb.need_v and need_at = jb.need_at in
  let out_off = jb.out_off and out_v = jb.out_v and out_at = jb.out_at in
  (* sanity: every op/call node must belong to a job *)
  Array.iter
    (fun id ->
      if job_of_node.(id) < 0 then
        invalid_arg (Printf.sprintf "Sched: node %s is unbound" dfg.Dfg.nodes.(id).Dfg.label))
    p.Prepared.execs;
  let avail = Array.make nv (-1) in
  for pos = 0 to Array.length dfg.Dfg.inputs - 1 do
    avail.(value_off.(dfg.Dfg.inputs.(pos))) <- cs.input_arrival.(pos)
  done;
  Array.iter (fun v -> avail.(v) <- 0) p.Prepared.fixed;
  (* Dependence edges over jobs as index-linked lists: job j's
     successors are succ_to.(e) for e = succ_head.(j), succ_next.(e),
     ... until -1. Data edges come from the needs, one per need whose
     producer is another job; register anti-edges (below) add at most
     one edge per consumer of a value. *)
  let edge_cap = need_off.(n_jobs) + p.Prepared.n_ports in
  let succ_head = Array.make n_jobs (-1) in
  let succ_next = Array.make edge_cap 0 and succ_to = Array.make edge_cap 0 in
  let n_succ = ref 0 in
  let preds_remaining = Array.make n_jobs 0 in
  let add_succ pj j =
    let e = !n_succ in
    succ_to.(e) <- j;
    succ_next.(e) <- succ_head.(pj);
    succ_head.(pj) <- e;
    n_succ := e + 1;
    preds_remaining.(j) <- preds_remaining.(j) + 1
  in
  for j = 0 to n_jobs - 1 do
    for k = need_off.(j) to need_off.(j + 1) - 1 do
      let pj = job_of_node.(value_node.(need_v.(k))) in
      if pj >= 0 && pj <> j then add_succ pj j
    done
  done;
  (* Register serialization (the paper's "variables that need to be
     stored in the [same] register" ordering edges): if values v1 then
     v2 live in one register, v2 may only be written after v1's last
     read. Writing order is [Prepared.write_order]. Constraints become
     anti-edges (pred job, gap): start ≥ start(pred) + gap, listed per
     job like the successors; constraints from input arrivals become
     static lower bounds in [base_est]. *)
  let base_est = Array.make n_jobs 0 in
  let anti_cap = p.Prepared.n_ports in
  let anti_head = Array.make n_jobs (-1) in
  let anti_next = Array.make anti_cap 0 in
  let anti_pred = Array.make anti_cap 0 and anti_gap = Array.make anti_cap 0 in
  let n_anti = ref 0 in
  let add_anti ~pred ~job ~gap =
    if pred <> job then begin
      let e = !n_anti in
      anti_pred.(e) <- pred;
      anti_gap.(e) <- gap;
      anti_next.(e) <- anti_head.(job);
      anti_head.(job) <- e;
      n_anti := e + 1;
      add_succ pred job
    end
  in
  let out_at_of j value =
    let k = ref out_off.(j) in
    while !k < out_off.(j + 1) && out_v.(!k) <> value do
      incr k
    done;
    if !k < out_off.(j + 1) then out_at.(!k) else 0
  in
  let need_of j value =
    let found = ref 0 in
    for k = need_off.(j) to need_off.(j + 1) - 1 do
      if need_v.(k) = value && need_at.(k) > !found then found := need_at.(k)
    done;
    !found
  in
  let order_writes v1 v2 =
    let writer2 = job_of_node.(value_node.(v2)) in
    if writer2 >= 0 then begin
      let off2 = out_at_of writer2 v2 in
      for c = p.Prepared.cons_off.(v1) to p.Prepared.cons_off.(v1 + 1) - 1 do
        let dst = p.Prepared.cons_node.(c) in
        if p.Prepared.is_sink.(dst) then begin
          (* an Output or Delay reads v1 at its availability *)
          let j1 = job_of_node.(value_node.(v1)) in
          if j1 >= 0 then add_anti ~pred:j1 ~job:writer2 ~gap:(out_at_of j1 v1 + 1 - off2)
          else
            (* v1 is an input/const/delay value: its read time equals
               its fixed availability *)
            base_est.(writer2) <- max base_est.(writer2) (avail.(v1) + 1 - off2)
        end
        else
          let j = job_of_node.(dst) in
          if j >= 0 then add_anti ~pred:j ~job:writer2 ~gap:(need_of j v1 + 1 - off2)
      done
    end
  in
  (* consecutive writes of each register, in one sweep of the write
     order: [last_write.(r)] is the value register r held before *)
  let n_regs = d.Design.n_regs and value_reg = d.Design.value_reg in
  let last_write = Array.make n_regs (-1) in
  Array.iter
    (fun v2 ->
      let r = if v2 < Array.length value_reg then value_reg.(v2) else -1 in
      if r >= 0 && r < n_regs then begin
        let v1 = last_write.(r) in
        last_write.(r) <- v2;
        if v1 >= 0 then order_writes v1 v2
      end)
    p.Prepared.write_order;
  let weight = Array.make n_jobs 0 in
  for j = 0 to n_jobs - 1 do
    let w = ref jb.busy.(j) in
    for k = out_off.(j) to out_off.(j + 1) - 1 do
      if out_at.(k) > !w then w := out_at.(k)
    done;
    weight.(j) <- !w
  done;
  (* priorities: longest path to sink over the job DAG, computed in
     reverse of Kahn's order; jobs on or behind a cycle keep 0 *)
  let prio = Array.make n_jobs 0 in
  let kahn = Array.make n_jobs 0 in
  let n_kahn =
    let indeg = Array.copy preds_remaining in
    let tail = ref 0 in
    for j = 0 to n_jobs - 1 do
      if indeg.(j) = 0 then begin
        kahn.(!tail) <- j;
        incr tail
      end
    done;
    let head = ref 0 in
    while !head < !tail do
      let j = kahn.(!head) in
      incr head;
      let e = ref succ_head.(j) in
      while !e >= 0 do
        let s = succ_to.(!e) in
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then begin
          kahn.(!tail) <- s;
          incr tail
        end;
        e := succ_next.(!e)
      done
    done;
    !tail
  in
  for idx = n_kahn - 1 downto 0 do
    let j = kahn.(idx) in
    let best_succ = ref 0 in
    let e = ref succ_head.(j) in
    while !e >= 0 do
      best_succ := max !best_succ prio.(succ_to.(!e));
      e := succ_next.(!e)
    done;
    prio.(j) <- weight.(j) + !best_succ
  done;
  (* event-driven list scheduling: instead of scanning all jobs at
     every cycle, keep (a) a ready queue of startable jobs keyed so the
     minimum pops the winner — highest priority, lowest job index —
     (b) a pending heap of jobs whose earliest start time lies in the
     future, and (c) a release heap of instance free times. Jobs popped
     while their instance is busy park on the instance and re-enter
     the ready queue at its next release. *)
  let start_of_job = Array.make n_jobs (-1) in
  let free_from = Array.make (Array.length d.Design.insts) 0 in
  let compute_est j =
    let e = ref base_est.(j) in
    for k = need_off.(j) to need_off.(j + 1) - 1 do
      let a = avail.(need_v.(k)) in
      assert (a >= 0);
      e := max !e (a - need_at.(k))
    done;
    let a = ref anti_head.(j) in
    while !a >= 0 do
      let pred = anti_pred.(!a) in
      assert (start_of_job.(pred) >= 0);
      e := max !e (start_of_job.(pred) + anti_gap.(!a));
      a := anti_next.(!a)
    done;
    !e
  in
  let unscheduled = ref n_jobs in
  let total_busy = ref 0 in
  for j = 0 to n_jobs - 1 do
    total_busy := !total_busy + jb.busy.(j)
  done;
  let max_arrival = Array.fold_left max 0 cs.input_arrival in
  let max_base = Array.fold_left max 0 base_est in
  let bound = !total_busy + max_arrival + max_base + (3 * n_jobs) + 4 in
  (* Ready keys are injective — priority major, job index minor — so
     the pop order exactly matches an argmax scan over all ready jobs.
     Pending and release keys may tie, but every entry with key ≤ t is
     drained before the first ready pop at t, so their tie order
     changes neither the schedule nor the number of pops. *)
  let ready_key j = (-prio.(j) * n_jobs) + j in
  let ready = Pqueue.create ~capacity:n_jobs () in
  let pending = Pqueue.create ~capacity:n_jobs () in
  let releases = Pqueue.create ~capacity:n_jobs () in
  (* jobs parked on instance i: park_head.(i), park_next.(j), ... *)
  let park_head = Array.make (Array.length d.Design.insts) (-1) in
  let park_next = Array.make n_jobs (-1) in
  let pops = ref 0 in
  for j = 0 to n_jobs - 1 do
    if preds_remaining.(j) = 0 then Pqueue.add pending ~key:(compute_est j) j
  done;
  let unpark i =
    let q = ref park_head.(i) in
    park_head.(i) <- -1;
    while !q >= 0 do
      let j = !q in
      q := park_next.(j);
      Pqueue.add ready ~key:(ready_key j) j
    done
  in
  let fire j t =
    start_of_job.(j) <- t;
    decr unscheduled;
    let i = jb.inst.(j) in
    let free = t + jb.hold.(j) in
    free_from.(i) <- free;
    for k = out_off.(j) to out_off.(j + 1) - 1 do
      avail.(out_v.(k)) <- t + out_at.(k)
    done;
    let e = ref succ_head.(j) in
    while !e >= 0 do
      let s = succ_to.(!e) in
      preds_remaining.(s) <- preds_remaining.(s) - 1;
      if preds_remaining.(s) = 0 then begin
        let est = compute_est s in
        if est <= t then Pqueue.add ready ~key:(ready_key s) s else Pqueue.add pending ~key:est s
      end;
      e := succ_next.(!e)
    done;
    if free > t then Pqueue.add releases ~key:free i
    else
      (* zero-occupancy fire: the instance is already free again this
         cycle, so parked jobs compete at the current time *)
      unpark i
  in
  let deadlocked = ref false in
  while !unscheduled > 0 && not !deadlocked do
    (* an empty heap's min_key is max_int, beyond any bound *)
    let t = min (Pqueue.min_key pending) (Pqueue.min_key releases) in
    if t > bound then deadlocked := true
    else begin
      while Pqueue.min_key pending <= t do
        incr pops;
        let j = Pqueue.pop pending in
        Pqueue.add ready ~key:(ready_key j) j
      done;
      while Pqueue.min_key releases <= t do
        incr pops;
        unpark (Pqueue.pop releases)
      done;
      while not (Pqueue.is_empty ready) do
        incr pops;
        let j = Pqueue.pop ready in
        let i = jb.inst.(j) in
        if free_from.(i) <= t then fire j t
        else begin
          park_next.(j) <- park_head.(i);
          park_head.(i) <- j
        end
      done
    end
  done;
  Atomic.incr c_schedules;
  ignore (Atomic.fetch_and_add c_events !pops);
  if !unscheduled > 0 then
    (* ordering constraints (register serialization vs data order)
       deadlocked: the design point is simply not schedulable *)
    { start = Array.make n_nodes (-1); avail; makespan = bound; feasible = false }
  else begin
    let start = Array.make n_nodes (-1) in
    let makespan = ref 0 in
    for j = 0 to n_jobs - 1 do
      for k = jb.mem_off.(j) to jb.mem_off.(j + 1) - 1 do
        start.(jb.mem.(k)) <- start_of_job.(j)
      done;
      makespan := max !makespan (start_of_job.(j) + weight.(j))
    done;
    let consume_time id =
      let src = dfg.Dfg.nodes.(id).Dfg.ins.(0) in
      avail.(Prepared.value_index p src)
    in
    Array.iter (fun id -> makespan := max !makespan (consume_time id)) p.Prepared.sinks;
    let outputs_ok =
      match cs.output_deadline with
      | None -> true
      | Some deadlines ->
          Array.for_all2 (fun output_id dl -> consume_time output_id <= dl) dfg.Dfg.outputs deadlines
    in
    let feasible = !makespan <= cs.deadline && outputs_ok in
    { start; avail; makespan = !makespan; feasible }
  end

(* ------------------------------------------------------------------ *)
(* Public entry points *)

let module_profile ?cache ctx rm behavior = profile_in (or_transient cache) ctx rm behavior

let module_schedule ?cache ctx rm behavior = snd (profiled_in (or_transient cache) ctx rm behavior)

let schedule ?cache ?prepared ctx (cs : constraints) (d : Design.t) =
  Span.span Span.Schedule "schedule" (fun () ->
      let cache = or_transient cache in
      let p =
        match prepared with
        | Some p when Prepared.dfg p == d.Design.dfg -> p
        | _ -> prepared_in cache d.Design.dfg
      in
      schedule_event cache p ctx cs d)

(* ------------------------------------------------------------------ *)
(* ALAP (infinite resources) *)

let alap_start ?cache ctx ~deadline (d : Design.t) =
  let cache = or_transient cache in
  let p = prepared_in cache d.Design.dfg in
  let jb = build_jobs cache p ctx d in
  (* latest time each value may become available; an Output or Delay
     consumes its value by the deadline, which is every value's start *)
  let latest_avail = Array.make p.Prepared.n_values deadline in
  let job_latest = Array.make jb.n_jobs deadline in
  (* walk jobs in reverse dependence order: node topo order reversed *)
  let order = p.Prepared.topo_order in
  for idx = Array.length order - 1 downto 0 do
    let j = jb.job_of_node.(order.(idx)) in
    if j >= 0 then begin
      let latest = ref deadline in
      for k = jb.out_off.(j) to jb.out_off.(j + 1) - 1 do
        latest := min !latest (latest_avail.(jb.out_v.(k)) - jb.out_at.(k))
      done;
      if !latest < job_latest.(j) then job_latest.(j) <- !latest;
      for k = jb.need_off.(j) to jb.need_off.(j + 1) - 1 do
        let v = jb.need_v.(k) and t = job_latest.(j) + jb.need_at.(k) in
        if t < latest_avail.(v) then latest_avail.(v) <- t
      done
    end
  done;
  let result = Array.make p.Prepared.n_nodes (-1) in
  for j = 0 to jb.n_jobs - 1 do
    for k = jb.mem_off.(j) to jb.mem_off.(j + 1) - 1 do
      result.(jb.mem.(k)) <- max 0 job_latest.(j)
    done
  done;
  result

(* ------------------------------------------------------------------ *)
(* Minimum sampling period *)

let critical_path_ns lib (dfg : Dfg.t) =
  if Dfg.n_calls dfg > 0 then invalid_arg "Sched.critical_path_ns: graph must be flat";
  let order = Dfg.topo_order dfg in
  let n = Array.length dfg.Dfg.nodes in
  let finish = Array.make n 0. in
  let longest = ref 0. in
  Array.iter
    (fun id ->
      let node = dfg.Dfg.nodes.(id) in
      let in_ready =
        Array.fold_left
          (fun acc ({ Dfg.node = src; _ } : Dfg.port) ->
            match dfg.Dfg.nodes.(src).Dfg.kind with
            | Dfg.Delay _ -> acc (* previous-sample value, ready at 0 *)
            | _ -> Float.max acc finish.(src))
          0. node.Dfg.ins
      in
      let d =
        match node.Dfg.kind with
        | Dfg.Op op -> Hsyn_modlib.Library.min_op_delay_ns lib op
        | Dfg.Input | Dfg.Output | Dfg.Const _ | Dfg.Delay _ -> 0.
        | Dfg.Call _ -> assert false
      in
      finish.(id) <- in_ready +. d;
      longest := Float.max !longest finish.(id))
    order;
  Float.max !longest 1.0

(* ------------------------------------------------------------------ *)
(* Printing *)

let pp_schedule fmt ((d : Design.t), sch) =
  let dfg = d.Design.dfg in
  Format.fprintf fmt "@[<v>schedule for %s (makespan %d%s):@," dfg.Dfg.name sch.makespan
    (if sch.feasible then "" else ", INFEASIBLE");
  for t = 0 to sch.makespan do
    let here =
      Array.to_list dfg.Dfg.nodes
      |> List.mapi (fun id node -> (id, node))
      |> List.filter (fun (id, _) -> sch.start.(id) = t)
      |> List.map (fun (id, (node : Dfg.node)) ->
             Printf.sprintf "%s@I%d" node.Dfg.label d.Design.node_inst.(id))
    in
    if here <> [] then Format.fprintf fmt "  cycle %2d: %s@," t (String.concat " " here)
  done;
  Format.fprintf fmt "@]"

module Design = Hsyn_rtl.Design
module Sched = Hsyn_sched.Sched
module Dfg = Hsyn_dfg.Dfg
module Fu = Hsyn_modlib.Fu
module Bits = Hsyn_util.Bits
module Library = Hsyn_modlib.Library

let width_f = Float.of_int Bits.word_width

(* Registers clocked by the design, including the shared register
   files of nested RTL modules (counted once per module instance) and
   their own nested modules. *)
let rec clocked_regs (design : Design.t) =
  let used = Array.make (max 1 design.Design.n_regs) false in
  Array.iter (fun r -> if r >= 0 then used.(r) <- true) design.Design.value_reg;
  let own = Array.fold_left (fun acc u -> if u then acc + 1 else acc) 0 used in
  Array.fold_left
    (fun acc kind ->
      match kind with
      | Design.Simple _ -> acc
      | Design.Module rm -> acc + clocked_regs_of_module rm)
    own design.Design.insts

and clocked_regs_of_module (rm : Design.rtl_module) =
  match rm.Design.parts with
  | [] -> 0
  | (_, first) :: _ as parts ->
      let used = Array.make (max 1 first.Design.n_regs) false in
      List.iter
        (fun (_, (p : Design.t)) ->
          Array.iter (fun r -> if r >= 0 then used.(r) <- true) p.Design.value_reg)
        parts;
      let own = Array.fold_left (fun acc u -> if u then acc + 1 else acc) 0 used in
      Array.fold_left
        (fun acc kind ->
          match kind with
          | Design.Simple _ -> acc
          | Design.Module nested -> acc + clocked_regs_of_module nested)
        own first.Design.insts

(* Total functional-unit capacitance of a design, including nested
   modules — the basis of the per-cycle idle-switching charge. *)
let rec total_fu_cap (design : Design.t) =
  Array.fold_left
    (fun acc kind ->
      match kind with
      | Design.Simple fu -> acc +. fu.Fu.energy_cap
      | Design.Module rm -> (
          match rm.Design.parts with
          | [] -> acc
          | (_, first) :: _ -> acc +. total_fu_cap first))
    0. design.Design.insts

(* ------------------------------------------------------------------ *)
(* Activity plan: everything the estimate needs from one (design,
   schedule), as value ids in the order the hardware sees the values.
   It is built once per estimate; the per-sample work is then integer
   popcounts over the simulator's value streams. *)

type port = {
  ids : int array;  (** value ids one port sees in a sample, in activation order *)
  mux : bool;  (** fed from more than one source *)
}

type group = {
  behavior : string;
  calls : int array array;  (** argument value ids of each call, in start order *)
}

type inst =
  | Unit of float * port array  (** energy capacitance; ports in key order *)
  | Module of Design.rtl_module * group list * port array
      (** behaviour groups in the order the estimate charges them *)

type reg = {
  writes : int array;  (** value ids in availability order *)
  ties : int array;
      (** start of each run of equal availability, then [length writes];
          empty when no two writes share a cycle *)
  reg_mux : bool;
}

type plan = {
  insts : inst list;  (** instances with bound nodes, in index order *)
  regs : reg list;  (** registers with values, in index order *)
  clocked : int;  (** {!clocked_regs}, for the top-level idle term (0 below it) *)
  fu_cap : float;  (** {!total_fu_cap}, likewise *)
}

(* The stream of [ids] over all samples is sample-major; the activity
   of a port starts from an all-zero word. Every transition's term is
   hamming/16, a dyadic rational, so the float sum of those terms is
   exact and equals the integer sum divided once. *)
let activity (streams : int array array) ids =
  let prev = ref 0 and acc = ref 0 in
  for s = 0 to Array.length streams - 1 do
    let values = streams.(s) in
    for j = 0 to Array.length ids - 1 do
      let v = values.(ids.(j)) in
      acc := !acc + Bits.hamming !prev v;
      prev := v
    done
  done;
  Float.of_int !acc /. width_f

(* Register writes within one sample follow (availability, data value)
   order: runs of equal availability are sorted by the sample's data. *)
let write_activity (streams : int array array) r =
  if Array.length r.ties = 0 then activity streams r.writes
  else begin
    let buf = Array.make (Array.length r.writes) 0 in
    let prev = ref 0 and acc = ref 0 in
    for s = 0 to Array.length streams - 1 do
      let values = streams.(s) in
      for t = 0 to Array.length r.ties - 2 do
        let lo = r.ties.(t) and hi = r.ties.(t + 1) in
        for j = lo to hi - 1 do
          (* insertion sort of the run's data values *)
          let v = values.(r.writes.(j)) in
          let k = ref j in
          while !k > lo && buf.(!k - 1) > v do
            buf.(!k) <- buf.(!k - 1);
            decr k
          done;
          buf.(!k) <- v
        done;
        for j = lo to hi - 1 do
          acc := !acc + Bits.hamming !prev buf.(j);
          prev := buf.(j)
        done
      done
    done;
    Float.of_int !acc /. width_f
  end

let port_of d off (feeds : Dfg.port list) =
  let sources = List.sort_uniq compare (List.map (Area.source_of_value d) feeds) in
  {
    ids = Array.of_list (List.map (fun (p : Dfg.port) -> off.(p.Dfg.node) + p.Dfg.out) feeds);
    mux = List.length sources > 1;
  }

(* Ports of an instance from its bound nodes (ascending), keyed as in
   [Area.port_feeds]: a chain's external inputs get one key each in
   member order; other units and modules use the input port index.
   [order] arranges the feeds of one key into activation order. *)
let ports_of d off (nodes : int list) ~chain ~order =
  let dfg = d.Design.dfg in
  if chain then begin
    let external_ins =
      List.concat_map
        (fun id ->
          Array.to_list dfg.Dfg.nodes.(id).Dfg.ins
          |> List.filter (fun (p : Dfg.port) -> not (List.mem p.Dfg.node nodes)))
        nodes
    in
    Array.of_list (List.map (fun p -> port_of d off [ p ]) external_ins)
  end
  else begin
    let n_keys = List.fold_left (fun acc id -> max acc (Array.length dfg.Dfg.nodes.(id).Dfg.ins)) 0 nodes in
    Array.init n_keys (fun k ->
        List.filter_map
          (fun id ->
            let ins = dfg.Dfg.nodes.(id).Dfg.ins in
            if k < Array.length ins then Some ins.(k) else None)
          nodes
        |> order |> port_of d off)
  end

let build_plan ~top (d : Design.t) off (sch : Sched.schedule) =
  let dfg = d.Design.dfg in
  let on_inst = Design.nodes_by_inst d in
  let by_start (p1 : Dfg.port) (p2 : Dfg.port) =
    compare sch.Sched.start.(p1.Dfg.node) sch.Sched.start.(p2.Dfg.node)
  in
  let args id =
    Array.map (fun (p : Dfg.port) -> off.(p.Dfg.node) + p.Dfg.out) dfg.Dfg.nodes.(id).Dfg.ins
  in
  let insts =
    Array.to_list d.Design.insts
    |> List.mapi (fun i kind ->
           match kind, on_inst.(i) with
           | _, [] -> None
           | Design.Simple fu, nodes ->
               let ports =
                 ports_of d off nodes ~chain:(Fu.is_chain fu) ~order:(List.stable_sort by_start)
               in
               Some (Unit (fu.Fu.energy_cap, ports))
           | Design.Module rm, nodes ->
               (* the grouping table is built as the estimate always
                  built it, so its iteration order — which fixes the
                  float accumulation order — is unchanged *)
               let by_behavior = Hashtbl.create 4 in
               List.iter
                 (fun id ->
                   match dfg.Dfg.nodes.(id).Dfg.kind with
                   | Dfg.Call b ->
                       let cur = Option.value ~default:[] (Hashtbl.find_opt by_behavior b) in
                       Hashtbl.replace by_behavior b (id :: cur)
                   | _ -> ())
                 nodes;
               let groups = ref [] in
               Hashtbl.iter
                 (fun behavior calls ->
                   let calls =
                     List.stable_sort (fun a b -> compare sch.Sched.start.(a) sch.Sched.start.(b)) calls
                   in
                   groups := { behavior; calls = Array.of_list (List.map args calls) } :: !groups)
                 by_behavior;
               Some (Module (rm, List.rev !groups, ports_of d off nodes ~chain:false ~order:Fun.id)))
    |> List.filter_map Fun.id
  in
  let in_reg = Array.make (max 0 d.Design.n_regs) [] in
  for v = Array.length d.Design.value_reg - 1 downto 0 do
    let r = d.Design.value_reg.(v) in
    if r >= 0 && r < d.Design.n_regs then in_reg.(r) <- v :: in_reg.(r)
  done;
  let regs =
    Array.to_list in_reg
    |> List.filter_map (fun values ->
           if values = [] then None
           else begin
             let avail = sch.Sched.avail in
             let writes =
               Array.of_list (List.stable_sort (fun a b -> compare avail.(a) avail.(b)) values)
             in
             let n = Array.length writes in
             let tied = ref false and starts = ref [ 0 ] in
             for j = 1 to n - 1 do
               if avail.(writes.(j)) = avail.(writes.(j - 1)) then tied := true
               else starts := j :: !starts
             done;
             let ties = if !tied then Array.of_list (List.rev (n :: !starts)) else [||] in
             Some { writes; ties; reg_mux = n > 1 }
           end)
  in
  {
    insts;
    regs;
    clocked = (if top then clocked_regs d else 0);
    fu_cap = (if top then total_fu_cap d else 0.);
  }

(* [invocations] is never empty: the top level returns 0 for an empty
   trace, and every behaviour group has at least one call. *)
let rec energy_rec cache ~top ctx (sch : Sched.schedule) (design : Design.t) invocations =
  let lib = ctx.Design.lib in
  let n_samples = List.length invocations in
  let off = Sched.Prepared.value_offsets (Sched.prepared_for ~cache design.Design.dfg) in
  let streams = Sim.run ~cache design invocations in
  let plan = build_plan ~top design off sch in
  let wire = lib.Library.wire_cap and mux_cap = lib.Library.mux_cap in
  let total = ref 0. in
  (* --- functional units and modules --- *)
  List.iter
    (function
      | Unit (cap, ports) ->
          (* the interleaved operand stream of a shared unit is where
             the sharing power effect comes from *)
          let acts = Array.map (fun p -> activity streams p.ids) ports in
          let n_ports = max 1 (Array.length ports) in
          let mean_act = Array.fold_left ( +. ) 0. acts /. Float.of_int n_ports in
          total := !total +. (cap *. mean_act);
          Array.iteri
            (fun k p -> total := !total +. ((wire +. if p.mux then mux_cap else 0.) *. acts.(k)))
            ports
      | Module (rm, groups, ports) ->
          (* recurse over the merged invocation stream of each
             behaviour, under the schedule its profile came from *)
          List.iter
            (fun g ->
              let n_calls = Array.length g.calls in
              let inner = ref [] in
              for s = n_samples - 1 downto 0 do
                let values = streams.(s) in
                for c = n_calls - 1 downto 0 do
                  inner := Array.map (fun v -> values.(v)) g.calls.(c) :: !inner
                done
              done;
              let part = Design.module_part rm g.behavior in
              let part_sch = Sched.module_schedule ~cache ctx rm g.behavior in
              let e = energy_rec cache ~top:false ctx part_sch part !inner in
              total :=
                !total +. (e *. Float.of_int (n_samples * n_calls) /. Float.of_int n_samples))
            groups;
          (* module input port wiring *)
          Array.iter
            (fun p ->
              total :=
                !total +. ((wire +. if p.mux then mux_cap else 0.) *. activity streams p.ids))
            ports)
    plan.insts;
  (* --- registers --- *)
  List.iter
    (fun r ->
      let mux = if r.reg_mux then mux_cap else 0. in
      total := !total +. ((lib.Library.reg_cap +. wire +. mux) *. write_activity streams r))
    plan.regs;
  (* --- controller --- *)
  let cycles = Float.of_int (max 1 sch.Sched.makespan) in
  total := !total +. (lib.Library.ctrl_cap_per_cycle *. cycles);
  (* --- idle switching: register clocking and functional-unit
     input latching, over the whole design, every cycle --- *)
  if top then
    total :=
      !total
      +. (lib.Library.reg_clock_cap *. Float.of_int plan.clocked *. cycles)
      +. (lib.Library.fu_idle_frac *. plan.fu_cap *. cycles);
  !total /. Float.of_int n_samples

let or_transient = function
  | Some c -> c
  | None -> Sched.Cache.create ~shards:1 ~prepared_capacity:64 ~profile_capacity:256 ()

let energy_per_sample ?sched_cache ?schedule ctx cs design invocations =
  match invocations with
  | [] -> 0.
  | _ ->
      let cache = or_transient sched_cache in
      let sch =
        match schedule with Some s -> s | None -> Sched.schedule ~cache ctx cs design
      in
      energy_rec cache ~top:true ctx sch design invocations

let power ?sched_cache ctx cs design invocations ~sampling_ns =
  let e = energy_per_sample ?sched_cache ctx cs design invocations in
  e *. Hsyn_modlib.Voltage.energy_factor ctx.Design.vdd /. sampling_ns *. 1000.

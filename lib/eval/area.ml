module Design = Hsyn_rtl.Design
module Dfg = Hsyn_dfg.Dfg
module Fu = Hsyn_modlib.Fu

type breakdown = {
  units : float;
  registers : float;
  muxes : float;
  wires : float;
  controller : float;
}

let grand_total b = b.units +. b.registers +. b.muxes +. b.wires +. b.controller

(* A steering source: a register, a hardwired constant, or a direct
   (unregistered) unit output. *)
type source = Reg of int | Const_wire of int | Direct of int * int

(* A register writer. *)
type writer = From_inst of int * int | From_input of int | From_delay of int

let source_of_value (d : Design.t) (p : Dfg.port) =
  let dfg = d.Design.dfg in
  let v = Design.value_index dfg p in
  let reg = d.Design.value_reg.(v) in
  if reg >= 0 then Reg reg
  else
    match dfg.Dfg.nodes.(p.Dfg.node).Dfg.kind with
    | Dfg.Const c -> Const_wire c
    | _ -> Direct (d.Design.node_inst.(p.Dfg.node), p.Dfg.out)

(* External input ports of an instance's bound nodes, with a stable
   port key. Chain groups flatten their external inputs in member
   order; plain units and modules use the node's own port index. *)
let port_feeds (d : Design.t) i =
  let dfg = d.Design.dfg in
  let nodes = Design.nodes_on d i in
  match d.Design.insts.(i) with
  | Design.Simple fu when Fu.is_chain fu ->
      let members = nodes in
      let feeds = ref [] in
      let key = ref 0 in
      List.iter
        (fun id ->
          Array.iter
            (fun ({ Dfg.node = src; _ } as p : Dfg.port) ->
              if not (List.mem src members) then begin
                feeds := (!key, p) :: !feeds;
                incr key
              end)
            dfg.Dfg.nodes.(id).Dfg.ins)
        members;
      !feeds
  | Design.Simple _ | Design.Module _ ->
      List.concat_map
        (fun id ->
          Array.to_list dfg.Dfg.nodes.(id).Dfg.ins |> List.mapi (fun port p -> (port, p)))
        nodes

(* ------------------------------------------------------------------ *)
(* Steering counts. Each multiplexed input is a list of distinct
   sources: the feeds of one (instance, port key), or the writers of
   one register, unioned over every design sharing the resource set.
   A list of n sources costs n - 1 mux inputs and n nets, since a net
   is one distinct (source, sink) pair and no two lists share a sink. *)

let same_source a b =
  match (a, b) with
  | Reg x, Reg y | Const_wire x, Const_wire y -> Int.equal x y
  | Direct (i, o), Direct (j, p) -> Int.equal i j && Int.equal o p
  | (Reg _ | Const_wire _ | Direct _), _ -> false

let same_writer a b =
  match (a, b) with
  | From_inst (i, o), From_inst (j, p) -> Int.equal i j && Int.equal o p
  | From_input x, From_input y | From_delay x, From_delay y -> Int.equal x y
  | (From_inst _ | From_input _ | From_delay _), _ -> false

(* One design's index, built once per call: the nodes bound to each
   instance in ascending id order, and each node's first value id. *)
type index = { design : Design.t; on_inst : int list array; off : int array }

let index (d : Design.t) =
  let nodes = d.Design.dfg.Dfg.nodes in
  let on_inst = Design.nodes_by_inst d in
  let off = Array.make (Array.length nodes + 1) 0 in
  Array.iteri (fun id (node : Dfg.node) -> off.(id + 1) <- off.(id) + node.Dfg.n_out) nodes;
  { design = d; on_inst; off }

(* [source_of_value] over the index *)
let source x (p : Dfg.port) =
  let d = x.design in
  let reg = d.Design.value_reg.(x.off.(p.Dfg.node) + p.Dfg.out) in
  if reg >= 0 then Reg reg
  else
    match d.Design.dfg.Dfg.nodes.(p.Dfg.node).Dfg.kind with
    | Dfg.Const c -> Const_wire c
    | _ -> Direct (d.Design.node_inst.(p.Dfg.node), p.Dfg.out)

(* Feeds of instance [i] in one design, keyed as in [port_feeds]. A
   chain member's input is external unless its source is bound to the
   chain itself. *)
let iter_feeds x i f =
  let d = x.design in
  let nodes = d.Design.dfg.Dfg.nodes in
  match d.Design.insts.(i) with
  | Design.Simple fu when Fu.is_chain fu ->
      let key = ref 0 in
      List.iter
        (fun id ->
          Array.iter
            (fun (p : Dfg.port) ->
              if d.Design.node_inst.(p.Dfg.node) <> i then begin
                f !key (source x p);
                incr key
              end)
            nodes.(id).Dfg.ins)
        x.on_inst.(i)
  | Design.Simple _ | Design.Module _ ->
      List.iter
        (fun id -> Array.iteri (fun k p -> f k (source x p)) nodes.(id).Dfg.ins)
        x.on_inst.(i)

(* (used registers, mux inputs, nets) over designs sharing one
   resource set of [n_insts] instances and [n_regs] registers *)
let counts n_insts n_regs (xs : index list) =
  let mux_inputs = ref 0 and nets = ref 0 in
  let tally = function
    | [] -> ()
    | l ->
        let n = List.length l in
        nets := !nets + n;
        mux_inputs := !mux_inputs + n - 1
  in
  (* instance input ports, one instance at a time; [by_key] is reset
     after each *)
  let by_key = ref (Array.make 4 []) in
  let add key src =
    if key >= Array.length !by_key then begin
      let grown = Array.make (2 * key) [] in
      Array.blit !by_key 0 grown 0 (Array.length !by_key);
      by_key := grown
    end;
    let cur = !by_key.(key) in
    if not (List.exists (same_source src) cur) then !by_key.(key) <- src :: cur
  in
  for i = 0 to n_insts - 1 do
    List.iter (fun x -> iter_feeds x i add) xs;
    Array.iteri
      (fun key l ->
        tally l;
        !by_key.(key) <- [])
      !by_key
  done;
  (* register inputs *)
  let used = Array.make (max 1 n_regs) false in
  let writers = Array.make (max 1 n_regs) [] in
  let add_writer reg w =
    let cur = writers.(reg) in
    if not (List.exists (same_writer w) cur) then writers.(reg) <- w :: cur
  in
  List.iter
    (fun x ->
      let d = x.design in
      Array.iteri
        (fun id (node : Dfg.node) ->
          for out = 0 to node.Dfg.n_out - 1 do
            let reg = d.Design.value_reg.(x.off.(id) + out) in
            if reg >= 0 then begin
              used.(reg) <- true;
              match node.Dfg.kind with
              | Dfg.Input -> add_writer reg (From_input id)
              | Dfg.Delay _ -> add_writer reg (From_delay id)
              | Dfg.Op _ | Dfg.Call _ -> add_writer reg (From_inst (d.Design.node_inst.(id), out))
              | Dfg.Const _ | Dfg.Output -> ()
            end
          done)
        d.Design.dfg.Dfg.nodes)
    xs;
  Array.iter tally writers;
  let used_regs = Array.fold_left (fun acc u -> if u then acc + 1 else acc) 0 used in
  (used_regs, !mux_inputs, !nets)

(* The scheduler cache threads through the recursion because module
   areas need module profiles (one controller state per busy cycle),
   and computing a profile schedules the module's part. Callers on the
   evaluation hot path pass their session's cache; the public wrappers
   below default to a transient one scoped to the call. *)
let rec inst_area cache ctx = function
  | Design.Simple fu -> fu.Fu.area
  | Design.Module rm -> module_area_rec cache ctx rm

and datapath_of_parts cache ctx (first : Design.t) (designs : Design.t list) =
  let lib = ctx.Design.lib in
  let units = Array.fold_left (fun acc k -> acc +. inst_area cache ctx k) 0. first.Design.insts in
  let n_insts = Array.length first.Design.insts in
  let used_regs, mux_inputs, nets =
    counts n_insts first.Design.n_regs (List.map index designs)
  in
  {
    units;
    registers = Float.of_int used_regs *. lib.Hsyn_modlib.Library.reg_area;
    muxes = Float.of_int mux_inputs *. lib.Hsyn_modlib.Library.mux_area_per_input;
    wires = Float.of_int nets *. lib.Hsyn_modlib.Library.wire_area;
    controller = 0.;
  }

and module_area_rec cache ctx (rm : Design.rtl_module) =
  match rm.Design.parts with
  | [] -> invalid_arg (Printf.sprintf "Area: module %s has no parts" rm.Design.rm_name)
  | (_, first) :: _ as parts ->
      let b = datapath_of_parts cache ctx first (List.map snd parts) in
      let states =
        List.fold_left
          (fun acc (behavior, _) ->
            let p = Hsyn_sched.Sched.module_profile ~cache ctx rm behavior in
            acc + p.Hsyn_sched.Sched.busy)
          0 parts
      in
      let controller =
        Float.of_int states *. ctx.Design.lib.Hsyn_modlib.Library.ctrl_area_per_state
      in
      grand_total { b with controller }

let or_transient = function
  | Some c -> c
  | None -> Hsyn_sched.Sched.Cache.create ~shards:1 ~prepared_capacity:64 ~profile_capacity:256 ()

let datapath ?sched_cache ctx d = datapath_of_parts (or_transient sched_cache) ctx d [ d ]

let module_area ?sched_cache ctx rm = module_area_rec (or_transient sched_cache) ctx rm

let total ?sched_cache ctx d ~n_states =
  let b = datapath ?sched_cache ctx d in
  { b with controller = Float.of_int n_states *. ctx.Design.lib.Hsyn_modlib.Library.ctrl_area_per_state }

let pp_breakdown fmt b =
  Format.fprintf fmt "units=%.1f regs=%.1f muxes=%.1f wires=%.1f ctrl=%.1f total=%.1f" b.units
    b.registers b.muxes b.wires b.controller (grand_total b)

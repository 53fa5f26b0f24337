(* Reference area model: the string-keyed steering count that
   production [Hsyn_eval.Area] replaced, kept unchanged as the slow
   side of the [area-diff] oracle and of test_area_diff. It names every
   point-to-point net with a string, dedups sources with polymorphic
   list membership and finds an instance's nodes with an O(nodes) scan.
   Do not optimize it: its value is that it is obviously the model
   DESIGN.md describes. *)

module Design = Hsyn_rtl.Design
module Dfg = Hsyn_dfg.Dfg
module Fu = Hsyn_modlib.Fu
module Area = Hsyn_eval.Area

open Area

(* A register writer. *)
type writer = From_inst of int * int | From_input of int | From_delay of int

let reg_writers (d : Design.t) =
  let dfg = d.Design.dfg in
  let writers : (int, writer list) Hashtbl.t = Hashtbl.create 16 in
  let add reg w =
    let cur = match Hashtbl.find_opt writers reg with Some l -> l | None -> [] in
    if not (List.mem w cur) then Hashtbl.replace writers reg (w :: cur)
  in
  Array.iteri
    (fun v reg ->
      if reg >= 0 then begin
        let ({ Dfg.node; out } : Dfg.port) = Design.value_of_index dfg v in
        match dfg.Dfg.nodes.(node).Dfg.kind with
        | Dfg.Input -> add reg (From_input node)
        | Dfg.Delay _ -> add reg (From_delay node)
        | Dfg.Op _ | Dfg.Call _ -> add reg (From_inst (d.Design.node_inst.(node), out))
        | Dfg.Const _ | Dfg.Output -> ()
      end)
    d.Design.value_reg;
  writers

(* Steering cost over a list of designs sharing one resource set (a
   single design for the top level; all parts for a merged module). *)
let steering (ctx : Design.ctx) (designs : Design.t list) =
  let lib = ctx.Design.lib in
  let first = List.hd designs in
  let n_insts = Array.length first.Design.insts in
  let port_sources : (int * int, source list) Hashtbl.t = Hashtbl.create 32 in
  let nets : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let add_port_source i key src =
    let cur = match Hashtbl.find_opt port_sources (i, key) with Some l -> l | None -> [] in
    if not (List.mem src cur) then Hashtbl.replace port_sources (i, key) (src :: cur)
  in
  let net_name src (i, key) =
    let s =
      match src with
      | Reg r -> Printf.sprintf "r%d" r
      | Const_wire c -> Printf.sprintf "c%d" c
      | Direct (j, o) -> Printf.sprintf "d%d.%d" j o
    in
    Printf.sprintf "%s->i%d.%d" s i key
  in
  List.iter
    (fun d ->
      for i = 0 to n_insts - 1 do
        List.iter
          (fun (key, p) ->
            let src = source_of_value d p in
            add_port_source i key src;
            Hashtbl.replace nets (net_name src (i, key)) ())
          (port_feeds d i)
      done)
    designs;
  let mux_inputs =
    Hashtbl.fold (fun _ sources acc -> acc + max 0 (List.length sources - 1)) port_sources 0
  in
  (* register input steering, unioned across designs *)
  let reg_sources : (int, writer list) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun d ->
      Hashtbl.iter
        (fun reg ws ->
          let cur = match Hashtbl.find_opt reg_sources reg with Some l -> l | None -> [] in
          let merged = List.fold_left (fun acc w -> if List.mem w acc then acc else w :: acc) cur ws in
          Hashtbl.replace reg_sources reg merged;
          List.iter
            (fun w ->
              let s =
                match w with
                | From_inst (i, o) -> Printf.sprintf "i%d.%d" i o
                | From_input k -> Printf.sprintf "in%d" k
                | From_delay k -> Printf.sprintf "z%d" k
              in
              Hashtbl.replace nets (Printf.sprintf "%s->r%d" s reg) ())
            ws)
        (reg_writers d))
    designs;
  let reg_mux_inputs =
    Hashtbl.fold (fun _ ws acc -> acc + max 0 (List.length ws - 1)) reg_sources 0
  in
  let muxes = Float.of_int (mux_inputs + reg_mux_inputs) *. lib.Hsyn_modlib.Library.mux_area_per_input in
  let wires = Float.of_int (Hashtbl.length nets) *. lib.Hsyn_modlib.Library.wire_area in
  (muxes, wires)

let rec inst_area cache ctx = function
  | Design.Simple fu -> fu.Fu.area
  | Design.Module rm -> module_area_rec cache ctx rm

and datapath_of_parts cache ctx (designs : Design.t list) =
  let lib = ctx.Design.lib in
  let first = List.hd designs in
  let units = Array.fold_left (fun acc k -> acc +. inst_area cache ctx k) 0. first.Design.insts in
  let used_regs =
    let used = Array.make (max 1 first.Design.n_regs) false in
    List.iter
      (fun (d : Design.t) -> Array.iter (fun r -> if r >= 0 then used.(r) <- true) d.Design.value_reg)
      designs;
    Array.fold_left (fun acc u -> if u then acc + 1 else acc) 0 used
  in
  let registers = Float.of_int used_regs *. lib.Hsyn_modlib.Library.reg_area in
  let muxes, wires = steering ctx designs in
  { units; registers; muxes; wires; controller = 0. }

and module_area_rec cache ctx (rm : Design.rtl_module) =
  let parts = List.map snd rm.Design.parts in
  let b = datapath_of_parts cache ctx parts in
  let states =
    List.fold_left
      (fun acc (behavior, _) ->
        let p = Hsyn_sched.Sched.module_profile ~cache ctx rm behavior in
        acc + p.Hsyn_sched.Sched.busy)
      0 rm.Design.parts
  in
  let controller = Float.of_int states *. ctx.Design.lib.Hsyn_modlib.Library.ctrl_area_per_state in
  grand_total { b with controller }

let or_transient = function
  | Some c -> c
  | None -> Hsyn_sched.Sched.Cache.create ~shards:1 ~prepared_capacity:64 ~profile_capacity:256 ()

let datapath ?sched_cache ctx d = datapath_of_parts (or_transient sched_cache) ctx [ d ]

let module_area ?sched_cache ctx rm = module_area_rec (or_transient sched_cache) ctx rm

let total ?sched_cache ctx d ~n_states =
  let b = datapath ?sched_cache ctx d in
  { b with controller = Float.of_int n_states *. ctx.Design.lib.Hsyn_modlib.Library.ctrl_area_per_state }

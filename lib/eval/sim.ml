module Design = Hsyn_rtl.Design
module Dfg = Hsyn_dfg.Dfg
module Op = Hsyn_dfg.Op
module Sched = Hsyn_sched.Sched

(* A design compiles into a program over value ids (the numbering of
   [Design.value_index]): a prologue that places inputs, constants and
   delay outputs, then one instruction per operation or call in
   topological order. Calls run the compiled program of the module
   part they are bound to. *)

type instr =
  | Un of Op.t * int * int  (** op, destination, operand *)
  | Bin of Op.t * int * int * int  (** op, destination, operands *)
  | Call of prog * int array * int array
      (** part, argument value ids, destination value ids *)

and prog = {
  n_values : int;
  in_dst : int array;  (** value id of each primary input, by position *)
  const_dst : int array;
  const_val : int array;
  delay_dst : int array;  (** value id of each Delay's output *)
  delay_src : int array;  (** value id each Delay latches at the end of a sample *)
  delay_init : int array;
  code : instr array;
  out_src : int array;  (** value id feeding each primary output *)
  scratch : int array;
      (** the values of one invocation as a called part: constants and
          delay initial values are written once, since a part's delays
          restart at every invocation and nothing else writes them *)
}

let width_mismatch () = invalid_arg "Sim: input vector width mismatch"

(* Compile [design]; [parts] holds the programs already compiled in this
   run, so a part shared by several calls (or modules) compiles once. *)
let rec compile cache parts (design : Design.t) =
  let dfg = design.Design.dfg in
  let prep = Sched.prepared_for ?cache dfg in
  let off = Sched.Prepared.value_offsets prep in
  let n_nodes = Array.length dfg.Dfg.nodes in
  let value (p : Dfg.port) = off.(p.Dfg.node) + p.Dfg.out in
  let consts = ref [] and delays = ref [] and code = ref [] in
  Array.iter
    (fun id ->
      let node = dfg.Dfg.nodes.(id) in
      match node.Dfg.kind with
      | Dfg.Input | Dfg.Output -> ()
      | Dfg.Const v -> consts := (off.(id), v) :: !consts
      | Dfg.Delay init -> delays := (off.(id), value node.Dfg.ins.(0), init) :: !delays
      | Dfg.Op op ->
          (* [Dfg.validate] guarantees the operand count is the arity *)
          let ins = node.Dfg.ins in
          code :=
            (if Array.length ins = 1 then Un (op, off.(id), value ins.(0))
             else Bin (op, off.(id), value ins.(0), value ins.(1)))
            :: !code
      | Dfg.Call behavior ->
          let rm =
            match design.Design.insts.(design.Design.node_inst.(id)) with
            | Design.Module rm -> rm
            | Design.Simple _ -> invalid_arg "Sim: call bound to simple unit"
          in
          let part = compile_part cache parts (Design.module_part rm behavior) in
          let dsts = Array.init (Array.length part.out_src) (fun j -> off.(id) + j) in
          code := Call (part, Array.map value node.Dfg.ins, dsts) :: !code)
    (Sched.Prepared.topo_order prep);
  let consts = Array.of_list (List.rev !consts) and delays = Array.of_list (List.rev !delays) in
  let scratch = Array.make off.(n_nodes) 0 in
  Array.iter (fun (d, v) -> scratch.(d) <- v) consts;
  Array.iter (fun (d, _, init) -> scratch.(d) <- init) delays;
  {
    n_values = off.(n_nodes);
    in_dst = Array.map (fun id -> off.(id)) dfg.Dfg.inputs;
    const_dst = Array.map fst consts;
    const_val = Array.map snd consts;
    delay_dst = Array.map (fun (d, _, _) -> d) delays;
    delay_src = Array.map (fun (_, s, _) -> s) delays;
    delay_init = Array.map (fun (_, _, i) -> i) delays;
    code = Array.of_list (List.rev !code);
    out_src = Array.map (fun id -> value dfg.Dfg.nodes.(id).Dfg.ins.(0)) dfg.Dfg.outputs;
    scratch;
  }

and compile_part cache parts part =
  match List.assq_opt part !parts with
  | Some p -> p
  | None ->
      let p = compile cache parts part in
      parts := (part, p) :: !parts;
      p

(* Execute the instructions of [p] over [values], whose prologue slots
   are already filled. A part's scratch array is reused across calls:
   the call graph is acyclic, so a part is never active twice on the
   stack, and its outputs are copied out before the next call. *)
let rec exec p (values : int array) =
  let code = p.code in
  for k = 0 to Array.length code - 1 do
    match Array.unsafe_get code k with
    | Un (op, d, a) -> values.(d) <- Op.eval1 op values.(a)
    | Bin (op, d, a, b) -> values.(d) <- Op.eval2 op values.(a) values.(b)
    | Call (q, args, dsts) ->
        if Array.length args <> Array.length q.in_dst then width_mismatch ();
        let inner = q.scratch in
        for i = 0 to Array.length args - 1 do
          inner.(q.in_dst.(i)) <- values.(args.(i))
        done;
        exec q inner;
        for j = 0 to Array.length dsts - 1 do
          values.(dsts.(j)) <- inner.(q.out_src.(j))
        done
  done

(* One top-level sample: delay outputs carry the previous sample's
   value from [state], which is updated in place once every value of
   the sample is known. *)
let step p state (inputs : int array) =
  if Array.length inputs <> Array.length p.in_dst then width_mismatch ();
  let values = Array.make p.n_values 0 in
  Array.iteri (fun k d -> values.(d) <- inputs.(k)) p.in_dst;
  Array.iteri (fun k d -> values.(d) <- p.const_val.(k)) p.const_dst;
  Array.iteri (fun k d -> values.(d) <- state.(k)) p.delay_dst;
  exec p values;
  Array.iteri (fun k s -> state.(k) <- values.(s)) p.delay_src;
  values

let run ?cache design invocations =
  match invocations with
  | [] -> [||]
  | _ ->
      let p = compile cache (ref []) design in
      let state = Array.copy p.delay_init in
      Array.of_list (List.map (step p state) invocations)

let outputs (design : Design.t) streams =
  let dfg = design.Design.dfg in
  let src =
    Array.map
      (fun out_id -> Design.value_index dfg dfg.Dfg.nodes.(out_id).Dfg.ins.(0))
      dfg.Dfg.outputs
  in
  Array.to_list streams |> List.map (fun values -> Array.map (fun v -> values.(v)) src)

(* A trivial design wrapper lets the flat reference path reuse [run]:
   bind nothing (flat graphs evaluate purely). *)
let run_flat (dfg : Dfg.t) invocations =
  if Dfg.n_calls dfg > 0 then invalid_arg "Sim.run_flat: graph must be flat";
  let design =
    {
      Design.dfg;
      insts = [||];
      node_inst = Array.make (Array.length dfg.Dfg.nodes) (-1);
      value_reg = Array.make (Design.n_values dfg) (-1);
      n_regs = 0;
    }
  in
  outputs design (run design invocations)

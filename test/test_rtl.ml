(* Tests for the RTL design IR: value numbering, binding queries,
   functional updates, validation, compaction. *)

module Design = Hsyn_rtl.Design
module Dfg = Hsyn_dfg.Dfg
module Op = Hsyn_dfg.Op
module Fu = Hsyn_modlib.Fu
module Library = Hsyn_modlib.Library

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let ctx = Tu.ctx ()
let lib = Library.default

(* ------------------------------------------------------------------ *)
(* Value numbering *)

let test_value_numbering_dense () =
  let g = Tu.small_graph () in
  let nv = Design.n_values g in
  checki "one value per simple node with an output" 7 nv;
  for v = 0 to nv - 1 do
    let p = Design.value_of_index g v in
    checki "roundtrip" v (Design.value_index g p)
  done

let test_value_numbering_multi_output () =
  let registry, g = Tu.hier_graph () in
  ignore registry;
  (* 3 inputs + 2 single-output calls = 5 values (output node has none) *)
  checki "values" 5 (Design.n_values g);
  Alcotest.check_raises "out of range" (Invalid_argument "Design.value_of_index") (fun () ->
      ignore (Design.value_of_index g 99))

(* ------------------------------------------------------------------ *)
(* Initial design shape *)

let test_initial_parallel () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  checki "one instance per op" 3 (Array.length d.Design.insts);
  checkb "all distinct" true
    (let bound = Array.to_list d.Design.node_inst |> List.filter (fun i -> i >= 0) in
     List.sort_uniq compare bound = List.sort compare bound);
  checkb "validates" true (Design.validate ctx d = Ok ());
  (* fastest units selected *)
  Array.iter
    (fun kind ->
      match kind with
      | Design.Simple fu -> checkb "fastest" true (fu.Fu.name = "add1" || fu.Fu.name = "mult1")
      | Design.Module _ -> Alcotest.fail "no modules expected")
    d.Design.insts

let test_initial_hier () =
  let registry, g = Tu.hier_graph () in
  let d = Tu.initial ~registry ctx g in
  checki "two module instances" 2 (Array.length d.Design.insts);
  Array.iter
    (fun kind ->
      match kind with
      | Design.Module rm -> checkb "implements mac" true (List.mem_assoc "mac" rm.Design.parts)
      | Design.Simple _ -> Alcotest.fail "expected module")
    d.Design.insts;
  checkb "validates" true (Design.validate ctx d = Ok ())

(* ------------------------------------------------------------------ *)
(* Queries *)

let test_nodes_on_and_inst_used () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let i = Tu.inst_of d "s1" in
  checkb "bound" true (i >= 0);
  checki "one node" 1 (List.length (Design.nodes_on d i));
  checkb "used" true (Design.inst_used d i)

let test_values_in_reg_and_count () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  (* 4 inputs + 3 op results = 7 registers, one value each *)
  checki "regs used" 7 (Design.reg_count_used d);
  for r = 0 to d.Design.n_regs - 1 do
    checki "one value per reg" 1 (List.length (Design.values_in_reg d r))
  done

(* ------------------------------------------------------------------ *)
(* Functional updates *)

let test_with_inst () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let i = Tu.inst_of d "s1" in
  let d' = Design.with_inst d i (Design.Simple (Library.find_exn lib "add2")) in
  (match d'.Design.insts.(i) with
  | Design.Simple fu -> checkb "replaced" true (fu.Fu.name = "add2")
  | Design.Module _ -> Alcotest.fail "unexpected module");
  (* original untouched *)
  match d.Design.insts.(i) with
  | Design.Simple fu -> checkb "original intact" true (fu.Fu.name = "add1")
  | Design.Module _ -> Alcotest.fail "unexpected module"

let test_with_binding_and_compact () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let i1 = Tu.inst_of d "s1" and i2 = Tu.inst_of d "s2" in
  let n2 = Tu.node_id g "s2" in
  let d' = Design.with_binding d n2 i1 in
  checkb "i2 now unused" false (Design.inst_used d' i2);
  let d'' = Design.compact d' in
  checki "compact drops instance" 2 (Array.length d''.Design.insts);
  checkb "still valid" true (Design.validate ctx d'' = Ok ());
  checki "s1 and s2 share" (Tu.inst_of d'' "s1") (Tu.inst_of d'' "s2")

let test_with_value_reg_grows () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let v = 0 in
  let d' = Design.with_value_reg d v (d.Design.n_regs + 3) in
  checki "n_regs grown" (d.Design.n_regs + 4) d'.Design.n_regs

let test_add_inst_and_fresh_reg () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let d', i = Design.add_inst d (Design.Simple (Library.find_exn lib "alu1")) in
  checki "appended" (Array.length d.Design.insts) i;
  checki "one more" (Array.length d.Design.insts + 1) (Array.length d'.Design.insts);
  let d'', r = Design.fresh_reg d in
  checki "fresh reg id" d.Design.n_regs r;
  checki "count bumped" (d.Design.n_regs + 1) d''.Design.n_regs

let test_compact_renumbers_registers () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  (* move value 0 to a fresh far-away register, leaving a hole *)
  let d = Design.with_value_reg d 0 (d.Design.n_regs + 5) in
  let d' = Design.compact d in
  checki "dense registers" (Design.reg_count_used d') d'.Design.n_regs

(* ------------------------------------------------------------------ *)
(* Validation errors *)

let test_validate_unbound_op () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let n = Tu.node_id g "m" in
  let d' = Design.with_binding d n (-1) in
  checkb "unbound rejected" true (Design.validate ctx d' <> Ok ())

let test_validate_incompatible_unit () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let i = Tu.inst_of d "m" in
  let d' = Design.with_inst d i (Design.Simple (Library.find_exn lib "add1")) in
  checkb "mult on adder rejected" true (Design.validate ctx d' <> Ok ())

let test_validate_chain_shape () =
  (* two independent adds on one chain unit: not a chain -> invalid *)
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let chain = Library.find_exn lib "chained_add2" in
  let i1 = Tu.inst_of d "s1" in
  let n2 = Tu.node_id g "s2" in
  let d' = Design.with_inst d i1 (Design.Simple chain) in
  let d' = Design.with_binding d' n2 i1 in
  checkb "parallel adds are not a chain" true (Design.validate ctx d' <> Ok ());
  (* a genuine chain is accepted *)
  let gc = Tu.add_chain_graph () in
  let dc = Tu.initial ctx gc in
  let j1 = Tu.inst_of dc "s1" in
  let m2 = Tu.node_id gc "s2" in
  let dc' = Design.with_inst dc j1 (Design.Simple chain) in
  let dc' = Design.with_binding dc' m2 j1 in
  checkb "dependent adds form a chain" true (Design.validate ctx (Design.compact dc') = Ok ())

let test_validate_call_on_simple () =
  let registry, g = Tu.hier_graph () in
  let d = Tu.initial ~registry ctx g in
  let n = Tu.node_id g "c1" in
  let d', i = Design.add_inst d (Design.Simple (Library.find_exn lib "add1")) in
  let d' = Design.with_binding d' n i in
  checkb "call on simple unit rejected" true (Design.validate ctx d' <> Ok ())

(* ------------------------------------------------------------------ *)
(* Module queries *)

let test_module_part_lookup () =
  let registry, g = Tu.hier_graph () in
  let d = Tu.initial ~registry ctx g in
  match d.Design.insts.(0) with
  | Design.Module rm ->
      checkb "part exists" true (Design.module_part rm "mac" == List.assoc "mac" rm.Design.parts);
      Alcotest.check (Alcotest.list Alcotest.string) "behaviors" [ "mac" ]
        (Design.module_behaviors rm);
      Alcotest.check_raises "missing behavior" Not_found (fun () ->
          ignore (Design.module_part rm "nosuch"))
  | Design.Simple _ -> Alcotest.fail "expected module"

(* ------------------------------------------------------------------ *)
(* Equality, fingerprints, the instance index and compaction over the
   paper's suite and over fuzz-generated (module-bearing) designs *)

module Suite = Hsyn_benchmarks.Suite
module Flatten = Hsyn_dfg.Flatten
module Gen = Hsyn_fuzz.Gen

(* The Table 4 benchmarks' initial designs: hierarchical (the power
   flow's starting point) and flattened (the area baseline's). *)
let suite_designs () =
  List.concat_map
    (fun (b : Suite.t) ->
      let hier = Tu.initial ~registry:b.Suite.registry ctx b.Suite.dfg in
      let flat =
        Tu.initial ~registry:b.Suite.registry ctx (Flatten.flatten b.Suite.registry b.Suite.dfg)
      in
      [ (b.Suite.name ^ "/hier", hier); (b.Suite.name ^ "/flat", flat) ])
    (Suite.all ())

let fuzz_designs () =
  List.filter_map
    (fun seed ->
      let prog = Gen.program (Hsyn_util.Rng.create seed) in
      match Tu.initial ~registry:prog.Hsyn_dfg.Text.registry ctx (Gen.top_graph prog) with
      | d -> Some (Printf.sprintf "fuzz %d" seed, d)
      | exception Not_found -> None)
    (List.init 40 Fun.id)

let corpus () = suite_designs () @ fuzz_designs ()

let deep_copy (x : 'a) : 'a = Marshal.from_string (Marshal.to_string x []) 0

(* Designs differing from [d] in exactly one field (or one nested
   field), each paired with the field's name. *)
let mutants (d : Design.t) =
  let first_bound =
    let rec go id =
      if id >= Array.length d.Design.node_inst then None
      else if d.Design.node_inst.(id) >= 0 then Some id
      else go (id + 1)
    in
    go 0
  in
  let value_reg =
    if Array.length d.Design.value_reg = 0 then []
    else
      let vr = Array.copy d.Design.value_reg in
      vr.(0) <- (if vr.(0) = 0 then 1 else 0);
      [ ("value_reg", { d with Design.value_reg = vr }) ]
  in
  let node_inst =
    match first_bound with
    | Some id -> [ ("node_inst", Design.with_binding d id (-1)) ]
    | None -> []
  in
  let inst =
    if Array.length d.Design.insts = 0 then []
    else
      match d.Design.insts.(0) with
      | Design.Simple fu ->
          [
            ("unit name", Design.with_inst d 0 (Design.Simple { fu with Fu.name = fu.Fu.name ^ "'" }));
            ("unit area", Design.with_inst d 0 (Design.Simple { fu with Fu.area = fu.Fu.area +. 1. }));
          ]
      | Design.Module rm ->
          let part_mutant =
            match rm.Design.parts with
            | (b, p) :: rest ->
                [
                  ( "module part",
                    Design.with_inst d 0
                      (Design.Module
                         {
                           rm with
                           Design.parts = (b, { p with Design.n_regs = p.Design.n_regs + 1 }) :: rest;
                         }) );
                ]
            | [] -> []
          in
          ( "module name",
            Design.with_inst d 0 (Design.Module { rm with Design.rm_name = rm.Design.rm_name ^ "'" })
          )
          :: part_mutant
  in
  let label =
    let g = deep_copy d.Design.dfg in
    let node = g.Dfg.nodes.(0) in
    g.Dfg.nodes.(0) <- { node with Dfg.label = node.Dfg.label ^ "'" };
    ("dfg label", { d with Design.dfg = g })
  in
  (("n_regs", { d with Design.n_regs = d.Design.n_regs + 1 }) :: label :: value_reg)
  @ node_inst @ inst

let has_module (d : Design.t) =
  Array.exists (function Design.Module _ -> true | Design.Simple _ -> false) d.Design.insts

let test_equal_agrees_with_structural () =
  checkb "fuzz corpus has module designs" true
    (List.exists (fun (_, d) -> has_module d) (fuzz_designs ()));
  List.iter
    (fun (name, d) ->
      checkb (name ^ ": reflexive") true (Design.equal d d);
      checkb (name ^ ": marshal copy") true (Design.equal d (deep_copy d));
      checkb (name ^ ": copy fingerprint") true
        (Int64.equal (Design.fingerprint d) (Design.fingerprint (deep_copy d)));
      List.iter
        (fun (field, m) ->
          let what = Printf.sprintf "%s: %s mutant" name field in
          checkb what (d = m) (Design.equal d m);
          checkb what (m = d) (Design.equal m d);
          checkb (what ^ " is a mutant") false (Design.equal d m))
        (mutants d))
    (corpus ())

(* Computed with the closure-folding hasher this one replaced: the
   fingerprint is part of results and cache files, so its bits are
   pinned. *)
let golden_fingerprints =
  [
    ("avenhaus_cascade", "e66808079bbd85bb", "fdab85af7a2e3560");
    ("lat", "b4e3f759e5d12e37", "7a27080c959d4fb1");
    ("dct", "dbc992ba8741b59f", "e2a80c245b810d3c");
    ("iir", "d0ef4d4b9576382c", "dda1b61ccb996676");
    ("hier_paulin", "e1420297f39e5f1f", "a818b0470887cfc6");
    ("test1", "ece9b6cd20346f77", "5acbe23d4f4fab7b");
  ]

let test_golden_fingerprints () =
  let designs = suite_designs () in
  let hex d = Printf.sprintf "%016Lx" (Design.fingerprint d) in
  List.iter
    (fun (bench, hier, flat) ->
      (* twice: the second call goes through the per-domain graph memo *)
      for _ = 1 to 2 do
        Alcotest.(check string) (bench ^ "/hier") hier (hex (List.assoc (bench ^ "/hier") designs));
        Alcotest.(check string) (bench ^ "/flat") flat (hex (List.assoc (bench ^ "/flat") designs))
      done)
    golden_fingerprints

(* The per-instance-scan compaction the one-pass [Design.compact]
   replaced, kept as its reference. *)
let reference_compact (d : Design.t) =
  let inst_map = Array.make (Array.length d.Design.insts) (-1) in
  let kept = ref [] in
  let next = ref 0 in
  Array.iteri
    (fun i kind ->
      if Design.inst_used d i then begin
        inst_map.(i) <- !next;
        incr next;
        kept := kind :: !kept
      end)
    d.Design.insts;
  let insts = Array.of_list (List.rev !kept) in
  let node_inst = Array.map (fun i -> if i < 0 then -1 else inst_map.(i)) d.Design.node_inst in
  let reg_map = Array.make d.Design.n_regs (-1) in
  let next_reg = ref 0 in
  Array.iter
    (fun r ->
      if r >= 0 && reg_map.(r) < 0 then begin
        reg_map.(r) <- !next_reg;
        incr next_reg
      end)
    d.Design.value_reg;
  let value_reg = Array.map (fun r -> if r < 0 then -1 else reg_map.(r)) d.Design.value_reg in
  { d with Design.insts; node_inst; value_reg; n_regs = !next_reg }

(* Each design plus variants with unused instances (at the end and in
   the middle) and unused or out-of-order registers. *)
let with_holes (name, (d : Design.t)) =
  let n = Array.length d.Design.insts in
  let trailing = if n = 0 then [] else [ (name ^ " +unused inst", fst (Design.add_inst d d.Design.insts.(0))) ] in
  let middle =
    if n < 2 then []
    else [ (name ^ " inst 0 emptied", Design.with_bindings d (Design.nodes_on d 0) (n - 1)) ]
  in
  let regs =
    if Array.length d.Design.value_reg = 0 then []
    else
      [
        (name ^ " reg hole", Design.with_value_reg d 0 (d.Design.n_regs + 3));
        (name ^ " spare reg", fst (Design.fresh_reg d));
        ( name ^ " regs reversed",
          { d with Design.value_reg = Array.map (fun r -> if r < 0 then r else d.Design.n_regs - 1 - r) d.Design.value_reg } );
      ]
  in
  ((name, d) :: trailing) @ middle @ regs

let test_nodes_by_inst () =
  List.iter
    (fun (name, d) ->
      let idx = Design.nodes_by_inst d in
      checki (name ^ ": one entry per instance") (Array.length d.Design.insts) (Array.length idx);
      Array.iteri
        (fun i nodes ->
          Alcotest.(check (list int)) (Printf.sprintf "%s: I%d" name i) (Design.nodes_on d i) nodes)
        idx)
    (List.concat_map with_holes (corpus ()))

let test_compact_matches_reference () =
  List.iter
    (fun (name, d) ->
      let fast = Design.compact d and slow = reference_compact d in
      checkb name true (fast = slow);
      checkb (name ^ " (equal)") true (Design.equal fast slow))
    (List.concat_map with_holes (corpus ()))

let test_with_bindings () =
  let g = Tu.small_graph () in
  let d = Tu.initial ctx g in
  let i1 = Tu.inst_of d "s1" in
  let nodes = [ Tu.node_id g "s2"; Tu.node_id g "m" ] in
  let one_copy = Design.with_bindings d nodes i1 in
  let folded = List.fold_left (fun d n -> Design.with_binding d n i1) d nodes in
  checkb "same as folding with_binding" true (one_copy = folded);
  checkb "original intact" true (Design.inst_used d (Tu.inst_of d "s2"))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "rtl"
    [
      ( "values",
        [
          tc "dense numbering" test_value_numbering_dense;
          tc "multi-output calls" test_value_numbering_multi_output;
        ] );
      ( "initial",
        [ tc "fully parallel" test_initial_parallel; tc "hierarchical" test_initial_hier ] );
      ( "queries",
        [
          tc "nodes_on / inst_used" test_nodes_on_and_inst_used;
          tc "values_in_reg" test_values_in_reg_and_count;
          tc "module part lookup" test_module_part_lookup;
        ] );
      ( "updates",
        [
          tc "with_inst" test_with_inst;
          tc "with_binding + compact" test_with_binding_and_compact;
          tc "with_value_reg grows" test_with_value_reg_grows;
          tc "add_inst / fresh_reg" test_add_inst_and_fresh_reg;
          tc "compact renumbers registers" test_compact_renumbers_registers;
        ] );
      ( "validate",
        [
          tc "unbound op" test_validate_unbound_op;
          tc "incompatible unit" test_validate_incompatible_unit;
          tc "chain shape" test_validate_chain_shape;
          tc "call on simple" test_validate_call_on_simple;
        ] );
      ( "identity",
        [
          tc "equal agrees with =" test_equal_agrees_with_structural;
          tc "golden fingerprints" test_golden_fingerprints;
          tc "nodes_by_inst = nodes_on" test_nodes_by_inst;
          tc "one-pass compact = reference" test_compact_matches_reference;
          tc "with_bindings = folded with_binding" test_with_bindings;
        ] );
    ]

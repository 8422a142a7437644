(* Shared random-tree generators for the test suites.

   Two flavours are provided: a direct PRNG-driven generator (for plain
   alcotest cases that need one sample), and QCheck arbitraries (for
   property tests).  Trees shrink poorly under generic shrinking, so
   counterexamples are reported unshrunk; sizes are kept small instead. *)

module Tree = Tsj_tree.Tree
module Label = Tsj_tree.Label
module Prng = Tsj_util.Prng

let alphabet n = Array.init n (fun i -> Label.intern (Printf.sprintf "l%d" i))

let default_alphabet = alphabet 8

(* Random tree with exactly [size] nodes: start from a single node and
   repeatedly attach a leaf at a uniformly random position under a
   uniformly random existing node (chosen by preorder index).  All shapes
   are reachable. *)
let random_tree ?(labels = default_alphabet) rng size =
  if size <= 0 then invalid_arg "Gen.random_tree: size must be positive";
  let new_label () = Prng.choice rng labels in
  (* Attach a fresh leaf under the node with preorder index [slot]. *)
  let rec attach (t : Tree.t) slot : Tree.t * int =
    if slot = 0 then begin
      let pos = Prng.int_in rng 0 (List.length t.children) in
      let rec insert i = function
        | rest when i = 0 -> Tree.leaf (new_label ()) :: rest
        | [] -> [ Tree.leaf (new_label ()) ]
        | c :: rest -> c :: insert (i - 1) rest
      in
      (Tree.node t.label (insert pos t.children), -1)
    end
    else begin
      let rec through acc slot = function
        | [] -> (List.rev acc, slot)
        | (c : Tree.t) :: rest ->
          if slot < 0 then through (c :: acc) slot rest
          else begin
            let c', slot' = attach c (slot - 1) in
            through (c' :: acc) slot' rest
          end
      in
      (* [through] hands each child [slot - 1]: the first child is
         preorder slot 1 relative to its parent. *)
      let children, slot' = through [] slot t.children in
      (Tree.node t.label children, slot')
    end
  in
  let rec grow t n =
    if n = 0 then t
    else begin
      let target = Prng.int rng (Tree.size t) in
      let t', _ = attach t target in
      grow t' (n - 1)
    end
  in
  grow (Tree.leaf (new_label ())) (size - 1)

let random_forest ?labels rng ~n ~max_size =
  List.init n (fun _ -> random_tree ?labels rng (1 + Prng.int rng max_size))

let pp_tree = Tsj_tree.Bracket.to_string

(* Structurally equal, physically distinct at every node. *)
let rec deep_copy (t : Tree.t) = Tree.node t.label (List.map deep_copy t.children)

(* QCheck integration: draw a seed from QCheck's random state, then derive
   the tree from our deterministic Prng so failures are reproducible. *)
let arb_tree ?(max_size = 12) ?labels () =
  QCheck.make ~print:pp_tree (fun st ->
      let seed = Random.State.int st 0x3FFFFFFF in
      let rng = Prng.create seed in
      let size = 1 + Prng.int rng max_size in
      random_tree ?labels rng size)

let arb_tree_pair ?max_size ?labels () =
  QCheck.pair (arb_tree ?max_size ?labels ()) (arb_tree ?max_size ?labels ())

let arb_tree_triple ?max_size ?labels () =
  QCheck.triple (arb_tree ?max_size ?labels ()) (arb_tree ?max_size ?labels ())
    (arb_tree ?max_size ?labels ())

(* A tree of [min_size .. max_size] nodes together with an edit script of
   length <= k applied to it. *)
let arb_tree_with_edits ?(min_size = 1) ?(max_size = 12) ?(max_edits = 3)
    ?(labels = default_alphabet) () =
  QCheck.make
    ~print:(fun (t, ops, t') ->
      Printf.sprintf "base=%s edits=[%s] result=%s" (pp_tree t)
        (String.concat "; "
           (List.map (Format.asprintf "%a" Tsj_tree.Edit_op.pp) ops))
        (pp_tree t'))
    (fun st ->
      let seed = Random.State.int st 0x3FFFFFFF in
      let rng = Prng.create seed in
      let size = min_size + Prng.int rng (max_size - min_size + 1) in
      let t = random_tree ~labels rng size in
      let k = Prng.int_in rng 0 max_edits in
      let ops, t' = Tsj_tree.Edit_op.random_script rng ~labels k t in
      (t, ops, t'))

let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

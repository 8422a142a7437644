(* Tests for the extension features: optimal edit mappings, and
   similarity search / non-self joins over the streaming index. *)

module Tree = Tsj_tree.Tree
module Bracket = Tsj_tree.Bracket
module Traversal = Tsj_tree.Traversal
module Prng = Tsj_util.Prng
module Edit_op = Tsj_tree.Edit_op
module Mapping = Ted_reference.Mapping
module Incremental = Tsj_core.Incremental
module Store = Tsj_server.Store

let t s = Bracket.of_string_exn s

(* --- mappings --- *)

let check_valid_mapping t1 t2 (m : Mapping.t) =
  let n1 = Tree.size t1 and n2 = Tree.size t2 in
  (* every node appears exactly once on each side *)
  let seen1 = Array.make n1 0 and seen2 = Array.make n2 0 in
  List.iter
    (fun op ->
      match op with
      | Mapping.Match (i, j) | Mapping.Rename (i, j) ->
        seen1.(i) <- seen1.(i) + 1;
        seen2.(j) <- seen2.(j) + 1
      | Mapping.Delete i -> seen1.(i) <- seen1.(i) + 1
      | Mapping.Insert j -> seen2.(j) <- seen2.(j) + 1)
    m.Mapping.ops;
  Array.iteri (fun i c -> if c <> 1 then Alcotest.failf "node %d of t1 appears %d times" i c) seen1;
  Array.iteri (fun j c -> if c <> 1 then Alcotest.failf "node %d of t2 appears %d times" j c) seen2;
  (* match/rename labels consistent *)
  let lab1 = Traversal.postorder_labels t1 and lab2 = Traversal.postorder_labels t2 in
  List.iter
    (fun op ->
      match op with
      | Mapping.Match (i, j) ->
        if lab1.(i) <> lab2.(j) then Alcotest.fail "Match with different labels"
      | Mapping.Rename (i, j) ->
        if lab1.(i) = lab2.(j) then Alcotest.fail "Rename with equal labels"
      | Mapping.Delete _ | Mapping.Insert _ -> ())
    m.Mapping.ops;
  (* the mapping is order- and ancestor-preserving (the TED mapping
     conditions): for mapped pairs, postorder order agrees in both trees
     and the ancestor relation is preserved.  Ancestorship in postorder
     terms: i1 is an ancestor of i2 iff lld(i1) <= i2 < i1. *)
  let p1 = (Tsj_tree.Form.of_tree t1).left and p2 = (Tsj_tree.Form.of_tree t2).left in
  let ancestor (p : Tsj_tree.Postorder.t) a b =
    (* is a an ancestor of b? *)
    a > b && p.Tsj_tree.Postorder.lld.(a) <= b
  in
  let pairs = Mapping.mapped_pairs m in
  List.iter
    (fun (i1, j1) ->
      List.iter
        (fun (i2, j2) ->
          if i1 <> i2 then begin
            if i1 < i2 && j1 >= j2 then Alcotest.fail "order not preserved";
            if ancestor p1 i1 i2 <> ancestor p2 j1 j2 then
              Alcotest.fail "ancestor relation not preserved"
          end)
        pairs)
    pairs

let test_mapping_identical () =
  let a = t "{a{b{c}}{d}}" in
  let m = Mapping.compute a a in
  Alcotest.(check int) "cost 0" 0 m.Mapping.cost;
  Alcotest.(check int) "all matched" 4 (List.length (Mapping.mapped_pairs m));
  check_valid_mapping a a m

let test_mapping_rename () =
  let a = t "{a{b}}" and b = t "{a{z}}" in
  let m = Mapping.compute a b in
  Alcotest.(check int) "cost 1" 1 m.Mapping.cost;
  check_valid_mapping a b m;
  let renames =
    List.filter (function Mapping.Rename _ -> true | _ -> false) m.Mapping.ops
  in
  Alcotest.(check int) "one rename" 1 (List.length renames)

let test_mapping_empty_like () =
  let single = t "{a}" in
  let big = t "{a{b}{c}{d}}" in
  let m = Mapping.compute single big in
  Alcotest.(check int) "cost 3" 3 m.Mapping.cost;
  check_valid_mapping single big m

let test_mapping_zs_example () =
  let t1 = t "{f{d{a}{c{b}}}{e}}" in
  let t2 = t "{f{c{d{a}{b}}}{e}}" in
  let m = Mapping.compute t1 t2 in
  Alcotest.(check int) "cost = TED = 2" 2 m.Mapping.cost;
  check_valid_mapping t1 t2 m

let prop_mapping_cost_equals_ted =
  Gen.qtest ~count:150 "mapping cost = TED" (Gen.arb_tree_pair ~max_size:12 ())
    (fun (a, b) ->
      let m = Mapping.compute a b in
      m.Mapping.cost = Ted_reference.distance a b)

let prop_mapping_valid =
  Gen.qtest ~count:100 "mapping is a valid TED mapping" (Gen.arb_tree_pair ~max_size:10 ())
    (fun (a, b) ->
      check_valid_mapping a b (Mapping.compute a b);
      true)

let test_mapping_pp () =
  let a = t "{a{b}}" and b = t "{a{z}}" in
  let s = Format.asprintf "%a" (Mapping.pp ~source:a ~target:b) (Mapping.compute a b) in
  Alcotest.(check bool) "mentions cost" true (String.length s > 0)

(* --- search index --- *)

let collection seed n =
  let rng = Prng.create seed in
  let acc = ref [] in
  for _ = 1 to n / 2 do
    let base = Gen.random_tree rng (4 + Prng.int rng 12) in
    acc := base :: !acc;
    let _, copy = Edit_op.random_script rng ~labels:Gen.default_alphabet 1 base in
    acc := copy :: !acc
  done;
  Array.of_list !acc

let brute_force_query trees q tau =
  let res = ref [] in
  Array.iteri
    (fun i t ->
      let d = Ted_reference.distance q t in
      if d <= tau then res := (i, d) :: !res)
    trees;
  List.sort
    (fun (i1, d1) (i2, d2) -> if d1 <> d2 then compare d1 d2 else compare i1 i2)
    (List.rev !res)

(* The search index over a fixed collection: every tree inserted, ids =
   collection positions. *)
let index_of ~tau trees =
  let idx = Incremental.create ~tau () in
  Array.iter (Incremental.insert idx) trees;
  idx

let search ?tau idx q = (Incremental.query ?tau idx q).Incremental.hits

let test_search_query_matches_brute_force () =
  let trees = collection 3 40 in
  let idx = index_of ~tau:2 trees in
  Alcotest.(check int) "n_trees" 40 (Incremental.n_trees idx);
  Alcotest.(check int) "tau" 2 (Incremental.tau idx);
  let rng = Prng.create 9 in
  for _ = 1 to 15 do
    (* queries: both members of the collection and fresh trees *)
    let q =
      if Prng.bool rng then trees.(Prng.int rng (Array.length trees))
      else Gen.random_tree rng (4 + Prng.int rng 12)
    in
    Alcotest.(check (list (pair int int))) "query = brute force"
      (brute_force_query trees q 2) (search idx q)
  done

let test_search_smaller_tau () =
  let trees = collection 5 30 in
  let idx = index_of ~tau:3 trees in
  let rng = Prng.create 21 in
  for _ = 1 to 10 do
    let q = Gen.random_tree rng (4 + Prng.int rng 12) in
    List.iter
      (fun tau ->
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "tau=%d under tau=3 index" tau)
          (brute_force_query trees q tau)
          (search ~tau idx q))
      [ 0; 1; 2; 3 ]
  done

let test_search_tau_too_big () =
  let idx = index_of ~tau:1 (collection 1 4) in
  Alcotest.check_raises "tau exceeds index"
    (Invalid_argument "Incremental.query: tau = 2 exceeds the index threshold 1")
    (fun () -> ignore (search ~tau:2 idx (t "{a}")))

let test_search_empty_collection () =
  let idx = index_of ~tau:2 [||] in
  Alcotest.(check (list (pair int int))) "no results" [] (search idx (t "{a{b}}"))

(* Non-self join: query the index of [left] with every tree of [right];
   [(i, j, d)] pairs left tree [i] with right tree [j]. *)
let join_with idx right =
  Array.to_list right
  |> List.mapi (fun j q -> List.map (fun (i, d) -> (i, j, d)) (search idx q))
  |> List.concat |> List.sort compare

let test_join_with_non_self () =
  let left = collection 7 20 in
  let right = collection 8 14 in
  let idx = index_of ~tau:2 left in
  (* brute force cross join *)
  let expected = ref [] in
  Array.iteri
    (fun j q ->
      Array.iteri
        (fun i tl ->
          let d = Ted_reference.distance tl q in
          if d <= 2 then expected := (i, j, d) :: !expected)
        left)
    right;
  Alcotest.(check (list (triple int int int)))
    "non-self join = brute force"
    (List.sort compare !expected) (join_with idx right)

(* A snapshot written by the store and read back rebuilds an index that
   answers exactly like the original, duplicate records included. *)
let test_search_save_load () =
  let trees = Array.append (collection 13 24) [| t "{a{b}}"; t "{a{b}}" |] in
  let idx = index_of ~tau:2 trees in
  let path = Filename.temp_file "tsj" ".idx" in
  Store.save_collection ~tau:2 trees path;
  let contents = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  (match Store.collection_of_string contents with
  | Error e -> Alcotest.fail e
  | Ok (tau, trees') ->
    Alcotest.(check int) "tau restored" 2 tau;
    Alcotest.(check int) "trees restored" (Array.length trees) (Array.length trees');
    let idx' = index_of ~tau trees' in
    let rng = Prng.create 2 in
    for _ = 1 to 8 do
      let q = Gen.random_tree rng (4 + Prng.int rng 12) in
      Alcotest.(check (list (pair int int))) "same answers" (search idx q) (search idx' q)
    done);
  (* foreign contents are rejected gracefully *)
  match Store.collection_of_string "not an index\n" with
  | Ok _ -> Alcotest.fail "expected a parse failure"
  | Error _ -> ()

let test_join_with_disjoint_sizes () =
  (* All probe trees are far bigger than indexed ones: no results. *)
  let left = [| t "{a}"; t "{b{c}}" |] in
  let right = [| Gen.random_tree (Prng.create 2) 30 |] in
  let idx = index_of ~tau:2 left in
  Alcotest.(check (list (triple int int int))) "no results" [] (join_with idx right)

let suite =
  [
    Alcotest.test_case "mapping identical" `Quick test_mapping_identical;
    Alcotest.test_case "mapping rename" `Quick test_mapping_rename;
    Alcotest.test_case "mapping grow" `Quick test_mapping_empty_like;
    Alcotest.test_case "mapping zs example" `Quick test_mapping_zs_example;
    prop_mapping_cost_equals_ted;
    prop_mapping_valid;
    Alcotest.test_case "mapping pp" `Quick test_mapping_pp;
    Alcotest.test_case "search = brute force" `Quick test_search_query_matches_brute_force;
    Alcotest.test_case "search with smaller tau" `Quick test_search_smaller_tau;
    Alcotest.test_case "search tau too big" `Quick test_search_tau_too_big;
    Alcotest.test_case "search empty collection" `Quick test_search_empty_collection;
    Alcotest.test_case "search save/load" `Quick test_search_save_load;
    Alcotest.test_case "non-self join = brute force" `Quick test_join_with_non_self;
    Alcotest.test_case "non-self join disjoint sizes" `Quick test_join_with_disjoint_sizes;
  ]

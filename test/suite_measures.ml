(* Tests for top-k search. *)

module Bracket = Tsj_tree.Bracket
module Prng = Tsj_util.Prng
module Edit_op = Tsj_tree.Edit_op
module Incremental = Tsj_core.Incremental

let t s = Bracket.of_string_exn s

(* --- top-k search --- *)

let test_nearest_basic () =
  let base = t "{a{b}{c}{d{e}}}" in
  let v1 = Edit_op.apply base (Edit_op.Rename { node = 0; label = Tsj_tree.Label.intern "zz1" }) in
  let v2 = Edit_op.apply v1 (Edit_op.Rename { node = 1; label = Tsj_tree.Label.intern "zz2" }) in
  let far = t "{q{w{x{y{z{w{q}}}}}}}" in
  let trees = [| far; v2; base; v1 |] in
  let idx = Incremental.create ~tau:3 () in
  Array.iter (Incremental.insert idx) trees;
  (match Incremental.nearest ~k:2 idx base with
  | [ (i1, d1); (i2, d2) ] ->
    Alcotest.(check int) "self first" 2 i1;
    Alcotest.(check int) "self distance" 0 d1;
    Alcotest.(check int) "then v1" 3 i2;
    Alcotest.(check int) "v1 distance" 1 d2
  | l -> Alcotest.failf "expected 2 hits, got %d" (List.length l));
  Alcotest.(check (list (pair int int))) "k=0" [] (Incremental.nearest ~k:0 idx base);
  Alcotest.check_raises "negative k" (Invalid_argument "Incremental.nearest: negative k")
    (fun () -> ignore (Incremental.nearest ~k:(-1) idx base))

let test_nearest_matches_brute_force () =
  let rng = Prng.create 44 in
  let acc = ref [] in
  for _ = 1 to 12 do
    let base = Gen.random_tree rng (4 + Prng.int rng 10) in
    acc := base :: !acc;
    let _, copy = Edit_op.random_script rng ~labels:Gen.default_alphabet 2 base in
    acc := copy :: !acc
  done;
  let trees = Array.of_list !acc in
  let tau = 3 in
  let idx = Incremental.create ~tau () in
  Array.iter (Incremental.insert idx) trees;
  for _ = 1 to 10 do
    let q = trees.(Prng.int rng (Array.length trees)) in
    let brute =
      Array.to_list (Array.mapi (fun i x -> (i, Ted_reference.distance q x)) trees)
      |> List.filter (fun (_, d) -> d <= tau)
      |> List.sort (fun (i1, d1) (i2, d2) ->
             if d1 <> d2 then compare d1 d2 else compare i1 i2)
    in
    List.iter
      (fun k ->
        let expected = List.filteri (fun i _ -> i < k) brute in
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "nearest k=%d" k)
          expected
          (Incremental.nearest ~k idx q))
      [ 1; 3; 100 ]
  done

let suite =
  [
    Alcotest.test_case "nearest basic" `Quick test_nearest_basic;
    Alcotest.test_case "nearest = brute force" `Quick test_nearest_matches_brute_force;
  ]

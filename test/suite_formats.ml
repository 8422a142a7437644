(* Tests for the Penn-Treebank s-expression format and the DOT export. *)

module Tree = Tsj_tree.Tree
module Label = Tsj_tree.Label
module Bracket = Tsj_tree.Bracket
module Sexp_format = Tsj_tree.Sexp_format
module Dot = Tsj_tree.Dot

let tree = Alcotest.testable (Fmt.of_to_string Bracket.to_string) Tree.equal

let t s = Bracket.of_string_exn s

let test_sexp_basic () =
  let parsed = Sexp_format.of_string_exn "(S (NP (DT the) (NN cat)) (VP (VBZ sits)))" in
  Alcotest.check tree "structure"
    (t "{S{NP{DT{the}}{NN{cat}}}{VP{VBZ{sits}}}}")
    parsed

let test_sexp_drop_words () =
  let parsed =
    Sexp_format.of_string_exn ~drop_words:true "(S (NP (DT the) (NN cat)) (VP (VBZ sits)))"
  in
  Alcotest.check tree "tags only" (t "{S{NP{DT}{NN}}{VP{VBZ}}}") parsed

let test_sexp_ptb_wrapper () =
  let parsed = Sexp_format.of_string_exn "( (S (NP x) (VP y)) )" in
  Alcotest.check tree "unwrapped" (t "{S{NP{x}}{VP{y}}}") parsed

let test_sexp_forest () =
  match Sexp_format.forest_of_string "(A x) (B (C y))" with
  | Ok [ a; b ] ->
    Alcotest.check tree "first" (t "{A{x}}") a;
    Alcotest.check tree "second" (t "{B{C{y}}}") b
  | Ok l -> Alcotest.failf "expected 2 trees, got %d" (List.length l)
  | Error e -> Alcotest.fail e

let test_sexp_errors () =
  let bad input =
    match Sexp_format.of_string input with
    | Ok _ -> Alcotest.failf "expected error on %S" input
    | Error _ -> ()
  in
  List.iter bad [ ""; "("; "(A"; "(A x) y"; "( (A) (B) )"; "()" ]

let test_sexp_print_roundtrip () =
  let cases = [ "(S (NP (DT the)) (VP run))"; "(A x y z)"; "leaf" ] in
  List.iter
    (fun s ->
      let parsed = Sexp_format.of_string_exn s in
      let printed = Sexp_format.to_string parsed in
      Alcotest.check tree ("roundtrip " ^ s) parsed (Sexp_format.of_string_exn printed))
    cases

let prop_sexp_roundtrip =
  (* Random trees have label characters outside the token alphabet only if
     we put them there; the Gen alphabet (l0..l7) is token-safe. *)
  Gen.qtest "sexp roundtrip on random trees" (Gen.arb_tree ~max_size:25 ())
    (fun x ->
      Tree.equal x (Sexp_format.of_string_exn (Sexp_format.to_string x)))

let test_sexp_file_roundtrip () =
  let path = Filename.temp_file "tsj" ".mrg" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "( (S (NP a) (VP b)) )\n( (S (NP c)) )\n");
  (match Sexp_format.load_file path with
  | Ok [ a; b ] ->
    Alcotest.check tree "first" (t "{S{NP{a}}{VP{b}}}") a;
    Alcotest.check tree "second" (t "{S{NP{c}}}") b
  | Ok l -> Alcotest.failf "expected 2, got %d" (List.length l)
  | Error e -> Alcotest.fail e);
  Sys.remove path

let contains haystack needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length haystack && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

let test_dot_tree () =
  let s = Dot.of_tree (t "{a{b}{c}}") in
  Alcotest.(check bool) "digraph" true (contains s "digraph");
  Alcotest.(check bool) "has labels" true (contains s "label=\"a\"" && contains s "label=\"b\"");
  Alcotest.(check bool) "has edges" true (contains s "n2 -> n0" || contains s "n0 -> n1")

let test_dot_escaping () =
  let weird = Tree.leaf (Label.intern "say \"hi\"\nok") in
  let s = Dot.of_tree weird in
  Alcotest.(check bool) "escaped quote" true (contains s "\\\"hi\\\"");
  Alcotest.(check bool) "escaped newline" true (contains s "\\n")

let test_dot_binary_and_partition () =
  let b = Tsj_tree.Binary_tree.of_postorder (Tsj_tree.Form.of_tree (t "{a{b{c}}{d}{e}}")).left in
  let s = Dot.of_binary b in
  Alcotest.(check bool) "dashed sibling edges" true (contains s "style=dashed");
  let p = Tsj_core.Partition.partition b ~delta:3 in
  let s = Dot.of_partition b ~assignment:(Tsj_core.Partition.assignment p) in
  Alcotest.(check bool) "bridging edges red" true (contains s "color=red");
  Alcotest.(check bool) "filled components" true (contains s "fillcolor");
  Alcotest.check_raises "length check"
    (Invalid_argument "Dot.of_partition: assignment length mismatch") (fun () ->
      ignore (Dot.of_partition b ~assignment:[| 0 |]))

let suite =
  [
    Alcotest.test_case "sexp basic" `Quick test_sexp_basic;
    Alcotest.test_case "sexp drop_words" `Quick test_sexp_drop_words;
    Alcotest.test_case "sexp PTB wrapper" `Quick test_sexp_ptb_wrapper;
    Alcotest.test_case "sexp forest" `Quick test_sexp_forest;
    Alcotest.test_case "sexp errors" `Quick test_sexp_errors;
    Alcotest.test_case "sexp print roundtrip" `Quick test_sexp_print_roundtrip;
    prop_sexp_roundtrip;
    Alcotest.test_case "sexp file roundtrip" `Quick test_sexp_file_roundtrip;
    Alcotest.test_case "dot tree" `Quick test_dot_tree;
    Alcotest.test_case "dot escaping" `Quick test_dot_escaping;
    Alcotest.test_case "dot binary/partition" `Quick test_dot_binary_and_partition;
  ]

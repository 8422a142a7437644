module Tree = Tsj_tree.Tree
module Label = Tsj_tree.Label
module Bracket = Tsj_tree.Bracket
module Traversal = Tsj_tree.Traversal
module Postorder = Tsj_tree.Postorder
module Binary_tree = Tsj_tree.Binary_tree
module Edit_op = Tsj_tree.Edit_op
module Prng = Tsj_util.Prng

let tree = Alcotest.testable (Fmt.of_to_string Bracket.to_string) Tree.equal

let t s = Bracket.of_string_exn s

let lcrs x = Binary_tree.of_postorder (Tsj_tree.Form.of_tree x).left

let postorder x = (Tsj_tree.Form.of_tree x).left

(* The running example from Figure 4 of the paper. *)
let fig4 = t "{a{b{c{d}{e}}}{f}{g{h{i{j}}}}}"

let test_label_interning () =
  let a = Label.intern "swissprot-tag" in
  let b = Label.intern "swissprot-tag" in
  Alcotest.(check int) "same id" a b;
  Alcotest.(check string) "name roundtrip" "swissprot-tag" (Label.name a);
  Alcotest.(check bool) "mem" true (Label.mem "swissprot-tag");
  Alcotest.(check string) "epsilon prints empty" "" (Label.name Label.epsilon);
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Label.intern: empty string is reserved for epsilon") (fun () ->
      ignore (Label.intern ""))

(* Slice interning finds the whole-string id, and the table keeps ids,
   names and membership straight as it grows past 100K labels (from 64
   slots per doubling): ids stay in first-seen order. *)
let test_label_slices_and_growth () =
  let line = "QUERY 1 {swiss-slice{x}}" in
  Alcotest.(check int) "known label from a slice" (Label.intern "swiss-slice")
    (Label.intern_sub line 9 11);
  let fresh = Label.intern_sub line 9 6 in
  Alcotest.(check string) "new label from a slice" "swiss-" (Label.name fresh);
  Alcotest.(check int) "whole string finds it" fresh (Label.intern "swiss-");
  Alcotest.check_raises "empty slice rejected"
    (Invalid_argument "Label.intern: empty string is reserved for epsilon") (fun () ->
      ignore (Label.intern_sub line 3 0));
  let n = 120_000 in
  let first = Label.count () + 1 in
  let name i = Printf.sprintf "growth-%d" i in
  for i = 0 to n - 1 do
    let id =
      if i land 1 = 0 then Label.intern (name i)
      else
        let padded = "{" ^ name i ^ "}" in
        Label.intern_sub padded 1 (String.length padded - 2)
    in
    if id <> first + i then Alcotest.failf "label %s got id %d, not %d" (name i) id (first + i)
  done;
  Alcotest.(check int) "count" (first + n - 1) (Label.count ());
  for i = 0 to n - 1 do
    let id = first + i in
    if Label.name id <> name i || Label.intern (name i) <> id || not (Label.mem (name i)) then
      Alcotest.failf "label %d (%s) inconsistent after growth" id (name i)
  done;
  Alcotest.(check bool) "never interned" false (Label.mem "growth--1");
  Alcotest.(check int) "lookups add nothing" (first + n - 1) (Label.count ())

(* Two domains, released together, interning the same fresh names in
   the same order while the table grows: one id per name, dense ids. *)
let test_label_two_domains () =
  let n = 50_000 in
  let first = Label.count () + 1 in
  let name i = Printf.sprintf "race-%d" i in
  let ready = Atomic.make 0 in
  let run () =
    Domain.spawn (fun () ->
        Atomic.incr ready;
        while Atomic.get ready < 2 do
          Domain.cpu_relax ()
        done;
        Array.init n (fun i -> Label.intern (name i)))
  in
  let d1 = run () and d2 = run () in
  let a = Domain.join d1 and b = Domain.join d2 in
  Alcotest.(check bool) "same id from both domains" true (a = b);
  Alcotest.(check int) "one id per name" (first + n - 1) (Label.count ());
  Array.iteri
    (fun i id ->
      if Label.name id <> name i then
        Alcotest.failf "id %d names %S, not %S" id (Label.name id) (name i))
    a

let test_tree_size_depth_degree () =
  Alcotest.(check int) "size" 10 (Tree.size fig4);
  Alcotest.(check int) "depth" 5 (Tree.depth fig4);
  Alcotest.(check int) "degree" 3 (Tree.degree fig4);
  let single = Tree.leaf (Label.intern "x") in
  Alcotest.(check int) "leaf size" 1 (Tree.size single);
  Alcotest.(check int) "leaf depth" 1 (Tree.depth single);
  Alcotest.(check int) "leaf degree" 0 (Tree.degree single)

let test_tree_equal_compare () =
  let a = t "{a{b}{c}}" and b = t "{a{b}{c}}" and c = t "{a{c}{b}}" in
  Alcotest.(check bool) "equal" true (Tree.equal a b);
  Alcotest.(check bool) "order matters" false (Tree.equal a c);
  Alcotest.(check int) "compare equal" 0 (Tree.compare a b);
  Alcotest.(check bool) "compare consistent" true (Tree.compare a c <> 0);
  Alcotest.(check int) "hash equal" (Tree.hash a) (Tree.hash b)

(* Every ordered tree of <= 7 nodes over {a, b} (20,134 trees). *)
let small_trees = lazy (Edit_ball.trees_upto (List.map Label.intern [ "a"; "b" ]) 7)

(* The mirror image: every child list reversed.  TED is invariant under
   mirroring both trees, which is how the right-path decomposition runs. *)
let rec mirror (x : Tree.t) = Tree.node x.Tree.label (List.rev_map mirror x.Tree.children)

(* The walk that one walk per tree ([Form.of_tree]) and, before it,
   [Postorder.both] replaced: postorder numbers, the first child's lld,
   and a keyroot at the root and every non-first child. *)
let reference_postorder tree =
  let n = Tree.size tree in
  let labels = Array.make n 0 and lld = Array.make n 0 in
  let keyroots = ref [] and counter = ref 0 in
  let rec go ~first (node : Tree.t) =
    let first_lld = ref (-1) in
    List.iteri
      (fun c child ->
        let l = go ~first:(c = 0) child in
        if c = 0 then first_lld := l)
      node.children;
    let me = !counter in
    incr counter;
    labels.(me) <- node.label;
    let my_lld = if !first_lld < 0 then me else !first_lld in
    lld.(me) <- my_lld;
    if not first then keyroots := me :: !keyroots;
    my_lld
  in
  ignore (go ~first:false tree);
  { Postorder.size = n; labels; lld; keyroots = Array.of_list (List.rev !keyroots) }

let test_postorder_both_exhaustive () =
  let a = t "{a{b{x}{y}}{c}}" in
  Alcotest.check tree "mirrored" (t "{a{c}{b{y}{x}}}") (mirror a);
  List.iter
    (fun x ->
      let f = Tsj_tree.Form.of_tree x in
      let left = reference_postorder x and right = reference_postorder (mirror x) in
      if f.left <> left || f.mirror <> right then
        Alcotest.failf "Form.of_tree's postorders differ on %s" (Bracket.to_string x);
      if Form_reference.postorders x <> (left, right) then
        Alcotest.failf "Postorder.both differs on %s" (Bracket.to_string x))
    (Lazy.force small_trees)

let test_tree_label_set () =
  let a = t "{a{b}{a{b}}}" in
  let names = List.map Label.name (Tree.label_set a) in
  Alcotest.(check (list string)) "distinct labels" [ "a"; "b" ]
    (List.sort compare names)

let test_nodes_postorder () =
  let nodes = Tree.nodes_postorder (t "{a{b{c}}{d}}") in
  let labels = Array.map (fun (n : Tree.t) -> Label.name n.label) nodes in
  Alcotest.(check (array string)) "postorder" [| "c"; "b"; "d"; "a" |] labels;
  let pre = Tree.nodes_preorder (t "{a{b{c}}{d}}") in
  let labels = Array.map (fun (n : Tree.t) -> Label.name n.label) pre in
  Alcotest.(check (array string)) "preorder" [| "a"; "b"; "c"; "d" |] labels

let test_subtree_at_postorder () =
  let a = t "{a{b{c}}{d}}" in
  Alcotest.check tree "subtree 1" (t "{b{c}}") (Tree.subtree_at_postorder a 1);
  Alcotest.check tree "subtree root" a (Tree.subtree_at_postorder a 3);
  Alcotest.check_raises "oob" (Invalid_argument "Tree.subtree_at_postorder: index out of range")
    (fun () -> ignore (Tree.subtree_at_postorder a 4))

let test_bracket_roundtrip_fixed () =
  List.iter
    (fun s ->
      let parsed = t s in
      Alcotest.(check string) "print . parse = id" s (Bracket.to_string parsed))
    [ "{a}"; "{a{b}}"; "{a{b}{c}}"; "{root{x{y{z}}}{w}}" ]

let test_bracket_escapes () =
  let weird = Tree.node (Label.intern "a{b}c\\d") [ Tree.leaf (Label.intern "e") ] in
  let s = Bracket.to_string weird in
  Alcotest.check tree "escape roundtrip" weird (Bracket.of_string_exn s)

let test_bracket_errors () =
  let bad input =
    match Bracket.of_string input with
    | Ok _ -> Alcotest.failf "expected parse error on %S" input
    | Error _ -> ()
  in
  List.iter bad [ ""; "{"; "{}"; "{a"; "{a}}"; "{a}{b}"; "a"; "{a{}}" ]

let test_bracket_whitespace_comments () =
  match Bracket.forest_of_string "  {a}\n# comment line\n{b{c}} \n" with
  | Ok [ x; y ] ->
    Alcotest.check tree "first" (t "{a}") x;
    Alcotest.check tree "second" (t "{b{c}}") y
  | Ok l -> Alcotest.failf "expected 2 trees, got %d" (List.length l)
  | Error e -> Alcotest.fail e

let test_bracket_file_roundtrip () =
  let path = Filename.temp_file "tsj" ".trees" in
  let forest = [ t "{a{b}}"; t "{c}"; fig4 ] in
  Bracket.save_file path forest;
  (match Bracket.load_file path with
  | Ok loaded -> Alcotest.(check (list tree)) "file roundtrip" forest loaded
  | Error e -> Alcotest.fail e);
  Sys.remove path

(* The one-pass parser against the reference copy of the parser it
   replaced: the same trees or the same error texts (line, column,
   cause) through [of_string], [of_substring], [forest_of_string] and
   [forest_of_string_lenient]. *)
let test_bracket_matches_reference () =
  let fixed =
    [ ""; "{"; "{\\"; "{a\\"; "{}"; "{a}}"; "{a}{b}"; "a"; "{a{}}"; "{a}x"; "{a{b}c}";
      "  # c\n{a}"; "{a\\}b}"; "{ a b }"; "{#x}"; "\n\n{a\n{b"; "{a}\n}{x}\n{a{b}{c}}\n";
      "{a}#"; "#only"; "{\\{}"; "{\xc3\xa9{\x80}}" ]
  in
  List.iter
    (fun s ->
      Option.iter (fun m -> Alcotest.fail m) (Codec_reference.Codec_check.compare_parsers ~pad:" {" s))
    fixed;
  let rng = Prng.create 30 in
  for _ = 1 to 4000 do
    let s = Codec_reference.Codec_check.random_input rng in
    let pad = Prng.choice rng [| ""; "QUERY 2 "; "\n" |] in
    Option.iter (fun m -> Alcotest.fail m) (Codec_reference.Codec_check.compare_parsers ~pad s)
  done

(* Labels holding braces, backslashes, blanks, '#', line breaks, NUL and
   bytes past 0x7f survive print-then-parse, and print as before. *)
let test_bracket_hostile_roundtrip () =
  let rng = Prng.create 31 in
  for _ = 1 to 2000 do
    let x = Codec_reference.Codec_check.random_tree rng (1 + Prng.int rng 15) in
    Option.iter (fun m -> Alcotest.fail m) (Codec_reference.Codec_check.check_roundtrip x)
  done

let prop_bracket_roundtrip =
  Gen.qtest "bracket roundtrip on random trees" (Gen.arb_tree ~max_size:30 ())
    (fun x -> Tree.equal x (Bracket.of_string_exn (Bracket.to_string x)))

let test_pp_renderings () =
  let a = t "{a{b{c}}{d}}" in
  Alcotest.(check string) "bracket pp" "{a{b{c}}{d}}" (Format.asprintf "%a" Tree.pp a);
  let ascii = Format.asprintf "%a" Tree.pp_ascii a in
  let has needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length ascii && (String.sub ascii i n = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "ascii shows all labels" true
    (has "a" && has "b" && has "c" && has "d");
  Alcotest.(check bool) "ascii draws branches" true (has "└─" || has "├─")

let test_fold () =
  let a = t "{a{b{c}}{d}}" in
  (* fold computing size *)
  Alcotest.(check int) "fold size" 4
    (Tree.fold (fun _ kids -> 1 + List.fold_left ( + ) 0 kids) a);
  (* fold computing depth *)
  Alcotest.(check int) "fold depth" 3
    (Tree.fold (fun _ kids -> 1 + List.fold_left max 0 kids) a)

let test_map_labels () =
  let a = t "{a{b}}" in
  let upper = Tree.map_labels (fun l -> Label.intern (String.uppercase_ascii (Label.name l))) a in
  Alcotest.check tree "mapped" (t "{A{B}}") upper

let test_traversal_sequences () =
  let a = t "{a{b{c}}{d}}" in
  let names arr = Array.map Label.name arr in
  Alcotest.(check (array string)) "preorder" [| "a"; "b"; "c"; "d" |]
    (names (Traversal.preorder_labels a));
  Alcotest.(check (array string)) "postorder" [| "c"; "b"; "d"; "a" |]
    (names (Traversal.postorder_labels a))

let test_postorder_lld_keyroots () =
  (* Example: {f{d{a}{c{b}}}{e}} — the classic Zhang–Shasha paper tree. *)
  let a = t "{f{d{a}{c{b}}}{e}}" in
  let p = postorder a in
  Alcotest.(check int) "size" 6 p.Postorder.size;
  (* postorder: a(0) b(1) c(2) d(3) e(4) f(5) *)
  Alcotest.(check (array int)) "lld" [| 0; 1; 1; 0; 4; 0 |] p.Postorder.lld;
  Alcotest.(check (array int)) "keyroots" [| 2; 4; 5 |] p.Postorder.keyroots

let prop_postorder_invariants =
  Gen.qtest "postorder invariants" (Gen.arb_tree ~max_size:25 ()) (fun x ->
      let p = postorder x in
      (* keyroots by definition, straight off the tree: number nodes in
         postorder and keep the root and every non-first child *)
      let expected = ref [] and counter = ref 0 in
      let rec walk ~keyroot (node : Tree.t) =
        List.iteri (fun c child -> walk ~keyroot:(c > 0) child) node.Tree.children;
        if keyroot then expected := !counter :: !expected;
        incr counter
      in
      walk ~keyroot:true x;
      (* llds point below; the keyroots ascend and end at the root *)
      p.Postorder.keyroots = Array.of_list (List.rev !expected)
      && Array.for_all (fun i -> i >= 0) p.Postorder.lld
      && (let ok = ref true in
          for i = 0 to p.Postorder.size - 1 do
            if p.Postorder.lld.(i) > i then ok := false
          done;
          !ok))

let test_binary_tree_fig4 () =
  (* Figure 4 of the paper: the LC-RS transform of the general tree. *)
  let b = lcrs fig4 in
  Alcotest.(check int) "same node count" 10 b.Binary_tree.size;
  Alcotest.check tree "inverse transform" fig4 (Binary_tree.to_tree b);
  (* Root of the binary tree is the general root and keeps no right child:
     the root has no siblings. *)
  let r = Binary_tree.root b in
  Alcotest.(check bool) "root has no right child" false (Binary_tree.has_right b r);
  Alcotest.(check string) "root label" "a" (Label.name b.Binary_tree.label.(r))

let prop_binary_roundtrip =
  Gen.qtest "LC-RS roundtrip" (Gen.arb_tree ~max_size:30 ()) (fun x ->
      Tree.equal x (Binary_tree.to_tree (lcrs x)))

let prop_binary_structure =
  Gen.qtest "LC-RS structural invariants" (Gen.arb_tree ~max_size:30 ()) (fun x ->
      let b = lcrs x in
      let n = b.Binary_tree.size in
      let parent = Binary_tree.parents b and subtree_size = Binary_tree.subtree_sizes b in
      let ok = ref (n = Tree.size x) in
      for i = 0 to n - 1 do
        (* the root alone has no parent; every other node hangs off
           its parent's left or right lane *)
        let p = parent.(i) in
        if i = Binary_tree.root b then (if p <> -1 then ok := false)
        else if p < 0 || (b.Binary_tree.left.(p) <> i && b.Binary_tree.right.(p) <> i) then
          ok := false;
        (* postorder ids: children have smaller ids than parents *)
        if b.Binary_tree.left.(i) >= i then ok := false;
        if b.Binary_tree.right.(i) >= i then ok := false;
        (* subtree sizes consistent *)
        let expect =
          1
          + (if b.Binary_tree.left.(i) >= 0 then
               subtree_size.(b.Binary_tree.left.(i))
             else 0)
          + (if b.Binary_tree.right.(i) >= 0 then
               subtree_size.(b.Binary_tree.right.(i))
             else 0)
        in
        if subtree_size.(i) <> expect then ok := false;
        (* postorder contiguity: subtree occupies [i - size + 1, i] *)
        if b.Binary_tree.left.(i) >= 0 && b.Binary_tree.right.(i) >= 0 then begin
          let l = b.Binary_tree.left.(i) and r = b.Binary_tree.right.(i) in
          if l + subtree_size.(r) <> r then ok := false
        end
      done;
      !ok)

let test_edit_rename () =
  let a = t "{a{b}{c}}" in
  let a' = Edit_op.apply a (Edit_op.Rename { node = 0; label = Label.intern "z" }) in
  Alcotest.check tree "rename leaf" (t "{a{z}{c}}") a';
  let a'' = Edit_op.apply a (Edit_op.Rename { node = 2; label = Label.intern "r" }) in
  Alcotest.check tree "rename root" (t "{r{b}{c}}") a''

let test_edit_delete () =
  (* Figure 2: T1 -> T2 by deleting N4 (postorder number 2). *)
  let t1 = t "{1{2{3{4{5}{6}}}}{7}}" in
  let t2 = Edit_op.apply t1 (Edit_op.Delete { node = 2 }) in
  Alcotest.check tree "paper figure 2 deletion" (t "{1{2{3{5}{6}}}{7}}") t2;
  (* Deleting a mid node splices children in place. *)
  let a = t "{a{b{x}{y}}{c}}" in
  let a' = Edit_op.apply a (Edit_op.Delete { node = 2 }) in
  Alcotest.check tree "splice" (t "{a{x}{y}{c}}") a'

let test_edit_delete_root () =
  let a = t "{a{b{c}}}" in
  let a' = Edit_op.apply a (Edit_op.Delete { node = 2 }) in
  Alcotest.check tree "root deletion promotes single child" (t "{b{c}}") a';
  let two = t "{a{b}{c}}" in
  Alcotest.check_raises "root with two children"
    (Invalid_argument "Edit_op.apply (delete): deleting a root with zero or several children")
    (fun () -> ignore (Edit_op.apply two (Edit_op.Delete { node = 2 })))

let test_edit_insert () =
  let a = t "{a{x}{y}{z}}" in
  let a' =
    Edit_op.apply a
      (Edit_op.Insert { parent = 3; first_child = 1; n_children = 2; label = Label.intern "m" })
  in
  Alcotest.check tree "insert adopting span" (t "{a{x}{m{y}{z}}}") a';
  let a'' =
    Edit_op.apply a
      (Edit_op.Insert { parent = 3; first_child = 3; n_children = 0; label = Label.intern "m" })
  in
  Alcotest.check tree "insert empty span at end" (t "{a{x}{y}{z}{m}}") a''

let test_edit_insert_bounds () =
  let a = t "{a{x}}" in
  Alcotest.check_raises "span oob"
    (Invalid_argument "Edit_op.apply (insert): child span [1,2) out of range [0,1]")
    (fun () ->
      ignore
        (Edit_op.apply a
           (Edit_op.Insert { parent = 1; first_child = 1; n_children = 1; label = Label.intern "m" })))

let test_edit_inverse () =
  (* insertion and deletion are inverse operations *)
  let a = t "{a{x}{y}{z}}" in
  let ins = Edit_op.Insert { parent = 3; first_child = 0; n_children = 2; label = Label.intern "m" } in
  let b = Edit_op.apply a ins in
  (* the new node m sits at postorder position 2 in b *)
  let back = Edit_op.apply b (Edit_op.Delete { node = 2 }) in
  Alcotest.check tree "delete undoes insert" a back

let prop_edit_preserves_treeness =
  Gen.qtest "random scripts keep valid sizes" (Gen.arb_tree_with_edits ~max_edits:5 ())
    (fun (base, ops, result) ->
      let d = Tree.size result - Tree.size base in
      abs d <= List.length ops && Tree.size result >= 1)

let prop_random_op_valid =
  Gen.qtest "random ops apply cleanly" (Gen.arb_tree ~max_size:15 ()) (fun x ->
      let rng = Prng.create (Tree.hash x land 0xFFFFFF) in
      let ok = ref true in
      for _ = 1 to 10 do
        let op = Edit_op.random rng ~labels:Gen.default_alphabet x in
        match Edit_op.apply x op with
        | _ -> ()
        | exception Invalid_argument msg ->
          ok := false;
          Printf.eprintf "op failed: %s\n" msg
      done;
      !ok)

let test_deep_trees () =
  (* Robustness on pathological inputs: a 50,000-node chain must survive
     parsing, the array compilations and partitioning (all recursive code
     paths) without stack overflow or quadratic blowup. *)
  let n = 50_000 in
  let buf = Buffer.create (4 * n) in
  for _ = 1 to n do
    Buffer.add_string buf "{a"
  done;
  for _ = 1 to n do
    Buffer.add_char buf '}'
  done;
  let deep = Bracket.of_string_exn (Buffer.contents buf) in
  Alcotest.(check int) "size" n (Tree.size deep);
  Alcotest.(check int) "depth" n (Tree.depth deep);
  let b = lcrs deep in
  Alcotest.(check int) "binary size" n b.Binary_tree.size;
  let po = postorder deep in
  Alcotest.(check int) "single keyroot on a chain" 1 (Array.length po.Postorder.keyroots);
  let p = Tsj_core.Partition.partition b ~delta:7 in
  Alcotest.(check int) "balanced components" 7
    (Array.length (Tsj_core.Partition.component_sizes p));
  Alcotest.(check bool) "gamma near n/7" true (p.Tsj_core.Partition.gamma >= n / 8);
  Alcotest.(check string) "print roundtrip head" "{a{a"
    (String.sub (Bracket.to_string deep) 0 4)

let test_gen_random_tree_size () =
  let rng = Prng.create 11 in
  let wrong =
    List.filter
      (fun size -> Tree.size (Gen.random_tree rng size) <> size)
      (List.init 200 (fun i -> i + 1))
  in
  Alcotest.(check (list int)) "sizes 1..200 not met exactly" [] wrong

(* The two-pass LC-RS construction that [Binary_tree.of_postorder]
   replaced: the general tree annotated with general-postorder numbers,
   converted to linked binary nodes, then numbered in binary postorder. *)
type anode = { alabel : int; apost : int; achildren : anode list }

type bnode = { blabel : int; bpost : int; bleft : bnode option; bright : bnode option }

let reference_of_tree tree =
  let counter = ref 0 in
  let rec annotate (node : Tree.t) =
    let achildren = List.map annotate node.children in
    let apost = !counter in
    incr counter;
    { alabel = node.label; apost; achildren }
  in
  let rec conv node siblings =
    let bleft = match node.achildren with [] -> None | c :: rest -> Some (conv c rest) in
    let bright = match siblings with [] -> None | s :: rest -> Some (conv s rest) in
    { blabel = node.alabel; bpost = node.apost; bleft; bright }
  in
  let n = Tree.size tree in
  let label = Array.make n 0 and left = Array.make n (-1) and right = Array.make n (-1) in
  let gpost = Array.make n 0 in
  let counter = ref 0 in
  let rec number b =
    let l = Option.map number b.bleft in
    let r = Option.map number b.bright in
    let me = !counter in
    incr counter;
    label.(me) <- b.blabel;
    gpost.(me) <- b.bpost;
    Option.iter (fun c -> left.(me) <- c) l;
    Option.iter (fun c -> right.(me) <- c) r;
    me
  in
  ignore (number (conv (annotate tree) []));
  { Binary_tree.size = n; label; left; right; gpost }

let test_lcrs_exhaustive () =
  List.iter
    (fun x ->
      let reference = reference_of_tree x in
      if lcrs x <> reference then
        Alcotest.failf "Binary_tree.of_postorder differs from the reference on %s"
          (Bracket.to_string x);
      if Form_reference.lcrs x <> reference then
        Alcotest.failf "Binary_tree.of_tree differs from the reference on %s"
          (Bracket.to_string x))
    (Lazy.force small_trees)

let suite =
  [
    Alcotest.test_case "deep trees (50k chain)" `Slow test_deep_trees;
    Alcotest.test_case "label interning" `Quick test_label_interning;
    Alcotest.test_case "label slices and growth past 100K" `Quick test_label_slices_and_growth;
    Alcotest.test_case "label interning from two domains" `Quick test_label_two_domains;
    Alcotest.test_case "size/depth/degree" `Quick test_tree_size_depth_degree;
    Alcotest.test_case "equal/compare/hash" `Quick test_tree_equal_compare;
    Alcotest.test_case "Postorder.both (exhaustive)" `Quick
      test_postorder_both_exhaustive;
    Alcotest.test_case "label_set" `Quick test_tree_label_set;
    Alcotest.test_case "nodes pre/postorder" `Quick test_nodes_postorder;
    Alcotest.test_case "subtree_at_postorder" `Quick test_subtree_at_postorder;
    Alcotest.test_case "bracket roundtrip (fixed)" `Quick test_bracket_roundtrip_fixed;
    Alcotest.test_case "bracket escapes" `Quick test_bracket_escapes;
    Alcotest.test_case "bracket errors" `Quick test_bracket_errors;
    Alcotest.test_case "bracket whitespace/comments" `Quick test_bracket_whitespace_comments;
    Alcotest.test_case "bracket file roundtrip" `Quick test_bracket_file_roundtrip;
    prop_bracket_roundtrip;
    Alcotest.test_case "bracket parser = reference parser" `Quick
      test_bracket_matches_reference;
    Alcotest.test_case "bracket roundtrip with hostile labels" `Quick
      test_bracket_hostile_roundtrip;
    Alcotest.test_case "pp renderings" `Quick test_pp_renderings;
    Alcotest.test_case "fold" `Quick test_fold;
    Alcotest.test_case "map_labels" `Quick test_map_labels;
    Alcotest.test_case "traversal sequences" `Quick test_traversal_sequences;
    Alcotest.test_case "postorder lld/keyroots" `Quick test_postorder_lld_keyroots;
    prop_postorder_invariants;
    Alcotest.test_case "binary tree (paper fig. 4)" `Quick test_binary_tree_fig4;
    prop_binary_roundtrip;
    prop_binary_structure;
    Alcotest.test_case "edit rename" `Quick test_edit_rename;
    Alcotest.test_case "edit delete (paper fig. 2)" `Quick test_edit_delete;
    Alcotest.test_case "edit delete root" `Quick test_edit_delete_root;
    Alcotest.test_case "edit insert" `Quick test_edit_insert;
    Alcotest.test_case "edit insert bounds" `Quick test_edit_insert_bounds;
    Alcotest.test_case "insert/delete inverse" `Quick test_edit_inverse;
    prop_edit_preserves_treeness;
    prop_random_op_valid;
    Alcotest.test_case "Gen.random_tree has exactly size nodes" `Quick
      test_gen_random_tree_size;
    Alcotest.test_case "LC-RS one pass = two-pass reference (exhaustive)" `Quick
      test_lcrs_exhaustive;
  ]

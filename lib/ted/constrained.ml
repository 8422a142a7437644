module Tree = Tsj_tree.Tree

(* Compact per-tree structure: postorder-numbered nodes with children id
   lists and subtree sizes. *)
type compact = {
  n : int;
  labels : int array;
  children : int array array;
  sizes : int array;
  root : int;
}

let compact_of_tree tree =
  let n = Tree.size tree in
  let labels = Array.make n 0 in
  let children = Array.make n [||] in
  let sizes = Array.make n 1 in
  let counter = ref 0 in
  let rec go (node : Tree.t) =
    let kids = List.map go node.children in
    let me = !counter in
    incr counter;
    labels.(me) <- node.label;
    children.(me) <- Array.of_list kids;
    sizes.(me) <- List.fold_left (fun acc c -> acc + sizes.(c)) 1 kids;
    me
  in
  let root = go tree in
  { n; labels; children; sizes; root }

(* Zhang's O(|T1| |T2|) dynamic program.

   d.(i).(j): constrained distance between the subtrees rooted at i, j.
   df.(i).(j): constrained distance between the forests of their children.

   Recurrences (unit costs; [del i] = delete the whole subtree of i,
   [delf i] = delete the whole child forest of i):

   df i j = min
     - alignment of the child sequences, where matching child pair (a, b)
       costs d a b, skipping a child costs its full deletion/insertion;
     - delf j's forest entirely except one child b that swallows all of
       F_i:  delf j - delf b + df i b;
     - symmetrically with one child a of i swallowing F_j.

   d i j = min
     - df i j + (0 or 1 for the root labels);
     - del j - del b + d i b for some child b of j (i's tree maps inside
       one subtree of j, everything else in j inserted);
     - symmetrically for some child a of i. *)
let distance t1 t2 =
  if t1 == t2 then 0
    (* A tree against itself is trivially at distance 0. *)
  else
  let a = compact_of_tree t1 and b = compact_of_tree t2 in
  let d = Array.make_matrix a.n b.n 0 in
  let df = Array.make_matrix a.n b.n 0 in
  let del i = a.sizes.(i) in
  let ins j = b.sizes.(j) in
  let delf i = a.sizes.(i) - 1 in
  let insf j = b.sizes.(j) - 1 in
  for i = 0 to a.n - 1 do
    let ca = a.children.(i) in
    let m = Array.length ca in
    for j = 0 to b.n - 1 do
      let cb = b.children.(j) in
      let n = Array.length cb in
      (* --- forest distance --- *)
      let align =
        (* sequence alignment over the child trees *)
        let dp = Array.make_matrix (m + 1) (n + 1) 0 in
        for x = 1 to m do
          dp.(x).(0) <- dp.(x - 1).(0) + del ca.(x - 1)
        done;
        for y = 1 to n do
          dp.(0).(y) <- dp.(0).(y - 1) + ins cb.(y - 1)
        done;
        for x = 1 to m do
          for y = 1 to n do
            dp.(x).(y) <-
              Int.min
                (Int.min
                   (dp.(x - 1).(y) + del ca.(x - 1))
                   (dp.(x).(y - 1) + ins cb.(y - 1)))
                (dp.(x - 1).(y - 1) + d.(ca.(x - 1)).(cb.(y - 1)))
          done
        done;
        dp.(m).(n)
      in
      let best = ref align in
      (* F_i maps entirely inside the forest of one child of j *)
      Array.iter
        (fun cj ->
          let v = insf j - insf cj + df.(i).(cj) in
          if v < !best then best := v)
        cb;
      (* symmetric *)
      Array.iter
        (fun ci ->
          let v = delf i - delf ci + df.(ci).(j) in
          if v < !best then best := v)
        ca;
      df.(i).(j) <- !best;
      (* --- tree distance --- *)
      let rename = if a.labels.(i) = b.labels.(j) then 0 else 1 in
      let best = ref (df.(i).(j) + rename) in
      Array.iter
        (fun cj ->
          let v = ins j - ins cj + d.(i).(cj) in
          if v < !best then best := v)
        cb;
      Array.iter
        (fun ci ->
          let v = del i - del ci + d.(ci).(j) in
          if v < !best then best := v)
        ca;
      d.(i).(j) <- !best
    done
  done;
  d.(a.root).(b.root)

let within t1 t2 k = k >= 0 && distance t1 t2 <= k

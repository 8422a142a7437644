module Binary_tree = Tsj_tree.Binary_tree
module Label = Tsj_tree.Label

type mode = Two_sided | Paper_rank | Label_only

(* The subgraphs registered under one key, as one linked block per
   posting.  A posting keeps the exact position, root label and twig
   slots (the child's label inside the component, else ε) its key was
   packed from, and the size through [sub]: the key may collide. *)
type postings =
  | Nil
  | Posting of {
      pos : int;
      label : int;
      left : int;
      right : int;
      sub : Subgraph.t;
      next : postings;
    }

(* Packs (tree size, position, root label) 21 bits apart; wider fields
   overlap and collide, which the postings' exact fields make harmless. *)
let key ~size ~pos ~label = (((size lsl 21) + pos) lsl 21) + label

module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* Mix the key: buckets come from the hash's low bits, which in the
     packed key are the root label's.  With an identity hash, probing
     2,000 swissprot trees took ~15x longer (2-vCPU host).  SplitMix64's
     finalizer, constants cut to 63 bits. *)
  let hash k =
    let k = (k lxor (k lsr 30)) * 0x3F58476D1CE4E5B9 in
    let k = (k lxor (k lsr 27)) * 0x14D049BB133111EB in
    k lxor (k lsr 31)
end)

type t = {
  tau : int;
  mode : mode;
  by_start : postings Tbl.t; (* position: general postorder number *)
  by_end : postings Tbl.t;   (* position: size - 1 - general postorder *)
  sizes : unit Tbl.t;            (* the tree sizes with indexed subgraphs *)
  mutable count : int;
}

let create ?(mode = Two_sided) ~tau () =
  if tau < 0 then invalid_arg "Two_layer_index.create: negative threshold";
  let table () = Tbl.create 64 in
  { tau; mode; by_start = table (); by_end = table (); sizes = table (); count = 0 }

let insert t (s : Subgraph.t) =
  let label, left, right = Subgraph.label_key s in
  let size = s.Subgraph.tree_size in
  let add table pos =
    let k = key ~size ~pos ~label in
    let next = Option.value (Tbl.find_opt table k) ~default:Nil in
    Tbl.replace table k (Posting { pos; label; left; right; sub = s; next })
  in
  let add_window table center half =
    for pos = max 0 (center - half) to center + half do
      add table pos
    done
  in
  let pk = s.Subgraph.root_gpost in
  let qk = size - 1 - pk in
  (match t.mode with
  | Two_sided ->
    (* Over a script of lambda <= tau insert/delete operations, the
       postorder number of an untouched subgraph's image shifts by the
       number of node insertions/deletions positioned before it, and its
       end-relative position by the number positioned after it.  The two
       shift budgets sum to <= tau, so one of them is <= tau/2: register
       the subgraph under both coordinates with half windows and probe
       both tables. *)
    let half = t.tau / 2 in
    add_window t.by_start pk half;
    add_window t.by_end qk half
  | Paper_rank ->
    (* The paper's postorder pruning (Section 3.4): Δ' = τ - ⌊k/2⌋ keyed by
       subgraph rank k.  Read end-relative, which is the interpretation
       consistent with the paper's proof sketch ("∆ operations change the
       size of N_k by at most ∆").  NOT guaranteed complete: the fallback
       argument ("an earlier subgraph will be selected instead") does not
       cover operations that touch an early subgraph through a bridging
       edge while their node sits late — see the test suite.  Provided for
       ablation against the sound default. *)
    add_window t.by_end qk (t.tau - (s.Subgraph.rank / 2))
  | Label_only ->
    (* Ablation: no postorder layer at all — every subgraph of a size
       sits at position 0 and only the twig keys select. *)
    add t.by_start 0);
  Tbl.replace t.sizes size ();
  t.count <- t.count + 1

let n_subgraphs t = t.count

let n_groups t = Tbl.length t.by_start + Tbl.length t.by_end

(* Precomputed per-node twig labels of a probed tree.  Probing runs the
   same tree over every size of a window and up to two coordinates —
   recomputing the twig of node [v] for every lookup showed up in join
   profiles.  A cursor computes all of them once. *)
type cursor = {
  c_l : int array;
  c_ll : int array; (* left-child label, ε when absent *)
  c_lr : int array;
  c_gpost : int array; (* shared with the source tree, not copied *)
  c_size : int;
}

let cursor (target : Binary_tree.t) =
  let n = target.Binary_tree.size in
  let label = target.Binary_tree.label in
  let child lane v =
    match lane.(v) with
    | -1 -> Label.epsilon
    | c -> label.(c)
  in
  {
    c_l = label; (* shared, read-only *)
    c_ll = Array.init n (child target.Binary_tree.left);
    c_lr = Array.init n (child target.Binary_tree.right);
    c_gpost = target.Binary_tree.gpost;
    c_size = n;
  }

(* Calls [f sub v] on the postings of one key whose exact fields are
   (size, pos, label) and whose twig slots are each ε or equal to the
   node's child label ([ll], [lr]). *)
let rec visit ~size ~pos label ll lr v f = function
  | Nil -> ()
  | Posting p ->
    if
      p.pos = pos && p.label = label
      && (p.left = Label.epsilon || p.left = ll)
      && (p.right = Label.epsilon || p.right = lr)
      && p.sub.Subgraph.tree_size = size
    then f p.sub v;
    visit ~size ~pos label ll lr v f p.next

let scan table ~size ~pos (cur : cursor) v f =
  let label = cur.c_l.(v) in
  match Tbl.find_opt table (key ~size ~pos ~label) with
  | Some ps -> visit ~size ~pos label cur.c_ll.(v) cur.c_lr.(v) v f ps
  | None -> ()

let probe t (cur : cursor) ~lo ~hi f =
  for size = max 1 lo to hi do
    if Tbl.mem t.sizes size then
      for v = 0 to cur.c_size - 1 do
        match t.mode with
        | Label_only -> scan t.by_start ~size ~pos:0 cur v f
        | Two_sided ->
          let p = cur.c_gpost.(v) in
          scan t.by_start ~size ~pos:p cur v f;
          scan t.by_end ~size ~pos:(cur.c_size - 1 - p) cur v f
        | Paper_rank ->
          scan t.by_end ~size ~pos:(cur.c_size - 1 - cur.c_gpost.(v)) cur v f
      done
  done

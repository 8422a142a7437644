module Binary_tree = Tsj_tree.Binary_tree
module Label = Tsj_tree.Label

type twig = int * int * int

type mode = Two_sided | Paper_rank | Label_only

type group = (twig, Subgraph.t list ref) Hashtbl.t

type t = {
  tau : int;
  mode : mode;
  by_start : (int, group) Hashtbl.t; (* keyed by general postorder number *)
  by_end : (int, group) Hashtbl.t;   (* keyed by (size - 1 - general postorder) *)
  mutable count : int;
}

let create ?(mode = Two_sided) ~tau () =
  if tau < 0 then invalid_arg "Two_layer_index.create: negative threshold";
  { tau; mode; by_start = Hashtbl.create 64; by_end = Hashtbl.create 64; count = 0 }

let add_to table post key s =
  let group =
    match Hashtbl.find_opt table post with
    | Some g -> g
    | None ->
      let g = Hashtbl.create 8 in
      Hashtbl.add table post g;
      g
  in
  match Hashtbl.find_opt group key with
  | Some l -> l := s :: !l
  | None -> Hashtbl.add group key (ref [ s ])

let add_window table center half key s =
  for post = center - half to center + half do
    if post >= 0 then add_to table post key s
  done

let insert t (s : Subgraph.t) =
  let key = Subgraph.label_key s in
  let pk = s.Subgraph.root_gpost in
  let qk = s.Subgraph.tree_size - 1 - pk in
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
    add_window t.by_start pk half key s;
    add_window t.by_end qk half key s
  | Paper_rank ->
    (* The paper's postorder pruning (Section 3.4): Δ' = τ - ⌊k/2⌋ keyed by
       subgraph rank k.  Read end-relative, which is the interpretation
       consistent with the paper's proof sketch ("∆ operations change the
       size of N_k by at most ∆").  NOT guaranteed complete: the fallback
       argument ("an earlier subgraph will be selected instead") does not
       cover operations that touch an early subgraph through a bridging
       edge while their node sits late — see the test suite.  Provided for
       ablation against the sound default. *)
    let delta' = t.tau - (s.Subgraph.rank / 2) in
    add_window t.by_end qk delta' key s
  | Label_only ->
    (* Ablation: no postorder layer at all — every subgraph lives in one
       position-less group and only the twig keys select. *)
    add_to t.by_start 0 key s);
  t.count <- t.count + 1

let n_subgraphs t = t.count

let n_groups t =
  let count table = Hashtbl.fold (fun _ group acc -> acc + Hashtbl.length group) table 0 in
  count t.by_start + count t.by_end

let probe_table table post l ll lr f =
  match Hashtbl.find_opt table post with
  | None -> ()
  | Some group ->
    let visit key =
      match Hashtbl.find_opt group key with
      | Some subs -> List.iter f !subs
      | None -> ()
    in
    (* The four compatible twig keys; collapse duplicates when a child is
       absent (its concrete label is already ε). *)
    visit (l, ll, lr);
    if lr <> Label.epsilon then visit (l, ll, Label.epsilon);
    if ll <> Label.epsilon then visit (l, Label.epsilon, lr);
    if ll <> Label.epsilon || lr <> Label.epsilon then
      visit (l, Label.epsilon, Label.epsilon)

(* Precomputed per-node twig keys of a probed tree.  Probing runs the
   same tree against one index per admissible size, each with up to two
   coordinate tables — recomputing the twig of node [v] for every
   (size, table) lookup showed up in join profiles.  A cursor computes
   all of them once. *)
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

let probe_cursor t (cur : cursor) v f =
  let l = cur.c_l.(v) and ll = cur.c_ll.(v) and lr = cur.c_lr.(v) in
  match t.mode with
  | Label_only -> probe_table t.by_start 0 l ll lr f
  | Two_sided | Paper_rank ->
    let p = cur.c_gpost.(v) in
    probe_table t.by_start p l ll lr f;
    probe_table t.by_end (cur.c_size - 1 - p) l ll lr f

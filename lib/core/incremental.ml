module Tree = Tsj_tree.Tree
module Binary_tree = Tsj_tree.Binary_tree
module Ted = Tsj_ted.Ted
module Bounds = Tsj_ted.Bounds
module Form = Tsj_tree.Form

type t = {
  tau : int;
  mutable forms : Bounds.t array;
      (* growable; slot i = tree id i: its prep (which holds the stored
         tree) and bound form, built eagerly by the single writer so
         readers never fill anything in *)
  mutable count : int;
  bands : Size_bands.t;
  exact : (int, int list) Hashtbl.t;
      (* structural hash -> ids, newest first; collisions are resolved
         by [Tree.equal].  Serves tau = 0 point queries without probing
         or TED: distance 0 is exactly structural equality. *)
  mutable n_candidates : int;
  mutable n_indexed : int;
}

let create ~tau () =
  if tau < 0 then invalid_arg "Incremental.create: negative threshold";
  {
    tau;
    forms = Array.make 16 (Bounds.of_tree (Tree.leaf Tsj_tree.Label.epsilon));
    count = 0;
    bands = Size_bands.create ~tau ();
    exact = Hashtbl.create 64;
    n_candidates = 0;
    n_indexed = 0;
  }

(* Deep structural hash: the default [Hashtbl.hash] caps the traversal
   at 10 meaningful nodes, which would lump most real trees into a
   handful of buckets. *)
let tree_key tree = Hashtbl.hash_param 1024 4096 tree

let tau t = t.tau

let n_trees t = t.count

let stored t id = Ted.tree (Bounds.prep t.forms.(id))

let tree t id =
  if id < 0 || id >= t.count then invalid_arg "Incremental.tree: unknown id";
  stored t id

let stats t = (t.n_candidates, t.n_indexed)

let grow t =
  let cap = Array.length t.forms in
  if t.count = cap then begin
    let forms = Array.make (2 * cap) t.forms.(0) in
    Array.blit t.forms 0 forms 0 cap;
    t.forms <- forms
  end

(* Candidate ids among the already-inserted trees for a probe of shape
   [btree], over the [size ± tau] window, in discovery order. *)
let band_candidates t ~tau btree =
  let size = btree.Binary_tree.size in
  (Size_bands.probe t.bands ~lo:(size - tau) ~hi:(size + tau) btree).Size_bands.candidates

let find_equal t q =
  Option.value (Hashtbl.find_opt t.exact (tree_key q)) ~default:[]
  |> List.filter (fun id -> Tree.equal (stored t id) q)
  |> function
  | [] -> None
  | ids -> Some (List.fold_left min max_int ids)

(* Store [tree] under the next id and index it.  With [verify] it
   first probes and verifies the earlier trees in its size band and
   returns its partners; without, it only indexes. *)
let insert_tree ~verify t tree =
  grow t;
  let id = t.count in
  let f = Form.of_tree tree in
  let form = Bounds.of_form tree f in
  t.forms.(id) <- form;
  t.count <- t.count + 1;
  (let key = tree_key tree in
   let ids = Option.value (Hashtbl.find_opt t.exact key) ~default:[] in
   Hashtbl.replace t.exact key (id :: ids));
  let btree = f.lcrs in
  (* 1. Probe: candidates among all previously inserted trees in the
     size band, in either direction; 2. verify them. *)
  let results =
    if not verify then []
    else
      band_candidates t ~tau:t.tau btree
      |> List.filter_map (fun tj ->
             t.n_candidates <- t.n_candidates + 1;
             match Bounds.verify ~cascade:true ~tau:t.tau form t.forms.(tj) with
             | (Bounds.Accepted d | Bounds.Verified d) when d <= t.tau -> Some (tj, d)
             | _ -> None)
      |> List.sort compare
  in
  (* 3. Index the new tree. *)
  t.n_indexed <- t.n_indexed + Size_bands.insert t.bands id btree;
  results

let add t tree = insert_tree ~verify:true t tree

let insert t tree = ignore (insert_tree ~verify:false t tree)

(* --- non-mutating queries (the serving path) --- *)

type query_result = {
  hits : (int * int) list;
  degraded : bool;
  unverified : (int * int * int) list;
}

(* The per-request budget is polled once per this many candidates. *)
let poll_every = 128

let query ?budget ?tau t q =
  let tau = Option.value tau ~default:t.tau in
  if tau > t.tau then
    invalid_arg
      (Printf.sprintf "Incremental.query: tau = %d exceeds the index threshold %d" tau
         t.tau);
  if tau < 0 then invalid_arg "Incremental.query: negative threshold";
  if tau = 0 then begin
    (* Point query: TED 0 is exactly structural equality, so the
       exact-match hash answers without probing, preprocessing or any
       distance computation — this is the hot read of the serving
       path. *)
    let hits =
      Option.value (Hashtbl.find_opt t.exact (tree_key q)) ~default:[]
      |> List.filter (fun id -> Tree.equal (stored t id) q)
      |> List.sort compare
      |> List.map (fun id -> (id, 0))
    in
    { hits; degraded = false; unverified = [] }
  end
  else begin
  let f = Form.of_tree q in
  let cands = Array.of_list (List.sort compare (band_candidates t ~tau f.lcrs)) in
  let n = Array.length cands in
  (* Most queries meet no candidate: sort the query's label bag only
     for one. *)
  let qform = lazy (Bounds.of_form q f) in
  let hits = ref [] in
  let unverified = ref [] in
  let degraded = ref false in
  let live () =
    match budget with None -> true | Some b -> Tsj_join.Budget.live b
  in
  let rec go i =
    if i < n then
      if i mod poll_every <> 0 || live () then begin
        let tj = cands.(i) in
        Tsj_util.Fault_inject.hit "incremental.verify" tj;
        (match Bounds.verify ~cascade:true ~tau (Lazy.force qform) t.forms.(tj) with
        | (Bounds.Accepted d | Bounds.Verified d) when d <= tau -> hits := (tj, d) :: !hits
        | _ -> ());
        go (i + 1)
      end
      else begin
        (* Over budget: the remaining candidates are reported with a
           bound sandwich instead of being verified.  Only the linear
           bounds run here (size, label bag, degree bag; greedy upper):
           the traversal SEDs cost about as much per pair as the cascade
           and banded kernel together, so with them a degraded answer
           would take as long as the exact one.  A candidate whose lower
           bound already exceeds τ is discarded — it is provably not a
           result. *)
        degraded := true;
        let qf = Lazy.force qform in
        for k = i to n - 1 do
          let tj = cands.(k) in
          let lower, upper = Bounds.sandwich qf t.forms.(tj) in
          if lower <= tau then unverified := (tj, lower, upper) :: !unverified
        done
      end
  in
  go 0;
  {
    hits =
      List.sort
        (fun (i1, d1) (i2, d2) -> if d1 <> d2 then compare d1 d2 else compare i1 i2)
        !hits;
    degraded = !degraded;
    unverified = List.sort compare !unverified;
  }
  end

(* One probe at the index threshold: [query] returns every tree within
   τ sorted by (distance, id), so its first k are the k nearest. *)
let nearest ~k t q =
  if k < 0 then invalid_arg "Incremental.nearest: negative k";
  if k = 0 then [] else List.filteri (fun i _ -> i < k) (query t q).hits

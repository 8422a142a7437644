module Tree = Tsj_tree.Tree
module Prng = Tsj_util.Prng

type t = {
  name : string;
  params : Generator.params;
  dz : float;
  mothers_per_1000 : int;
  dup_rate : float;
  dup_dz : float;
  dup_exact : float;
  default_cardinality : int;
  fragment_pool : int;
  fragment_depth : int;
}

let swissprot =
  {
    name = "swissprot";
    params =
      {
        Generator.max_fanout = 25;
        max_depth = 4;
        n_labels = 84;
        avg_size = 62;
        size_jitter = 0.3;
      };
    dz = 0.05;
    mothers_per_1000 = 0;
    dup_rate = 0.4;
    dup_dz = 0.02;
    dup_exact = 0.0;
    default_cardinality = 100_000;
    fragment_pool = 0;
    fragment_depth = 0;
  }

let treebank =
  {
    name = "treebank";
    params =
      {
        Generator.max_fanout = 4;
        max_depth = 35;
        n_labels = 218;
        avg_size = 45;
        size_jitter = 0.3;
      };
    dz = 0.05;
    mothers_per_1000 = 0;
    dup_rate = 0.4;
    dup_dz = 0.03;
    dup_exact = 0.0;
    default_cardinality = 50_000;
    fragment_pool = 0;
    fragment_depth = 0;
  }

let sentiment =
  {
    name = "sentiment";
    params =
      {
        Generator.max_fanout = 2;
        max_depth = 30;
        n_labels = 5;
        avg_size = 37;
        size_jitter = 0.3;
      };
    dz = 0.05;
    mothers_per_1000 = 0;
    dup_rate = 0.4;
    dup_dz = 0.04;
    dup_exact = 0.0;
    default_cardinality = 10_000;
    fragment_pool = 0;
    fragment_depth = 0;
  }

let synthetic =
  {
    name = "synthetic";
    params = Generator.default;
    dz = Decay.default_dz;
    mothers_per_1000 = 0;
    dup_rate = 0.4;
    dup_dz = 0.02;
    dup_exact = 0.0;
    default_cardinality = 10_000;
    fragment_pool = 0;
    fragment_depth = 0;
  }

let redundant =
  {
    name = "redundant";
    params =
      {
        (* fragment shape: small bushy subtrees, a narrow alphabet *)
        Generator.max_fanout = 4;
        max_depth = 4;
        n_labels = 16;
        avg_size = 20;
        size_jitter = 0.3;
      };
    dz = 0.02;
    mothers_per_1000 = 0;
    dup_rate = 0.3;
    dup_dz = 0.02;
    dup_exact = 0.5;
    default_cardinality = 10_000;
    fragment_pool = 32;
    fragment_depth = 2;
  }

let all = [ swissprot; treebank; sentiment; synthetic; redundant ]

let find name =
  let lname = String.lowercase_ascii name in
  List.find_opt (fun p -> p.name = lname) all

(* Number of Binomial(size, dz) successes, by direct simulation (sizes are
   small, so this is cheap and keeps the stream deterministic). *)
let binomial rng size dz =
  let k = ref 0 in
  for _ = 1 to size do
    if Prng.float rng < dz then incr k
  done;
  !k

let instantiate profile ~seed ~n =
  if n < 0 then invalid_arg "Profiles.instantiate: negative cardinality";
  let rng = Prng.create (seed lxor Hashtbl.hash profile.name) in
  let n_mothers = n * profile.mothers_per_1000 / 1000 in
  let mothers =
    Array.init n_mothers (fun _ -> Generator.Mother.create rng profile.params)
  in
  let labels = Generator.alphabet profile.params in
  (* Shared fragment pool (fragment-composed profiles): every fresh tree
     is a shallow random "glue" scaffold whose leaves are drawn from this
     fixed pool of subtrees, referenced physically — the same fragment
     value appears in many trees: subtree repetition across the
     collection. *)
  let fragments =
    Array.init profile.fragment_pool (fun _ ->
        Generator.random_tree rng profile.params)
  in
  let rec glue depth =
    if depth = 0 then fragments.(Prng.int rng (Array.length fragments))
    else begin
      let fanout = 1 + Prng.int rng 3 in
      Tree.node
        labels.(Prng.int rng (Array.length labels))
        (List.init fanout (fun _ -> glue (depth - 1)))
    end
  in
  (* A fresh (non-duplicate) entry: either an independent random tree, or
     — when the profile uses mother templates — a decayed sample of a
     random mother (schema-shared corpora). *)
  let fresh () =
    if profile.fragment_pool > 0 then glue profile.fragment_depth
    else if n_mothers = 0 then Generator.random_tree rng profile.params
    else begin
      let mother = mothers.(Prng.int rng n_mothers) in
      let target =
        let p = profile.params in
        let t = float_of_int p.Generator.avg_size in
        let lo = int_of_float (t *. (1.0 -. p.Generator.size_jitter)) in
        let hi = int_of_float (t *. (1.0 +. p.Generator.size_jitter)) in
        Prng.int_in rng (max 1 lo) (max 1 hi)
      in
      let sampled = Generator.Mother.sample rng mother ~target_size:target in
      Decay.perturb rng ~dz:profile.dz ~labels sampled
    end
  in
  let out = Array.make (max n 1) (Tsj_tree.Tree.leaf (Tsj_tree.Label.intern "L0")) in
  for i = 0 to n - 1 do
    (* Real corpora are near-duplicate heavy; with probability [dup_rate]
       the next entry is a lightly edited copy of an earlier one (forming
       similarity clusters), otherwise a fresh mother sample. *)
    if i > 0 && Prng.float rng < profile.dup_rate then begin
      let src = out.(Prng.int rng i) in
      (* An exact re-submission ([dup_exact] share of the duplicates;
         the extra draw is gated so profiles without exact duplicates
         keep their historical random stream) or a lightly edited copy. *)
      if profile.dup_exact > 0.0 && Prng.float rng < profile.dup_exact then
        out.(i) <- src
      else begin
        let k = binomial rng (Tsj_tree.Tree.size src) profile.dup_dz in
        let _, copy = Tsj_tree.Edit_op.random_script rng ~labels k src in
        out.(i) <- copy
      end
    end
    else out.(i) <- fresh ()
  done;
  if n = 0 then [||] else out

let with_params profile params = { profile with params }

let describe trees =
  let n = Array.length trees in
  if n = 0 then "empty dataset"
  else begin
    let sizes = Array.map (fun t -> float_of_int (Tree.size t)) trees in
    let depths = Array.map (fun t -> float_of_int (Tree.depth t)) trees in
    let module S = Set.Make (Int) in
    let labels =
      Array.fold_left
        (fun acc t -> List.fold_left (fun acc l -> S.add l acc) acc (Tree.label_set t))
        S.empty trees
    in
    let _, max_depth = Tsj_util.Statistics.min_max depths in
    Printf.sprintf
      "%d trees, avg size %.2f, distinct labels %d, avg depth %.2f, max depth %.0f" n
      (Tsj_util.Statistics.mean sizes)
      (S.cardinal labels)
      (Tsj_util.Statistics.mean depths)
      max_depth
  end

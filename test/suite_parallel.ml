(* Tests for the work-stealing domain pool and the determinism guarantee
   of the parallel PartSJ join (parallel prep and verification around one
   sequential candidate sweep): at every domain count the join must
   produce bit-identical pairs, candidate counts and probe statistics,
   and those of a list model of Algorithm 1's sweep. *)

module Pool = Tsj_join.Pool
module Partsj = Tsj_core.Partsj
module Two_layer_index = Tsj_core.Two_layer_index
module Types = Tsj_join.Types
module Prng = Tsj_util.Prng

(* --- pool unit tests --- *)

let with_pool domains f =
  let p = Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

let test_pool_create_validation () =
  Alcotest.check_raises "domains 0" (Invalid_argument "Pool.create: domains must be >= 1")
    (fun () -> ignore (Pool.create ~domains:0))

let test_pool_size () =
  with_pool 3 (fun p -> Alcotest.(check int) "size" 3 (Pool.size p));
  with_pool 1 (fun p -> Alcotest.(check int) "solo" 1 (Pool.size p))

let test_pool_map_empty_and_short () =
  with_pool 4 (fun p ->
      Alcotest.(check (array int)) "empty" [||] (Pool.map p Fun.id [||]);
      Alcotest.(check (array int)) "singleton" [| 10 |] (Pool.map p (( * ) 2) [| 5 |]);
      Alcotest.(check (array int)) "shorter than pool" [| 1; 2; 3 |]
        (Pool.map p (( + ) 1) [| 0; 1; 2 |]))

let test_pool_for_exactly_once () =
  with_pool 4 (fun p ->
      let n = 500 in
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      Pool.for_ p ~chunk:7 n (fun i -> Atomic.incr hits.(i));
      Array.iteri
        (fun i a ->
          if Atomic.get a <> 1 then
            Alcotest.failf "index %d ran %d times" i (Atomic.get a))
        hits)

let test_pool_run_tasks_exactly_once () =
  with_pool 3 (fun p ->
      let n = 37 in
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      Pool.run_tasks p (Array.init n (fun i () -> Atomic.incr hits.(i)));
      Array.iteri
        (fun i a ->
          if Atomic.get a <> 1 then
            Alcotest.failf "task %d ran %d times" i (Atomic.get a))
        hits;
      Pool.run_tasks p [||])

let test_pool_exception_propagates () =
  with_pool 4 (fun p ->
      (match Pool.for_ p 100 (fun i -> if i = 63 then failwith "pool-boom") with
      | () -> Alcotest.fail "expected exception from for_"
      | exception Failure msg -> Alcotest.(check string) "for_" "pool-boom" msg);
      (match Pool.map p (fun x -> if x = 9 then raise Exit else x) (Array.init 20 Fun.id) with
      | _ -> Alcotest.fail "expected exception from map"
      | exception Exit -> ());
      (* The pool must survive a failed job and accept the next one. *)
      Alcotest.(check (array int)) "usable after failure" [| 0; 1; 2; 3 |]
        (Pool.map p Fun.id (Array.init 4 Fun.id)))

let test_pool_reuse_across_maps () =
  with_pool 4 (fun p ->
      for round = 1 to 5 do
        let xs = Array.init (100 * round) (fun i -> i) in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d" round)
          (Array.map (fun x -> (x * x) + round) xs)
          (Pool.map p (fun x -> (x * x) + round) xs)
      done)

let test_pool_shutdown_idempotent () =
  let p = Pool.create ~domains:3 in
  Pool.shutdown p;
  Pool.shutdown p;
  Alcotest.check_raises "job after shutdown"
    (Invalid_argument "Pool.run: pool is shut down") (fun () ->
      Pool.run p (fun _ -> ()))

(* --- cross-domain determinism of the parallel PartSJ join --- *)

let all_configs =
  [
    (Partsj.Balanced, Two_layer_index.Start_window, "balanced/start");
    (Partsj.Balanced, Two_layer_index.Paper_rank, "balanced/paper-rank");
    (Partsj.Balanced, Two_layer_index.Label_only, "balanced/label-only");
    (Partsj.Random 0xBEEF, Two_layer_index.Start_window, "random/start");
    (Partsj.Random 0xBEEF, Two_layer_index.Paper_rank, "random/paper-rank");
    (Partsj.Random 0xBEEF, Two_layer_index.Label_only, "random/label-only");
  ]

let check_deterministic ?(domains = 4) ~name trees tau =
  List.iter
    (fun (partitioning, index_mode, cfg) ->
      let run d =
        Partsj.join_with_probe_stats ~partitioning ~index_mode ~domains:d ~trees
          ~tau ()
      in
      let o1, p1 = run 1 in
      let oN, pN = run domains in
      let label fmt = Printf.sprintf "%s %s %s" name cfg fmt in
      Alcotest.(check bool) (label "pairs") true (Types.equal_results o1 oN);
      Alcotest.(check int) (label "candidates")
        o1.Types.stats.Types.n_candidates oN.Types.stats.Types.n_candidates;
      Alcotest.(check bool) (label "cascade counters") true
        (o1.Types.stats.Types.cascade = oN.Types.stats.Types.cascade);
      Alcotest.(check int) (label "cascade partitions candidates")
        o1.Types.stats.Types.n_candidates
        (Types.cascade_total o1.Types.stats.Types.cascade);
      Alcotest.(check bool) (label "probe stats") true (p1 = pN))
    all_configs

(* QCheck arbitrary: a seed expanded into a random forest via the
   deterministic Prng, so a failing seed reproduces exactly. *)
let arb_forest =
  QCheck.make
    ~print:(fun (seed, n, max_size) ->
      Printf.sprintf "seed=%d n=%d max_size=%d" seed n max_size)
    (fun st ->
      ( Random.State.int st 0x3FFFFFFF,
        2 + Random.State.int st 14,
        4 + Random.State.int st 12 ))

let prop_join_domains_equal (seed, n, max_size) =
  let rng = Prng.create seed in
  let trees = Array.of_list (Gen.random_forest rng ~n ~max_size) in
  let tau = 1 + (seed mod 3) in
  check_deterministic ~name:(Printf.sprintf "seed=%d" seed) trees tau;
  true

(* The same with exact re-submissions salted in, which the cascade
   decides as [Accept 0]. *)
let prop_duplicates_domains_equal (seed, n, max_size) =
  let rng = Prng.create seed in
  let base = Array.of_list (Gen.random_forest rng ~n ~max_size) in
  let trees =
    Array.init (Array.length base + (n / 2)) (fun i ->
        if i < Array.length base then base.(i)
        else Gen.deep_copy base.(Prng.int rng (Array.length base)))
  in
  check_deterministic ~name:(Printf.sprintf "seed=%d" seed) trees (1 + (seed mod 3));
  true

let test_determinism_clustered () =
  (* Near-duplicate-heavy input: many candidates survive to verification,
     exercising the pipelined verify path across block boundaries. *)
  let rng = Prng.create 2024 in
  let acc = ref [] in
  for _ = 1 to 40 do
    let base = Gen.random_tree rng (3 + Prng.int rng 14) in
    acc := base :: !acc;
    let _, copy =
      Tsj_tree.Edit_op.random_script rng ~labels:Gen.default_alphabet 2 base
    in
    acc := copy :: !acc
  done;
  let trees = Array.of_list !acc in
  List.iter
    (fun tau -> check_deterministic ~name:(Printf.sprintf "tau=%d" tau) trees tau)
    [ 0; 2 ];
  (* Also across several widths, including more domains than trees
     in a block. *)
  List.iter
    (fun domains ->
      check_deterministic ~domains ~name:(Printf.sprintf "width=%d" domains)
        trees 2)
    [ 2; 3; 8 ]

(* --- the join's sweep against a list model of Algorithm 1 --- *)

(* One [Size_bands]; each tree in (size, index) order probes
   [[size - τ, size]] and is then inserted.  Returns the candidate pairs
   (smaller id first), the result pairs with their TED and the probe
   counters. *)
let model_sweep ~partitioning ~tau trees =
  let partition =
    match partitioning with
    | Partsj.Balanced -> Tsj_core.Partition.partition
    | Partsj.Random seed -> Tsj_core.Partition.random_partition (Prng.create seed)
  in
  let size i = Tsj_tree.Tree.size trees.(i) in
  let order =
    List.sort
      (fun a b -> compare (size a, a) (size b, b))
      (List.init (Array.length trees) Fun.id)
  in
  let bands = Tsj_core.Size_bands.create ~tau () in
  let candidates = ref [] in
  let probed = ref 0 and matched = ref 0 and small = ref 0 and indexed = ref 0 in
  List.iter
    (fun ti ->
      let btree = (Tsj_tree.Form.of_tree trees.(ti)).lcrs in
      let p = Tsj_core.Size_bands.probe bands ~lo:(size ti - tau) ~hi:(size ti) btree in
      List.iter
        (fun tj -> candidates := (min ti tj, max ti tj) :: !candidates)
        p.Tsj_core.Size_bands.candidates;
      probed := !probed + p.probed;
      matched := !matched + p.matched;
      small := !small + p.small_hits;
      indexed := !indexed + Tsj_core.Size_bands.insert ~partition bands ti btree)
    order;
  let candidates = List.sort compare !candidates in
  let results =
    List.filter_map
      (fun (i, j) ->
        let d = Tsj_ted.Ted.distance trees.(i) trees.(j) in
        if d <= tau then Some (i, j, d) else None)
      candidates
  in
  ( candidates,
    results,
    {
      Partsj.n_probed = !probed;
      n_matched = !matched;
      n_small_tree_hits = !small;
      n_subgraphs_indexed = !indexed;
    } )

(* Collection sizes straddle the 32-tree block boundaries; near-duplicates
   (edited copies of earlier trees) make candidates found inside a block
   and across blocks. *)
let arb_sweep =
  QCheck.make
    ~print:(fun (seed, n, domains, random) ->
      Printf.sprintf "seed=%d n=%d domains=%d random=%b" seed n domains random)
    QCheck.Gen.(
      quad (int_bound 0x3FFFFFFF)
        (oneofl [ 0; 1; 31; 32; 33; 65; 97 ])
        (oneofl [ 1; 2; 3 ])
        bool)

let prop_sweep_model (seed, n, domains, random) =
  let rng = Prng.create seed in
  let trees = Array.make n (Tsj_tree.Tree.leaf Gen.default_alphabet.(0)) in
  for i = 0 to n - 1 do
    trees.(i) <-
      (if i > 0 && Prng.int rng 2 = 0 then
         snd
           (Tsj_tree.Edit_op.random_script rng ~labels:Gen.default_alphabet
              (Prng.int rng 3)
              trees.(Prng.int rng i))
       else Gen.random_tree rng (1 + Prng.int rng 16))
  done;
  let tau = 1 + (seed mod 2) in
  let partitioning = if random then Partsj.Random seed else Partsj.Balanced in
  let candidates, results, stats = model_sweep ~partitioning ~tau trees in
  let join ?budget () =
    Partsj.join_with_probe_stats ~partitioning ~domains ?budget ~cascade:false ~trees
      ~tau ()
  in
  let out, probe = join () in
  (* A zero per-pair budget quarantines every candidate with its pair, so
     the quarantine record is the join's candidate list. *)
  let quarantined, probe_q = join ~budget:(Tsj_join.Budget.create ~pair_cost_limit:0 ()) () in
  let got_candidates =
    List.sort compare
      (List.filter_map
         (fun q -> Option.map (fun j -> (q.Types.q_i, j)) q.Types.q_j)
         quarantined.Types.quarantined)
  in
  let got_results =
    List.sort compare
      (List.map (fun p -> (p.Types.i, p.Types.j, p.Types.distance)) out.Types.pairs)
  in
  let pp_pairs l = String.concat " " (List.map (fun (i, j) -> Printf.sprintf "%d-%d" i j) l) in
  if got_candidates <> candidates then
    QCheck.Test.fail_reportf "candidates: join %s, model %s" (pp_pairs got_candidates)
      (pp_pairs candidates);
  if got_results <> results then
    QCheck.Test.fail_reportf "results: join %d pairs, model %d" (List.length got_results)
      (List.length results);
  if out.Types.stats.Types.n_candidates <> List.length candidates then
    QCheck.Test.fail_reportf "n_candidates %d, model %d" out.Types.stats.Types.n_candidates
      (List.length candidates);
  probe = stats && probe_q = stats

let suite =
  [
    Alcotest.test_case "pool create validation" `Quick test_pool_create_validation;
    Alcotest.test_case "pool size" `Quick test_pool_size;
    Alcotest.test_case "pool map empty/short" `Quick test_pool_map_empty_and_short;
    Alcotest.test_case "pool for_ exactly once" `Quick test_pool_for_exactly_once;
    Alcotest.test_case "pool run_tasks exactly once" `Quick
      test_pool_run_tasks_exactly_once;
    Alcotest.test_case "pool exception propagation" `Quick test_pool_exception_propagates;
    Alcotest.test_case "pool reuse across maps" `Quick test_pool_reuse_across_maps;
    Alcotest.test_case "pool shutdown idempotent" `Quick test_pool_shutdown_idempotent;
    Alcotest.test_case "join determinism (clustered)" `Quick test_determinism_clustered;
    Gen.qtest ~count:20 "join ~domains:1 = ~domains:4 (random forests)" arb_forest
      prop_join_domains_equal;
    Gen.qtest ~count:20 "join with duplicates across domains" arb_forest
      prop_duplicates_domains_equal;
    Gen.qtest ~count:60 "sweep = probe-then-insert list model" arb_sweep prop_sweep_model;
  ]

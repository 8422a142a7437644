(* Tests for the work-stealing domain pool and the determinism guarantee
   of the block-parallel PartSJ join: at every domain count the join must
   produce bit-identical pairs, candidate counts and probe statistics. *)

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
    (Partsj.Balanced, Two_layer_index.Two_sided, "balanced/two-sided");
    (Partsj.Balanced, Two_layer_index.Paper_rank, "balanced/paper-rank");
    (Partsj.Balanced, Two_layer_index.Label_only, "balanced/label-only");
    (Partsj.Random 0xBEEF, Two_layer_index.Two_sided, "random/two-sided");
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
  ]

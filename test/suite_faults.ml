(* Fault-injection and resilience tests: graceful degradation (quarantine
   soundness under budgets, poisoned trees, verifier faults), cooperative
   cancellation leaving the shared pool reusable, and checkpoint/resume
   bit-identity — the contracts documented in DESIGN.md's resilience
   section. *)

module Pool = Tsj_join.Pool
module Parallel = Tsj_join.Parallel
module Partsj = Tsj_core.Partsj
module Types = Tsj_join.Types
module Budget = Tsj_join.Budget
module Checkpoint = Tsj_join.Checkpoint
module Fault = Tsj_util.Fault_inject
module Faults = Tsj_harness.Faults
module Bracket = Tsj_tree.Bracket
module Prng = Tsj_util.Prng

(* Near-duplicate-heavy forest: enough candidates survive the cascade to
   exercise verification, budgets and the pipelined batches. *)
let clustered seed n_bases =
  let rng = Prng.create seed in
  let acc = ref [] in
  for _ = 1 to n_bases do
    let base = Gen.random_tree rng (4 + Prng.int rng 12) in
    acc := base :: !acc;
    let _, copy =
      Tsj_tree.Edit_op.random_script rng ~labels:Gen.default_alphabet 2 base
    in
    acc := copy :: !acc
  done;
  Array.of_list !acc

let contains haystack needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length haystack && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

(* A truth pair is accounted for if it is reported, or if either endpoint
   (tree-level) or the pair itself (pair-level) is quarantined. *)
let covered out p =
  let i = min p.Types.i p.Types.j and j = max p.Types.i p.Types.j in
  List.exists
    (fun q ->
      match q.Types.q_j with
      | None -> q.Types.q_i = i || q.Types.q_i = j
      | Some b ->
        let a = min q.Types.q_i b and b = max q.Types.q_i b in
        a = i && b = j)
    out.Types.quarantined

let check_sound ~name ~truth out =
  List.iter
    (fun p ->
      if not (List.mem p truth.Types.pairs) then
        Alcotest.failf "%s: false positive (%d, %d, %d)" name p.Types.i p.Types.j
          p.Types.distance)
    out.Types.pairs;
  List.iter
    (fun p ->
      if (not (List.mem p out.Types.pairs)) && not (covered out p) then
        Alcotest.failf "%s: pair (%d, %d) lost without a quarantine record" name
          p.Types.i p.Types.j)
    truth.Types.pairs

let check_stage_partition ~name out =
  Alcotest.(check int)
    (name ^ ": stage counters (incl. quarantined) partition the candidates")
    out.Types.stats.Types.n_candidates
    (Types.cascade_total out.Types.stats.Types.cascade)

(* --- the shared pool survives worker failures and cancellations --- *)

let check_pool_healthy p =
  for _ = 1 to 3 do
    let n = 64 in
    let hits = Array.init n (fun _ -> Atomic.make 0) in
    Pool.run_tasks p (Array.init n (fun i () -> Atomic.incr hits.(i)));
    Array.iteri
      (fun i a ->
        if Atomic.get a <> 1 then Alcotest.failf "task %d ran %d times" i (Atomic.get a))
      hits
  done;
  Alcotest.(check (array int)) "map works" [| 0; 2; 4 |]
    (Pool.map p (fun x -> 2 * x) [| 0; 1; 2 |])

let test_shared_pool_reusable_after_raise () =
  let p = Parallel.pool ~domains:3 in
  (match Pool.for_ p ~chunk:4 200 (fun i -> if i = 77 then failwith "boom-for") with
  | () -> Alcotest.fail "expected raise from for_"
  | exception Failure msg -> Alcotest.(check string) "for_ error" "boom-for" msg);
  check_pool_healthy p;
  (match Pool.run_tasks p (Array.init 10 (fun i () -> if i = 7 then raise Exit)) with
  | () -> Alcotest.fail "expected raise from run_tasks"
  | exception Exit -> ());
  check_pool_healthy p

let test_stop_flag_skips_unclaimed () =
  let p = Parallel.pool ~domains:3 in
  let stop = Atomic.make false in
  let ran = Atomic.make 0 in
  (* Tasks latch the stop flag after a few have run; the batch must
     return (no deadlock) having run each task at most once. *)
  Pool.run_tasks p ~stop
    (Array.init 400 (fun _ () ->
         if Atomic.fetch_and_add ran 1 = 10 then Atomic.set stop true));
  if Atomic.get ran >= 400 then Alcotest.fail "stop flag did not skip any task";
  check_pool_healthy p

(* --- graceful degradation: poisoned trees --- *)

let test_poison_tree () =
  let trees = clustered 11 10 in
  let tau = 2 in
  let truth = Partsj.join ~trees ~tau () in
  let poisoned = 5 in
  let out =
    Fault.with_armed "partsj.prep" ~at:poisoned (fun () ->
        Partsj.join ~domains:2 ~trees ~tau ())
  in
  let is_prep q =
    q.Types.q_i = poisoned && q.Types.q_j = None
    && match q.Types.q_reason with Types.Preprocess_failed _ -> true | _ -> false
  in
  Alcotest.(check bool) "prep quarantine recorded" true
    (List.exists is_prep out.Types.quarantined);
  Alcotest.(check bool) "no pair involves the poisoned tree" true
    (List.for_all
       (fun p -> p.Types.i <> poisoned && p.Types.j <> poisoned)
       out.Types.pairs);
  let expected =
    List.filter (fun p -> p.Types.i <> poisoned && p.Types.j <> poisoned) truth.Types.pairs
  in
  Alcotest.(check bool) "every other pair intact" true (out.Types.pairs = expected);
  check_sound ~name:"poison" ~truth out;
  check_stage_partition ~name:"poison" out

let test_all_trees_poisoned () =
  (* Worker raise on every tree: the whole collection is quarantined, the
     join returns instead of dying, and the shared pool stays usable. *)
  let trees = clustered 7 8 in
  let out = Fault.with_armed "partsj.prep" (fun () -> Partsj.join ~domains:3 ~trees ~tau:1 ()) in
  Alcotest.(check int) "no pairs" 0 (List.length out.Types.pairs);
  Alcotest.(check int) "all trees quarantined" (Array.length trees)
    (List.length out.Types.quarantined);
  check_pool_healthy (Parallel.pool ~domains:3);
  let again = Partsj.join ~domains:3 ~trees ~tau:1 () in
  Alcotest.(check bool) "join recovers once disarmed" true
    (List.length again.Types.pairs > 0)

(* --- graceful degradation: verifier faults --- *)

let test_verify_fault_quarantines_pairs () =
  let trees = clustered 29 10 in
  let tau = 2 in
  let out =
    Fault.with_armed "partsj.verify" (fun () -> Partsj.join ~domains:2 ~trees ~tau ())
  in
  Alcotest.(check int) "no pairs decided" 0 (List.length out.Types.pairs);
  Alcotest.(check int) "every candidate quarantined"
    out.Types.stats.Types.n_candidates
    (List.length out.Types.quarantined);
  Alcotest.(check bool) "reasons are Verify_failed" true
    (List.for_all
       (fun q ->
         match q.Types.q_reason with Types.Verify_failed _ -> true | _ -> false)
       out.Types.quarantined);
  check_stage_partition ~name:"verify fault" out

(* --- graceful degradation: per-pair budgets --- *)

let check_budget ~domains ~limit trees tau =
  let name = Printf.sprintf "budget limit=%d domains=%d" limit domains in
  let r = Faults.run_budgeted ~domains ~pair_cost_limit:limit ~trees ~tau () in
  Alcotest.(check int) (name ^ ": no false positives") 0
    (List.length r.Faults.false_positives);
  Alcotest.(check int) (name ^ ": complete up to quarantine") 0
    (List.length r.Faults.unaccounted);
  check_stage_partition ~name r.Faults.budgeted;
  r

let test_pair_budget_soundness () =
  let trees = clustered 3 12 in
  List.iter
    (fun domains ->
      List.iter (fun limit -> ignore (check_budget ~domains ~limit trees 2)) [ 1; 60; 400 ])
    [ 1; 3 ]

let test_pair_budget_deterministic_across_domains () =
  let trees = clustered 31 12 in
  let r1 = check_budget ~domains:1 ~limit:40 trees 2 in
  let r4 = check_budget ~domains:4 ~limit:40 trees 2 in
  Alcotest.(check bool) "budgeted output identical at 1 and 4 domains" true
    (Types.equal_deterministic r1.Faults.budgeted r4.Faults.budgeted)

(* A pair quarantined by the per-pair budget carries [lower, upper]
   from the linear lower bounds and the greedy upper bound; its true
   distance must lie inside.  Limit 1 quarantines every pair that
   reaches the kernel, close pairs and far ones alike. *)
let test_pair_budget_sandwich_holds_ted () =
  let trees = Array.append (clustered 3 12) (clustered 17 12) in
  let tau = 2 in
  let budget = Budget.create ~pair_cost_limit:1 () in
  let out = Partsj.join ~budget ~trees ~tau () in
  let sandwiches =
    List.filter_map
      (fun q ->
        match (q.Types.q_j, q.Types.q_reason) with
        | Some j, Types.Pair_budget { lower; upper } -> Some (q.Types.q_i, j, lower, upper)
        | _ -> None)
      out.Types.quarantined
  in
  Alcotest.(check bool) "some pairs quarantined by the budget" true (sandwiches <> []);
  List.iter
    (fun (i, j, lower, upper) ->
      let d = Tsj_ted.Zhang_shasha.distance trees.(i) trees.(j) in
      if d < lower || d > upper then
        Alcotest.failf "pair (%d, %d): TED %d outside [%d, %d]" i j d lower upper)
    sandwiches

let arb_forest =
  QCheck.make
    ~print:(fun (seed, n, max_size) ->
      Printf.sprintf "seed=%d n=%d max_size=%d" seed n max_size)
    (fun st ->
      ( Random.State.int st 0x3FFFFFFF,
        4 + Random.State.int st 12,
        4 + Random.State.int st 12 ))

let prop_budget_sound (seed, n, max_size) =
  let rng = Prng.create seed in
  let trees = Array.of_list (Gen.random_forest rng ~n ~max_size) in
  let tau = 1 + (seed mod 3) in
  let limit = 1 + (seed mod 60) in
  let outs =
    List.map
      (fun domains ->
        let r = Faults.run_budgeted ~domains ~pair_cost_limit:limit ~trees ~tau () in
        if r.Faults.false_positives <> [] then
          QCheck.Test.fail_reportf "false positive at %d domains (seed=%d)" domains seed;
        if r.Faults.unaccounted <> [] then
          QCheck.Test.fail_reportf
            "pair lost without quarantine at %d domains (seed=%d)" domains seed;
        r.Faults.budgeted)
      [ 1; 3 ]
  in
  match outs with
  | [ o1; o3 ] ->
    if not (Types.equal_deterministic o1 o3) then
      QCheck.Test.fail_reportf "budgeted join differs across domain counts (seed=%d)"
        seed;
    true
  | _ -> true

(* --- deadlines and cooperative cancellation --- *)

let test_zero_time_budget () =
  let trees = clustered 5 10 in
  let budget = Budget.create ~time_budget_s:0.0 () in
  let out = Partsj.join ~domains:3 ~budget ~trees ~tau:2 () in
  Alcotest.(check int) "no pairs" 0 (List.length out.Types.pairs);
  Alcotest.(check int) "every tree quarantined" (Array.length trees)
    (List.length out.Types.quarantined);
  Alcotest.(check bool) "reasons are Deadline" true
    (List.for_all
       (fun q -> q.Types.q_reason = Types.Deadline && q.Types.q_j = None)
       out.Types.quarantined);
  check_pool_healthy (Parallel.pool ~domains:3);
  let truth = Partsj.join ~domains:3 ~trees ~tau:2 () in
  check_sound ~name:"deadline 0" ~truth out

let test_simulated_budget_exhaustion () =
  (* Arm the budget poll itself: after a handful of liveness checks the
     budget is cancelled, as if the wall clock had expired mid-sweep. *)
  let trees = clustered 9 40 in
  let tau = 2 in
  let truth = Partsj.join ~domains:2 ~trees ~tau () in
  let budget = Budget.create ~time_budget_s:3600.0 () in
  let polls = Atomic.make 0 in
  Fault.arm_action "budget.live" (fun _ ->
      if Atomic.fetch_and_add polls 1 = 8 then Budget.cancel budget);
  let out =
    Fun.protect
      ~finally:(fun () -> Fault.disarm "budget.live")
      (fun () -> Partsj.join ~domains:2 ~budget ~trees ~tau ())
  in
  Alcotest.(check bool) "stopped before finishing" true
    (out.Types.quarantined <> []);
  check_sound ~name:"exhaustion" ~truth out;
  check_stage_partition ~name:"exhaustion" out;
  check_pool_healthy (Parallel.pool ~domains:2)

(* --- checkpoint/resume --- *)

let test_kill_and_resume () =
  let trees = clustered 13 40 in
  List.iter
    (fun domains ->
      let r = Faults.run_kill_and_resume ~domains ~kill_at_block:1 ~trees ~tau:2 () in
      Alcotest.(check bool) (Printf.sprintf "crash fired at %d domains" domains) true
        r.Faults.killed;
      Alcotest.(check bool)
        (Printf.sprintf "resumed output identical at %d domains" domains)
        true
        (Types.equal_deterministic r.Faults.uninterrupted r.Faults.resumed))
    [ 1; 4 ]

let test_resume_completed_journal () =
  let trees = clustered 17 10 in
  let path = Faults.fresh_journal () in
  let out1 = Partsj.join ~checkpoint:(Checkpoint.config path) ~trees ~tau:2 () in
  let out2 = Partsj.join ~checkpoint:(Checkpoint.config ~resume:true path) ~trees ~tau:2 () in
  Sys.remove path;
  Alcotest.(check bool) "resume of a finished journal replays the output" true
    (Types.equal_deterministic out1 out2)

let test_resume_missing_journal () =
  let trees = clustered 37 6 in
  let path = Faults.fresh_journal () in
  (* resume:true with no journal yet = fresh start, then journal exists *)
  let out = Partsj.join ~checkpoint:(Checkpoint.config ~resume:true path) ~trees ~tau:1 () in
  Alcotest.(check bool) "fresh start" true (List.length out.Types.pairs >= 0);
  Alcotest.(check bool) "journal written" true (Sys.file_exists path);
  Sys.remove path

let test_truncated_journal_refused () =
  let trees = clustered 19 40 in
  let path = Faults.fresh_journal () in
  ignore (Partsj.join ~checkpoint:(Checkpoint.config path) ~trees ~tau:2 ());
  Faults.truncate_file path ~keep_bytes:40;
  (match Checkpoint.load path with
  | Error msg ->
    Alcotest.(check bool) "error mentions corruption" true
      (contains msg "trunc" || contains msg "checksum" || contains msg "corrupt")
  | Ok _ -> Alcotest.fail "truncated journal loaded");
  (match Partsj.join ~checkpoint:(Checkpoint.config ~resume:true path) ~trees ~tau:2 () with
  | _ -> Alcotest.fail "resume from a truncated journal succeeded"
  | exception Invalid_argument _ -> ());
  Sys.remove path

let test_fingerprint_mismatch_refused () =
  let trees = clustered 23 10 in
  let path = Faults.fresh_journal () in
  ignore (Partsj.join ~checkpoint:(Checkpoint.config path) ~trees ~tau:2 ());
  (match Partsj.join ~checkpoint:(Checkpoint.config ~resume:true path) ~trees ~tau:3 () with
  | _ -> Alcotest.fail "resume with a mismatched fingerprint succeeded"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "error names the mismatch" true (contains msg "different"));
  Sys.remove path

(* A journal written before the index was keyed by twig and size band
   (fingerprint version v3), before its bands were 2τ + 1 sizes wide
   (v5), or before it keyed one start-relative coordinate by position
   bucket (v6), holds pairs in an older candidate order, and a v4 journal
   written with the cascade off holds the stage counters of the
   SED-prefiltered verifier that [cascade:false] no longer runs, so
   resuming any of them must be refused; the same state under the
   current fingerprint resumes. *)
let test_v3_journal_refused () =
  let trees = clustered 29 40 in
  let path = Faults.fresh_journal () in
  let out = Partsj.join ~checkpoint:(Checkpoint.config path) ~trees ~tau:2 () in
  let st =
    match Checkpoint.load path with
    | Ok (Some st) -> st
    | _ -> Alcotest.fail "journal not written"
  in
  List.iter
    (fun (params, cascade) ->
      let old = Checkpoint.fingerprint ~tau:2 trees ~params in
      Checkpoint.save ~path { st with Checkpoint.fingerprint = old };
      match
        Partsj.join ~cascade ~checkpoint:(Checkpoint.config ~resume:true path) ~trees
          ~tau:2 ()
      with
      | _ -> Alcotest.failf "resume of a journal stamped %s succeeded" params
      | exception Invalid_argument msg ->
        Alcotest.(check bool) "error names the mismatch" true (contains msg "different"))
    [
      ("v3|block=32|part=balanced|index=two-sided|metric=ted|bounded=true|cascade=true", true);
      ("v4|block=32|part=balanced|index=two-sided|metric=ted|bounded=true|cascade=false", false);
      ("v5|block=32|part=balanced|index=two-sided|metric=ted|cascade=true", true);
      ("v6|block=32|part=balanced|index=two-sided|metric=ted|cascade=true", true);
    ];
  Checkpoint.save ~path st;
  let resumed = Partsj.join ~checkpoint:(Checkpoint.config ~resume:true path) ~trees ~tau:2 () in
  Sys.remove path;
  Alcotest.(check bool) "the current fingerprint resumes" true
    (Types.equal_deterministic out resumed)

let test_checkpoint_state_roundtrip () =
  let st =
    {
      Checkpoint.fingerprint = "cafef00ddeadbeef";
      blocks_done = 3;
      pairs = [ { Types.i = 0; j = 1; distance = 2 }; { Types.i = 3; j = 9; distance = 0 } ];
      quarantined =
        [
          { Types.q_i = 1; q_j = Some 2; q_reason = Types.Pair_budget { lower = 3; upper = 9 } };
          {
            Types.q_i = 4;
            q_j = None;
            q_reason = Types.Preprocess_failed "bad \"tree\" with spaces\nand a newline";
          };
          { Types.q_i = 5; q_j = Some 6; q_reason = Types.Verify_failed "x y z" };
          { Types.q_i = 7; q_j = None; q_reason = Types.Deadline };
          { Types.q_i = 8; q_j = Some 9; q_reason = Types.Deadline };
          {
            Types.q_i = 2;
            q_j = None;
            q_reason = Types.Malformed { line = 3; col = 7; message = "oops here" };
          };
        ];
      n_candidates = 17;
      stage_counts = [| 1; 2; 3; 4; 5; 6; 7 |];
      n_probed = 10;
      n_matched = 5;
      n_small_hits = 2;
      n_indexed = 40;
    }
  in
  let path = Faults.fresh_journal () in
  Checkpoint.save ~path st;
  (match Checkpoint.load path with
  | Ok (Some st') -> Alcotest.(check bool) "roundtrip" true (st = st')
  | Ok None -> Alcotest.fail "journal vanished"
  | Error msg -> Alcotest.failf "roundtrip failed: %s" msg);
  Sys.remove path;
  Alcotest.(check bool) "missing file is a fresh start" true (Checkpoint.load path = Ok None)

(* --- parser resilience (line/column reporting + lenient loading) --- *)

let test_bracket_line_col () =
  (match Bracket.of_string "{a}\n{b}" with
  | Error msg -> Alcotest.(check bool) "line 2 reported" true (contains msg "line 2")
  | Ok _ -> Alcotest.fail "accepted two trees");
  match Bracket.of_string "{a}{b}" with
  | Error msg -> Alcotest.(check bool) "column reported" true (contains msg "column 4")
  | Ok _ -> Alcotest.fail "accepted trailing garbage"

let test_bracket_lenient () =
  let trees, errors = Bracket.forest_of_string_lenient "{a}\n}{x}\n{c}\n" in
  Alcotest.(check (list string)) "good records kept" [ "{a}"; "{c}" ]
    (List.map Bracket.to_string trees);
  (match errors with
  | [ (2, 1, _) ] -> ()
  | _ -> Alcotest.failf "expected one error at line 2, column 1 (got %d)" (List.length errors));
  let trees, errors = Bracket.forest_of_string_lenient "" in
  Alcotest.(check int) "empty input: no trees" 0 (List.length trees);
  Alcotest.(check int) "empty input: no errors" 0 (List.length errors)

let test_xml_line_col_and_lenient () =
  (match Tsj_xml.Xml_parser.parse "<a>\n<b>\n</a>" with
  | Error msg -> Alcotest.(check bool) "line 3 reported" true (contains msg "line 3")
  | Ok _ -> Alcotest.fail "accepted mismatched tags");
  let docs, errors = Tsj_xml.Xml_parser.parse_fragments_lenient "<a/><b><c></b><d/>" in
  Alcotest.(check int) "two good fragments" 2 (List.length docs);
  Alcotest.(check int) "one error" 1 (List.length errors)

let suite =
  [
    Alcotest.test_case "shared pool reusable after worker raise" `Quick
      test_shared_pool_reusable_after_raise;
    Alcotest.test_case "stop flag skips unclaimed tasks" `Quick
      test_stop_flag_skips_unclaimed;
    Alcotest.test_case "poisoned tree quarantined" `Quick test_poison_tree;
    Alcotest.test_case "all trees poisoned" `Quick test_all_trees_poisoned;
    Alcotest.test_case "verifier fault quarantines pairs" `Quick
      test_verify_fault_quarantines_pairs;
    Alcotest.test_case "per-pair budget soundness" `Quick test_pair_budget_soundness;
    Alcotest.test_case "budgeted join deterministic across domains" `Quick
      test_pair_budget_deterministic_across_domains;
    Gen.qtest ~count:30 "quarantine soundness under random budgets" arb_forest
      prop_budget_sound;
    Alcotest.test_case "zero time budget quarantines everything" `Quick
      test_zero_time_budget;
    Alcotest.test_case "simulated budget exhaustion mid-sweep" `Quick
      test_simulated_budget_exhaustion;
    Alcotest.test_case "kill and resume is bit-identical" `Quick test_kill_and_resume;
    Alcotest.test_case "resume of a finished journal" `Quick test_resume_completed_journal;
    Alcotest.test_case "resume with a missing journal" `Quick test_resume_missing_journal;
    Alcotest.test_case "truncated journal refused" `Quick test_truncated_journal_refused;
    Alcotest.test_case "fingerprint mismatch refused" `Quick
      test_fingerprint_mismatch_refused;
    Alcotest.test_case "checkpoint state roundtrip" `Quick test_checkpoint_state_roundtrip;
    Alcotest.test_case "bracket errors carry line/column" `Quick test_bracket_line_col;
    Alcotest.test_case "bracket lenient loading" `Quick test_bracket_lenient;
    Alcotest.test_case "xml line/column + lenient fragments" `Quick
      test_xml_line_col_and_lenient;
    Alcotest.test_case "pair budget sandwich holds the TED" `Quick
      test_pair_budget_sandwich_holds_ted;
    Alcotest.test_case "v3 checkpoint journal refused" `Quick test_v3_journal_refused;
  ]

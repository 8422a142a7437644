module Tree = Tsj_tree.Tree
module Ted = Tsj_ted.Ted
module Bounds = Tsj_ted.Bounds
module Timer = Tsj_util.Timer
module Fault = Tsj_util.Fault_inject
module Types = Tsj_join.Types
module Budget = Tsj_join.Budget
module Checkpoint = Tsj_join.Checkpoint

type partitioning = Balanced | Random of int

type probe_stats = {
  n_probed : int;
  n_matched : int;
  n_small_tree_hits : int;
  n_subgraphs_indexed : int;
}

type phase_times = {
  prep_wall_s : float;
  sweep_wall_s : float;
  total_wall_s : float;
  domains_used : int;
}

(* Trees per block, the unit of checkpointing and of pipelining (the
   sweep of block b overlaps the verification of block b - 1).  Fixed —
   independent of the domain count — so the verification batches and the
   checkpoint journal are the same whatever the parallelism. *)
let block_size = 32

let join_with_probe_stats ?(partitioning = Balanced)
    ?(index_mode = Two_layer_index.Two_sided) ?(domains = 1)
    ?(cascade = true) ?metric ?budget
    ?checkpoint ?on_phases ~trees ~tau () =
  if tau < 0 then invalid_arg "Partsj.join: negative threshold";
  if domains < 1 then invalid_arg "Partsj.join: domains must be >= 1";
  let n = Array.length trees in
  let total_t0 = Timer.now () in
  let cand_attr = ref 0.0 in
  let verify_attr = ref 0.0 in
  let partition =
    match partitioning with
    | Balanced -> Partition.partition
    | Random seed -> Partition.random_partition (Tsj_util.Prng.create seed)
  in
  let pool = if domains > 1 then Some (Tsj_join.Parallel.pool ~domains) else None in
  (* Cooperative budget plumbing: [stop_flag] is threaded into every pool
     job so expiry/cancellation drains all domains at the next chunk
     boundary; tasks additionally poll [budget_live] so the single-domain
     path stops just as promptly. *)
  let stop_flag = Option.map Budget.stop_flag budget in
  let budget_live () = match budget with None -> true | Some b -> Budget.live b in
  let budget_stopped () =
    match budget with None -> false | Some b -> Budget.stopped b
  in
  let run_tasks tasks =
    if Array.length tasks > 0 then
      match pool with
      | Some p -> Tsj_join.Pool.run_tasks p ?stop:stop_flag ~width:domains tasks
      | None -> Array.iter (fun f -> if not (budget_stopped ()) then f ()) tasks
  in
  (* Eager parallel preprocessing: every tree's forms, built in one walk
     ({!Tsj_tree.Form.of_tree}), once, up front, on all domains.  The
     verifier form (the TED preparation of both decompositions plus the
     label bag and degree histogram the filter cascade compares) goes to
     [forms]; the verify tasks only read that immutable array, which is
     what makes them safe to run beside the sweep (no lazy fill-on-demand
     cache, no label interning past this point).  The LC-RS form the
     index probes and partitions goes to [lcrs], which the sweep reads
     and releases tree by tree.  A tree whose compilation raises
     (adversarially shaped input, an injected fault) is quarantined — it
     takes a placeholder slot that no phase ever reads, and joins in no
     pair — instead of aborting the run. *)
  let prep_failures : string option array = Array.make (max n 1) None in
  let placeholder =
    (* Built on the caller BEFORE the fan-out: workers must not intern. *)
    let leaf = Tree.leaf (Tsj_tree.Label.intern "?") in
    let f = Tsj_tree.Form.of_tree leaf in
    (Bounds.of_form leaf f, f.lcrs)
  in
  let prepared, prep_wall =
    Timer.wall (fun () ->
        Tsj_join.Parallel.map ~domains
          (fun i ->
            match
              Fault.hit "partsj.prep" i;
              let f = Tsj_tree.Form.of_tree trees.(i) in
              (Bounds.of_form trees.(i) f, f.lcrs)
            with
            | form -> form
            | exception exn ->
              (* Per-index slot: each worker writes its own index once,
                 so the array needs no synchronization. *)
              prep_failures.(i) <- Some (Printexc.to_string exn);
              placeholder)
          (Array.init n Fun.id))
  in
  let forms = Array.map fst prepared and lcrs = Array.map snd prepared in
  let excluded i = prep_failures.(i) <> None in
  let quarantine_prep = ref [] in
  Array.iteri
    (fun i failure ->
      match failure with
      | Some msg when i < n ->
        quarantine_prep :=
          { Types.q_i = i; q_j = None; q_reason = Types.Preprocess_failed msg }
          :: !quarantine_prep
      | _ -> ())
    prep_failures;
  let sizes =
    Array.mapi
      (fun i f -> if excluded i then Tree.size trees.(i) else Ted.size (Bounds.prep f))
      forms
  in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b -> if sizes.(a) <> sizes.(b) then compare sizes.(a) sizes.(b) else compare a b)
    order;
  let bands = Size_bands.create ~mode:index_mode ~tau () in
  let n_probed = ref 0 in
  let n_matched = ref 0 in
  let n_small_hits = ref 0 in
  let n_indexed = ref 0 in
  let count_probe (p : Size_bands.probe) =
    n_probed := !n_probed + p.probed;
    n_matched := !n_matched + p.matched;
    n_small_hits := !n_small_hits + p.small_hits
  in
  (* The pair verifier ({!Bounds.verify}) inside the resilience wrapper.
     It writes pair [idx] of a batch into [verdicts] and [reasons]; a
     pair left [Unverified] carries its quarantine reason:
     - a pair whose kernel run the per-pair budget refuses is quarantined
       with its bound sandwich (still a pure function of the pair, so
       budgeted joins stay deterministic at every domain count);
     - a verifier exception quarantines the pair instead of killing the
       join. *)
  let admit =
    Option.map
      (fun b fi fj ->
        Budget.pair_within b
          ~cost:(Budget.pair_cost (Ted.size (Bounds.prep fi)) (Ted.size (Bounds.prep fj))))
      budget
  in
  let verify_pair verdicts reasons idx (i, j) =
    let fi = forms.(i) and fj = forms.(j) in
    reasons.(idx) <-
      (match
         Fault.hit "partsj.verify" i;
         Bounds.verify ?metric ?admit ~cascade ~tau fi fj
       with
      | Bounds.Unverified ->
        let lower, upper = Bounds.sandwich fi fj in
        Some (Types.Pair_budget { lower; upper })
      | v ->
        verdicts.(idx) <- v;
        None
      | exception exn -> Some (Types.Verify_failed (Printexc.to_string exn)))
  in
  (* Per-stage decision counters; pure sums of per-pair outcomes, so they
     are deterministic at every domain count. *)
  let stage_counts = Types.tally () in
  let results = ref [] in
  let quarantine_sweep = ref [] in
  let candidates = ref 0 in
  (* The candidate batch of the previous block, verified on the pool
     while the next block is swept (software pipelining: candidate
     generation of block b overlaps verification of block b - 1). *)
  let pending_batch = ref [||] in
  let flush_batch_tasks () =
    let batch = !pending_batch in
    let nb = Array.length batch in
    if nb = 0 then ([||], fun () -> ())
    else begin
      (* A task that never ran (the stop flag drained the pool before
         it was claimed) leaves its pair unprocessed work, not a
         non-result: [Unverified] with the [Deadline] reason. *)
      let verdicts = Array.make nb Bounds.Unverified in
      let reasons = Array.make nb (Some Types.Deadline) in
      let elapsed = Array.make nb 0.0 in
      let tasks =
        Array.init nb (fun idx ->
            fun () ->
              if budget_live () then
                elapsed.(idx) <-
                  snd (Timer.wall (fun () -> verify_pair verdicts reasons idx batch.(idx))))
      in
      let commit () =
        Array.iter (fun dt -> verify_attr := !verify_attr +. dt) elapsed;
        Array.iteri
          (fun idx (i, j) ->
            let a = min i j and b = max i j in
            Types.count stage_counts verdicts.(idx);
            match (reasons.(idx), verdicts.(idx)) with
            | Some reason, _ ->
              quarantine_sweep :=
                { Types.q_i = a; q_j = Some b; q_reason = reason } :: !quarantine_sweep
            | None, (Bounds.Accepted d | Bounds.Verified d) when d <= tau ->
              results := { Types.i = a; j = b; distance = d } :: !results
            | None, _ -> ())
          batch;
        pending_batch := [||]
      in
      (tasks, commit)
    end
  in
  let drain_pending () =
    let verify_tasks, commit = flush_batch_tasks () in
    run_tasks verify_tasks;
    commit ()
  in
  let n_blocks = (n + block_size - 1) / block_size in
  (* --- checkpoint/resume --- *)
  let fingerprint =
    match checkpoint with
    | None -> ""
    | Some _ ->
      let params =
        Printf.sprintf
          "v5|block=%d|part=%s|index=%s|metric=%s|cascade=%b"
          block_size
          (match partitioning with
          | Balanced -> "balanced"
          | Random seed -> "random:" ^ string_of_int seed)
          (match index_mode with
          | Two_layer_index.Two_sided -> "two-sided"
          | Two_layer_index.Paper_rank -> "paper-rank"
          | Two_layer_index.Label_only -> "label-only")
          (match metric with
          | None | Some Bounds.Ted -> "ted"
          | Some Bounds.Constrained -> "constrained")
          cascade
      in
      Checkpoint.fingerprint ~tau ~params trees
  in
  let resume_state =
    match checkpoint with
    | Some cfg when cfg.Checkpoint.resume -> (
      match Checkpoint.load cfg.Checkpoint.path with
      | Ok None -> None
      | Ok (Some st) ->
        if st.Checkpoint.fingerprint <> fingerprint then
          invalid_arg
            (Printf.sprintf
               "Partsj.join: checkpoint %s was written by a different dataset or \
                join configuration"
               cfg.Checkpoint.path)
        else if Array.length st.Checkpoint.stage_counts <> Array.length stage_counts then
          invalid_arg
            (Printf.sprintf "Partsj.join: checkpoint %s has an incompatible format"
               cfg.Checkpoint.path)
        else Some st
      | Error msg ->
        invalid_arg
          (Printf.sprintf "Partsj.join: cannot resume from checkpoint %s: %s"
             cfg.Checkpoint.path msg))
    | _ -> None
  in
  let start_block =
    match resume_state with
    | None -> 0
    | Some st ->
      results := List.rev st.Checkpoint.pairs;
      quarantine_sweep := List.rev st.Checkpoint.quarantined;
      candidates := st.Checkpoint.n_candidates;
      Array.blit st.Checkpoint.stage_counts 0 stage_counts 0 (Array.length stage_counts);
      n_probed := st.Checkpoint.n_probed;
      n_matched := st.Checkpoint.n_matched;
      n_small_hits := st.Checkpoint.n_small_hits;
      n_indexed := st.Checkpoint.n_indexed;
      min st.Checkpoint.blocks_done n_blocks
  in
  let save_checkpoint blocks_done =
    match checkpoint with
    | None -> ()
    | Some cfg ->
      Checkpoint.save ~path:cfg.Checkpoint.path
        {
          Checkpoint.fingerprint;
          blocks_done;
          pairs = List.rev !results;
          quarantined = List.rev !quarantine_sweep;
          n_candidates = !candidates;
          stage_counts = Array.copy stage_counts;
          n_probed = !n_probed;
          n_matched = !n_matched;
          n_small_hits = !n_small_hits;
          n_indexed = !n_indexed;
        }
  in
  let checkpoint_due blk =
    match checkpoint with
    | None -> false
    | Some cfg -> (blk + 1) mod cfg.Checkpoint.every = 0 || blk = n_blocks - 1
  in
  (* Deadline/cancellation abort: everything not yet processed — the
     current block (whose probe results may be partial) and all later
     blocks — is quarantined tree-by-tree in sweep order, so the
     account of skipped work is complete and deterministic given the
     point of interruption. *)
  let aborted = ref false in
  let abort_remaining from_block =
    for b = from_block * block_size to n - 1 do
      let ti = order.(b) in
      if not (excluded ti) then
        quarantine_sweep :=
          { Types.q_i = ti; q_j = None; q_reason = Types.Deadline }
          :: !quarantine_sweep
    done;
    aborted := true
  in
  (* The sweep takes each tree's LC-RS form once, releasing its slot. *)
  let take_lcrs ti =
    let b = lcrs.(ti) in
    lcrs.(ti) <- snd placeholder;
    b
  in
  (* Algorithm 1 over trees [b0, b1) of the size order: each tree's LC-RS
     form probes the bands for the trees before it — the sweep runs in
     ascending size, so the window is [size - τ, size] — and is then
     partitioned and inserted.  [probes.(w)] receives what tree [b0 + w]
     found.  This is the only code that touches [bands] and the
     partitioning RNG, and it runs as one sequential task, so the
     candidate stream is the same at every domain count.  It stops at the
     first tree that finds the budget spent; the caller then discards the
     block. *)
  let sweep_block b0 b1 probes indexed () =
    let b = ref b0 in
    while !b < b1 && budget_live () do
      let ti = order.(!b) in
      if not (excluded ti) then begin
        let btree = take_lcrs ti in
        probes.(!b - b0) <-
          Some (Size_bands.probe bands ~lo:(sizes.(ti) - tau) ~hi:sizes.(ti) btree);
        indexed := !indexed + Size_bands.insert ~partition bands ti btree
      end;
      incr b
    done
  in
  let sweep () =
    (* Resume fast-forward: re-index the completed blocks without
       probing, verifying or counting — the journal already holds their
       outputs.  The RNG (random partitioning) is consumed in exactly
       the original order, so the rebuilt index is bit-identical. *)
    for b = 0 to min n (start_block * block_size) - 1 do
      let ti = order.(b) in
      if not (excluded ti) then
        ignore (Size_bands.insert ~partition bands ti (take_lcrs ti))
    done;
    let blk = ref start_block in
    while !blk < n_blocks && not !aborted do
      (* Injectable kill point: a raise here simulates a crash between
         blocks; the last checkpoint then resumes the sweep exactly. *)
      Fault.hit "partsj.block" !blk;
      if not (budget_live ()) then begin
        drain_pending ();
        abort_remaining !blk
      end
      else begin
        let b0 = !blk * block_size in
        let b1 = min n (b0 + block_size) in
        (* The block's sweep runs as one task beside the previous block's
           verify tasks (software pipelining): verification only reads
           the immutable [forms], so the two never share mutable state. *)
        let probes = Array.make (b1 - b0) None in
        let indexed = ref 0 in
        let sweep_s = ref 0.0 in
        let sweep_task () =
          sweep_s := snd (Timer.wall (sweep_block b0 b1 probes indexed))
        in
        let verify_tasks, commit_batch = flush_batch_tasks () in
        run_tasks (Array.append [| sweep_task |] verify_tasks);
        commit_batch ();
        if budget_stopped () then
          (* Expired mid-block: the sweep above may have stopped part
             way, so the whole block is treated as unprocessed and none
             of its probes is counted. *)
          abort_remaining !blk
        else begin
          cand_attr := !cand_attr +. !sweep_s;
          n_indexed := !n_indexed + !indexed;
          let batch = ref [] in
          Array.iteri
            (fun w found ->
              Option.iter
                (fun (p : Size_bands.probe) ->
                  count_probe p;
                  let ti = order.(b0 + w) in
                  List.iter
                    (fun tj ->
                      incr candidates;
                      batch := (ti, tj) :: !batch)
                    p.candidates)
                found)
            probes;
          pending_batch := Array.of_list (List.rev !batch);
          if checkpoint_due !blk then begin
            (* Drain the pipelined batch so the journal never records a
               block whose candidates are still in flight, then publish.
               An expiry during the drain skips the save: journals only
               ever describe fully verified prefixes. *)
            drain_pending ();
            if not (budget_stopped ()) then save_checkpoint (!blk + 1)
          end
        end
      end;
      incr blk
    done;
    (* Drain the last block's candidates. *)
    if not !aborted then drain_pending ()
  in
  let (), sweep_wall = Timer.wall sweep in
  (* Window-pair count (the shared universe statistic): trees are sorted by
     size, so a sliding lower pointer suffices. *)
  let window_pairs = ref 0 in
  let lo = ref 0 in
  for b = 0 to n - 1 do
    while sizes.(order.(b)) - sizes.(order.(!lo)) > tau do
      incr lo
    done;
    window_pairs := !window_pairs + (b - !lo)
  done;
  let pairs = List.rev !results in
  let quarantined = List.rev !quarantine_prep @ List.rev !quarantine_sweep in
  (match on_phases with
  | None -> ()
  | Some f ->
    f
      {
        prep_wall_s = prep_wall;
        sweep_wall_s = sweep_wall;
        total_wall_s = Timer.now () -. total_t0;
        domains_used = domains;
      });
  ( {
      Types.pairs;
      quarantined;
      stats =
        {
          Types.n_trees = n;
          tau;
          n_window_pairs = !window_pairs;
          n_candidates = !candidates;
          n_results = List.length pairs;
          candidate_time_s = !cand_attr;
          verify_time_s = !verify_attr;
          cascade = Types.cascade_of_tally stage_counts;
        };
    },
    {
      n_probed = !n_probed;
      n_matched = !n_matched;
      n_small_tree_hits = !n_small_hits;
      n_subgraphs_indexed = !n_indexed;
    } )

let join ?partitioning ?index_mode ?domains ?cascade ?metric ?budget ?checkpoint
    ?on_phases ~trees ~tau () =
  fst
    (join_with_probe_stats ?partitioning ?index_mode ?domains ?cascade ?metric ?budget
       ?checkpoint ?on_phases ~trees ~tau ())

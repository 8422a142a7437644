type pair = { i : int; j : int; distance : int }

type quarantine_reason =
  | Malformed of { line : int; col : int; message : string }
  | Preprocess_failed of string
  | Pair_budget of { lower : int; upper : int }
  | Verify_failed of string
  | Deadline

type quarantined = { q_i : int; q_j : int option; q_reason : quarantine_reason }

let pp_quarantine_reason fmt = function
  | Malformed { line; col; message } ->
    Format.fprintf fmt "malformed (line %d, column %d: %s)" line col message
  | Preprocess_failed msg -> Format.fprintf fmt "preprocess-failed (%s)" msg
  | Pair_budget { lower; upper } ->
    Format.fprintf fmt "pair-budget (lower=%d upper=%d)" lower upper
  | Verify_failed msg -> Format.fprintf fmt "verify-failed (%s)" msg
  | Deadline -> Format.pp_print_string fmt "deadline"

let pp_quarantined fmt q =
  match q.q_j with
  | None -> Format.fprintf fmt "tree %d: %a" q.q_i pp_quarantine_reason q.q_reason
  | Some j ->
    Format.fprintf fmt "pair (%d, %d): %a" q.q_i j pp_quarantine_reason q.q_reason

type cascade = {
  pruned_size : int;
  pruned_labels : int;
  pruned_degrees : int;
  pruned_sed : int;
  early_accepted : int;
  kernel_verified : int;
  quarantined : int;
  memo_hits : int;
  memo_misses : int;
}

let tally () = Array.make 7 0

let count tally (v : Tsj_ted.Bounds.verdict) =
  let k =
    match v with
    | Pruned Size -> 0
    | Pruned Labels -> 1
    | Pruned Degrees -> 2
    | Pruned Sed -> 3
    | Accepted _ -> 4
    | Verified _ -> 5
    | Unverified -> 6
  in
  tally.(k) <- tally.(k) + 1

let cascade_of_tally c =
  {
    pruned_size = c.(0);
    pruned_labels = c.(1);
    pruned_degrees = c.(2);
    pruned_sed = c.(3);
    early_accepted = c.(4);
    kernel_verified = c.(5);
    quarantined = c.(6);
    memo_hits = 0;
    memo_misses = 0;
  }

let empty_cascade = cascade_of_tally (tally ())

let cascade_total c =
  c.pruned_size + c.pruned_labels + c.pruned_degrees + c.pruned_sed
  + c.early_accepted + c.kernel_verified + c.quarantined

type stats = {
  n_trees : int;
  tau : int;
  n_window_pairs : int;
  n_candidates : int;
  n_results : int;
  candidate_time_s : float;
  verify_time_s : float;
  cascade : cascade;
}

type output = { pairs : pair list; quarantined : quarantined list; stats : stats }

let total_time_s s = s.candidate_time_s +. s.verify_time_s

let pair_set output =
  output.pairs
  |> List.map (fun p -> (p.i, p.j))
  |> List.sort_uniq compare

let equal_results a b =
  let norm o = List.sort compare (List.map (fun p -> (p.i, p.j, p.distance)) o.pairs) in
  norm a = norm b

let norm_quarantine o = List.sort compare o.quarantined

let equal_deterministic a b =
  equal_results a b
  && norm_quarantine a = norm_quarantine b
  && a.stats.n_trees = b.stats.n_trees
  && a.stats.tau = b.stats.tau
  && a.stats.n_candidates = b.stats.n_candidates
  && a.stats.n_results = b.stats.n_results
  && a.stats.cascade = b.stats.cascade

let pp_stats fmt s =
  Format.fprintf fmt
    "trees=%d tau=%d window=%d candidates=%d results=%d cand_time=%.3fs verify_time=%.3fs"
    s.n_trees s.tau s.n_window_pairs s.n_candidates s.n_results s.candidate_time_s
    s.verify_time_s;
  let c = s.cascade in
  if cascade_total c > 0 then begin
    Format.fprintf fmt
      " cascade=[size:%d labels:%d degrees:%d sed:%d early:%d kernel:%d"
      c.pruned_size c.pruned_labels c.pruned_degrees c.pruned_sed c.early_accepted
      c.kernel_verified;
    if c.quarantined > 0 then Format.fprintf fmt " quarantined:%d" c.quarantined;
    Format.pp_print_string fmt "]"
  end

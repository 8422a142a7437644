module Tree = Tsj_tree.Tree
module Timer = Tsj_util.Timer

type metric = Ted | Constrained

let verify_distance ?(metric = Ted) p1 p2 =
  match metric with
  | Ted -> Tsj_ted.Ted.distance_prep p1 p2
  | Constrained ->
    Tsj_ted.Constrained.distance (Tsj_ted.Ted.tree p1) (Tsj_ted.Ted.tree p2)

(* The join verifier: only the threshold decision (and exact values up to
   the threshold) matter, so the TED metric runs the banded DP. *)
let verify_bounded ?(metric = Ted) ~tau p1 p2 =
  match metric with
  | Ted -> Tsj_ted.Ted.bounded_distance_prep p1 p2 tau
  | Constrained ->
    min
      (Tsj_ted.Constrained.distance (Tsj_ted.Ted.tree p1) (Tsj_ted.Ted.tree p2))
      (tau + 1)

let windowed_join ?(metric = Ted) ~trees ~tau ~setup ~filter () =
  if tau < 0 then invalid_arg "Sweep.windowed_join: negative threshold";
  let n = Array.length trees in
  let cand_timer = Timer.create () in
  let verify_timer = Timer.create () in
  let sizes = Array.map Tree.size trees in
  (* Ascending size order, ties by index for determinism. *)
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b -> if sizes.(a) <> sizes.(b) then compare sizes.(a) sizes.(b) else compare a b)
    order;
  let aux = Timer.time cand_timer (fun () -> setup trees) in
  (* TED preprocessing is charged to verification, lazily per tree. *)
  let preps : Tsj_ted.Ted.prep option array = Array.make n None in
  let prep i =
    match preps.(i) with
    | Some p -> p
    | None ->
      let p = Tsj_ted.Ted.preprocess trees.(i) in
      preps.(i) <- Some p;
      p
  in
  let window_pairs = ref 0 in
  let candidates = ref 0 in
  let results = ref [] in
  for b = 0 to n - 1 do
    let jb = order.(b) in
    let a = ref (b - 1) in
    let continue = ref true in
    while !a >= 0 && !continue do
      let ja = order.(!a) in
      if sizes.(jb) - sizes.(ja) > tau then continue := false
      else begin
        incr window_pairs;
        let pass = Timer.time cand_timer (fun () -> filter aux ja jb) in
        if pass then begin
          incr candidates;
          let d =
            Timer.time verify_timer (fun () ->
                verify_bounded ~metric ~tau (prep ja) (prep jb))
          in
          if d <= tau then begin
            let i = min ja jb and j = max ja jb in
            results := { Types.i; j; distance = d } :: !results
          end
        end;
        decr a
      end
    done
  done;
  let pairs = List.rev !results in
  {
    Types.pairs;
    quarantined = [];
    stats =
      {
        Types.n_trees = n;
        tau;
        n_window_pairs = !window_pairs;
        n_candidates = !candidates;
        n_results = List.length pairs;
        candidate_time_s = Timer.elapsed_s cand_timer;
        verify_time_s = Timer.elapsed_s verify_timer;
        (* No staged cascade here: every candidate goes straight to the
           banded kernel, which keeps the counter partition exact. *)
        cascade = { Types.empty_cascade with Types.kernel_verified = !candidates };
      };
  }

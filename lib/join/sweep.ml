module Tree = Tsj_tree.Tree
module Timer = Tsj_util.Timer
module Bounds = Tsj_ted.Bounds

let windowed_join ?metric ~cascade ~trees ~tau ~setup ~filter () =
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
  (* The verifier form is charged to verification, lazily per tree. *)
  let forms : Bounds.t option array = Array.make n None in
  let form i =
    match forms.(i) with
    | Some f -> f
    | None ->
      let f = Bounds.of_tree trees.(i) in
      forms.(i) <- Some f;
      f
  in
  let window_pairs = ref 0 in
  let candidates = ref 0 in
  let tally = Types.tally () in
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
          let v =
            Timer.time verify_timer (fun () ->
                Bounds.verify ?metric ~cascade ~tau (form ja) (form jb))
          in
          Types.count tally v;
          match v with
          | (Bounds.Accepted d | Bounds.Verified d) when d <= tau ->
            let i = min ja jb and j = max ja jb in
            results := { Types.i; j; distance = d } :: !results
          | _ -> ()
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
        cascade = Types.cascade_of_tally tally;
      };
  }

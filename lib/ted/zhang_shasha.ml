module Postorder = Tsj_tree.Postorder
module Vec_int = Tsj_util.Vec_int

(* DP scratch.

   The two tables of the Zhang–Shasha DP — treedist (n1 × n2) and the
   forest-distance table fd ((n1+1) × (n2+1)) — used to be allocated per
   call.  For join-sized trees that is ~100 KB of major-heap allocation
   and an O(n1·n2) initialization per verified pair, which dominates the
   τ-banded verifier whose actual DP work is only O(rows · (2τ+1)) cells
   per keyroot pair.  Instead both kernels draw on the per-domain
   {!Arena} (pool workers are domains, and systhreads sharing a domain
   claim it per call, so concurrent verification is safe) and the
   tables are reused without clearing:

   - [fd] needs no initialization at all: every cell the DP reads is
     either written earlier in the same keyroot-pair computation or
     rejected by the band check (bounded variant) / the first-row and
     first-column writes (unbounded variant).
   - [td] (treedist) in the unbounded variant is only read for subtree
     pairs computed earlier in the same call (the keyroot-order
     invariant), so stale values are never observed.  The bounded variant
     must distinguish "computed this call" from "out of band" (which
     defaults to the clamp value), so each cell carries a stamp: the
     serial number of the call that wrote it.  Stale stamps read as the
     clamp, exactly like the former fresh-[inf] matrix. *)

(* Both DP kernels below use [Array.unsafe_get]/[unsafe_set] on the
   scratch tables and the postorder arrays.  Safety: [Arena.reserve_matrices]
   guarantees [rows > n1] and [cols > n2]; every flat offset is [x * stride + y] or
   [a * stride + b] with [x, a <= n1 - 1 < rows] and [y, b <= n2 - 1 <
   cols], hence [< rows * cols]; and [a] ranges over [l1 .. k1] within
   [0 .. n1), [b] over [l2 .. k2] within [0 .. n2), the index ranges of
   the lld / label arrays.  The join verifier spends nearly all its time
   in these loops, and the bounds checks were a measurable fraction of
   the per-cell cost. *)

(* Are both postorders DAG-annotated (built by [Postorder.of_dag])?
   Only then do the equal-subtree fast path and the memo cache apply:
   Dag ids are globally unique, so equal ids mean equal subtrees even
   across collections. *)
let consed (p1 : Postorder.t) (p2 : Postorder.t) =
  Array.length p1.dag = p1.size && Array.length p2.dag = p2.size

let distance_postorder (p1 : Postorder.t) (p2 : Postorder.t) =
  let n1 = p1.size and n2 = p2.size in
  if n1 = 0 || n2 = 0 then max n1 n2
  else if consed p1 p2 && p1.dag.(n1 - 1) = p2.dag.(n2 - 1) then
    (* Identical interned trees: distance 0 without any DP. *)
    0
  else
    Arena.use (fun s ->
    Arena.reserve_matrices s n1 n2;
    let stride = s.Arena.cols in
    let lld1 = p1.lld and lld2 = p2.lld in
    let lab1 = p1.labels and lab2 = p2.labels in
    (* td.(i*stride + j): TED between the subtrees rooted at postorder
       nodes i and j; filled in increasing keyroot order, so the forest DP
       only ever reads entries written earlier in this call. *)
    let td = s.Arena.td and fd = s.Arena.fd in
    let compute k1 k2 =
      let l1 = lld1.(k1) and l2 = lld2.(k2) in
      let m = k1 - l1 + 1 and n = k2 - l2 + 1 in
      if m = 1 && n = 1 then
        (* Leaf keyroot pair: the single DP cell reduces to
           min (2, label cost) = label cost. *)
        Array.unsafe_set td ((k1 * stride) + k2)
          (if Array.unsafe_get lab1 k1 = Array.unsafe_get lab2 k2 then 0 else 1)
      else begin
      fd.(0) <- 0;
      for x = 1 to m do
        Array.unsafe_set fd (x * stride) x
      done;
      for y = 1 to n do
        Array.unsafe_set fd y y
      done;
      for x = 1 to m do
        let a = l1 + x - 1 in
        let la = Array.unsafe_get lld1 a in
        let on_path1 = la = l1 in
        let lab_a = Array.unsafe_get lab1 a in
        let row = x * stride and prev = (x - 1) * stride in
        for y = 1 to n do
          let b = l2 + y - 1 in
          let lb = Array.unsafe_get lld2 b in
          let up = Array.unsafe_get fd (prev + y) in
          let left = Array.unsafe_get fd (row + y - 1) in
          if on_path1 && lb = l2 then begin
            let cost = if lab_a = Array.unsafe_get lab2 b then 0 else 1 in
            let v =
              min (min (up + 1) (left + 1)) (Array.unsafe_get fd (prev + y - 1) + cost)
            in
            Array.unsafe_set fd (row + y) v;
            Array.unsafe_set td ((a * stride) + b) v
          end
          else begin
            let x' = la - l1 and y' = lb - l2 in
            Array.unsafe_set fd (row + y)
              (min
                 (min (up + 1) (left + 1))
                 (Array.unsafe_get fd ((x' * stride) + y')
                 + Array.unsafe_get td ((a * stride) + b)))
          end
        done
      done
      end
    in
    Array.iter
      (fun k1 -> Array.iter (fun k2 -> compute k1 k2) p2.keyroots)
      p1.keyroots;
    td.(((n1 - 1) * stride) + (n2 - 1)))

(* Threshold-banded variant.  Every forest-DP cell (x, y) measures the
   distance between prefix forests of sizes x and y, which is at least
   |x - y|; a cell outside the |x - y| <= k band therefore cannot lie on a
   path of total cost <= k.  The DP is a monotone min-plus recurrence, so
   clamping every value at k + 1 preserves all values <= k exactly while
   capping the rest — the result is [min (distance, k + 1)] at a cost of
   O(rows * (2k + 1)) cells per keyroot pair instead of O(rows * cols). *)
(* Largest memoizable write-set, in stored ints (3 per write).  Bounds
   both the recording overhead and the size of one cache entry; the
   bound on writes of one keyroot pair is
   [min m (n + k) * min n (2k + 1)] (row loop bound × in-band left-path
   cells per row). *)
let max_entry_words = 3 * 8192

(* Smallest banded-DP cell count worth memoizing.  Below this the
   constant costs of a memo dispatch (key hashing, write-set recording
   on a miss, entry allocation and clock eviction) exceed the DP work a
   hit saves, so tiny keyroot pairs run unrecorded.  Tuned on the
   [redundant] bench profile (tau = 3). *)
let min_entry_cells = 96

let bounded_distance_postorder (p1 : Postorder.t) (p2 : Postorder.t) k =
  if k < 0 then invalid_arg "Zhang_shasha.bounded_distance_postorder: negative threshold";
  let n1 = p1.size and n2 = p2.size in
  if abs (n1 - n2) > k then k + 1
  else if n1 = 0 || n2 = 0 then min (max n1 n2) (k + 1)
  else if consed p1 p2 && p1.dag.(n1 - 1) = p2.dag.(n2 - 1) then
    (* Identical interned trees: distance 0 without any DP. *)
    0
  else
    Arena.use (fun s ->
    (* The domain's memo cache goes with the domain's arena: a thread
       handed a private arena runs without it (same result, no reuse). *)
    let memo = if consed p1 p2 && Arena.shared s then Some (Memo.get ()) else None in
    let dp () =
    Arena.reserve_matrices s n1 n2;
    let id = Arena.next_serial s in
    let stride = s.Arena.cols in
    let inf = k + 1 in
    let dag1 = p1.dag and dag2 = p2.dag in
    let buf = if memo <> None then Some (Vec_int.create ()) else None in
    let lld1 = p1.lld and lld2 = p2.lld in
    let lab1 = p1.labels and lab2 = p2.labels in
    let td = s.Arena.td and td_stamp = s.Arena.td_stamp and fd = s.Arena.fd in
    (* td entries not written during this call correspond to out-of-band
       subtree pairs, whose distance exceeds k: read as the clamp value. *)
    let td_get a b =
      let off = (a * stride) + b in
      if Array.unsafe_get td_stamp off = id then Array.unsafe_get td off else inf
    in
    (* In-band read; out-of-band cells are >= |x - y| > k by the size
       argument, so they act as the clamp value.  In-band cells are
       always written before they are read within this keyroot pair, so
       the uncleared scratch is never observed.  Defined once per call:
       a definition inside [compute] would allocate a closure per
       keyroot pair, and most passes are only a handful of cells. *)
    let get x y = if abs (x - y) > k then inf else Array.unsafe_get fd ((x * stride) + y) in
    (* The DP body of one keyroot pair.  With [record] set, every td
       write is additionally logged into [buf] as an (x_off, y_off,
       value) triple relative to (l1, l2) — the memo entry replayed by
       later kernel calls on the same (subtree, subtree, clamp). *)
    let compute k1 k2 record =
      let l1 = lld1.(k1) and l2 = lld2.(k2) in
      let m = k1 - l1 + 1 and n = k2 - l2 + 1 in
      if m = 1 && n = 1 then begin
        (* Leaf keyroot pair: the single DP cell reduces to
           min (2, label cost) = label cost. *)
        let off = (k1 * stride) + k2 in
        let v = if Array.unsafe_get lab1 k1 = Array.unsafe_get lab2 k2 then 0 else 1 in
        Array.unsafe_set td off v;
        Array.unsafe_set td_stamp off id;
        if record then begin
          let b = Option.get buf in
          Vec_int.push b 0;
          Vec_int.push b 0;
          Vec_int.push b v
        end
      end
      else begin
      fd.(0) <- 0;
      for y = 1 to min n k do
        Array.unsafe_set fd y y
      done;
      (* Rows beyond [n + k] contain no in-band cell, and the treedist
         entries they would write pair subtrees whose sizes differ by more
         than [k] — out of band for every later read, i.e. the clamp
         value.  Skip them. *)
      for x = 1 to min m (n + k) do
        let a = l1 + x - 1 in
        let la = Array.unsafe_get lld1 a in
        let on_path1 = la = l1 in
        let lab_a = Array.unsafe_get lab1 a in
        let ylo = max 1 (x - k) and yhi = min n (x + k) in
        if x <= k then Array.unsafe_set fd (x * stride) x;
        let row = x * stride and prev = (x - 1) * stride in
        (* Within [ylo .. yhi], the up neighbour (x-1, y) leaves the band
           only at [y = x + k], the left neighbour (x, y-1) only at
           [y = x - k], and the diagonal (x-1, y-1) never does — so the
           three reads need one equality test each instead of a full
           band check. *)
        let y_up_out = x + k and y_left_out = x - k in
        for y = ylo to yhi do
          let b = l2 + y - 1 in
          let lb = Array.unsafe_get lld2 b in
          let up = if y = y_up_out then inf else Array.unsafe_get fd (prev + y) in
          let left = if y = y_left_out then inf else Array.unsafe_get fd (row + y - 1) in
          let v =
            if on_path1 && lb = l2 then begin
              let cost = if lab_a = Array.unsafe_get lab2 b then 0 else 1 in
              let diag = Array.unsafe_get fd (prev + y - 1) in
              let v = min (min (up + 1) (left + 1)) (diag + cost) in
              let v = if v > inf then inf else v in
              let off = (a * stride) + b in
              Array.unsafe_set td off v;
              Array.unsafe_set td_stamp off id;
              if record then begin
                let rb = Option.get buf in
                Vec_int.push rb (a - l1);
                Vec_int.push rb (b - l2);
                Vec_int.push rb v
              end;
              v
            end
            else begin
              let x' = la - l1 and y' = lb - l2 in
              let off = (a * stride) + b in
              let tdv =
                if Array.unsafe_get td_stamp off = id then Array.unsafe_get td off else inf
              in
              min (min (up + 1) (left + 1)) (get x' y' + tdv)
            end
          in
          Array.unsafe_set fd (row + y) (if v > inf then inf else v)
        done
      done
      end
    in
    (* Memo dispatch per keyroot pair.  A hit replays the recorded
       write-set — values and stamps land exactly where the DP would
       have put them, so later keyroot pairs (which read these td
       cells) observe a bit-identical table.  A miss runs the DP with
       recording and stores the result.  Tiny pairs and pairs whose
       write-set bound exceeds the entry cap run unrecorded. *)
    let run k1 k2 =
      match memo with
      | None -> compute k1 k2 false
      | Some memo ->
        let l1 = lld1.(k1) and l2 = lld2.(k2) in
        let m = k1 - l1 + 1 and n = k2 - l2 + 1 in
        (* [writes] bounds the recorded entry (and the replay cost of a
           hit); [cells] is the banded DP work a hit saves.  Small pairs
           cost more to hash, record and evict than their DP is worth —
           only pairs clearing [min_entry_cells] enter the memo. *)
        let writes = min m (n + k) * min n ((2 * k) + 1) in
        let cells = min m (n + k) * ((2 * k) + 1) in
        if cells < min_entry_cells || 3 * writes > max_entry_words
        then compute k1 k2 false
        else begin
          let id1 = dag1.(k1) and id2 = dag2.(k2) in
          match Memo.find memo ~id1 ~id2 ~k with
          | Some writes ->
            let nw = Array.length writes in
            let w = ref 0 in
            while !w < nw do
              let x = Array.unsafe_get writes !w in
              let y = Array.unsafe_get writes (!w + 1) in
              let v = Array.unsafe_get writes (!w + 2) in
              let off = ((l1 + x) * stride) + (l2 + y) in
              Array.unsafe_set td off v;
              Array.unsafe_set td_stamp off id;
              w := !w + 3
            done
          | None ->
            let b = Option.get buf in
            Vec_int.clear b;
            compute k1 k2 true;
            Memo.add memo ~id1 ~id2 ~k (Vec_int.to_array b)
        end
    in
    Array.iter
      (fun k1 -> Array.iter (fun k2 -> run k1 k2) p2.keyroots)
      p1.keyroots;
    min (td_get (n1 - 1) (n2 - 1)) inf
    in
    (* Whole-pair shortcut: the clamped result is a pure function of
       (tree, tree, clamp), so on consed inputs duplicate candidate
       pairs — ubiquitous when the collection repeats trees — reuse the
       final value and skip the DP entirely. *)
    match memo with
    | None -> dp ()
    | Some memo -> (
      let id1 = p1.dag.(n1 - 1) and id2 = p2.dag.(n2 - 1) in
      match Memo.find_result memo ~id1 ~id2 ~k with
      | Some v -> v
      | None ->
        let v = dp () in
        Memo.add_result memo ~id1 ~id2 ~k v;
        v))

let distance t1 t2 =
  distance_postorder (Postorder.of_tree t1) (Postorder.of_tree t2)

let bounded_distance t1 t2 k =
  bounded_distance_postorder (Postorder.of_tree t1) (Postorder.of_tree t2) k

let relevant_subproblems p1 p2 =
  Postorder.keyroot_cost p1 * Postorder.keyroot_cost p2

let distance a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    (* Keep the shorter sequence as the row dimension. *)
    let a, b, la, lb = if la <= lb then (a, b, la, lb) else (b, a, lb, la) in
    let prev = Array.init (la + 1) (fun i -> i) in
    let cur = Array.make (la + 1) 0 in
    for j = 1 to lb do
      cur.(0) <- j;
      let bj = b.(j - 1) in
      for i = 1 to la do
        let cost = if a.(i - 1) = bj then 0 else 1 in
        cur.(i) <- Int.min (Int.min (cur.(i - 1) + 1) (prev.(i) + 1)) (prev.(i - 1) + cost)
      done;
      Array.blit cur 0 prev 0 (la + 1)
    done;
    prev.(la)
  end

(* Banded DP (Ukkonen): a cell (i, j) with |i - j| > k cannot lie on a path
   of cost <= k, so only the (2k+1)-wide diagonal band is filled; cells
   outside the band act as infinity.  Row [i] ranges over prefixes of [a];
   slot [j - i + k] of the row array holds D(i, j).

   The two rolling rows come from the per-domain {!Arena}: this runs once
   or twice per candidate pair in the join's filter cascade, and the
   per-call allocation of the rows used to be most of its cost.  Every
   slot of both rows is (re)initialized below, so stale arena contents
   are never observed.  [Int.min], not the polymorphic [min], which
   costs a C comparison call per cell without flambda. *)
let bounded_distance a b k =
  if k < 0 then invalid_arg "String_edit.bounded_distance: negative threshold";
  let la = Array.length a and lb = Array.length b in
  if abs (la - lb) > k then k + 1
  else
    Arena.use (fun arena ->
    let inf = k + 1 in
    let width = (2 * k) + 1 in
    Arena.reserve_bands arena width;
    let prev = arena.Arena.band_prev and cur = arena.Arena.band_cur in
    Array.fill prev 0 width inf;
    (* Row 0: D(0, j) = j for 0 <= j <= k; slot = j + k... slots j - 0 + k. *)
    for j = 0 to Int.min k lb do
      prev.(j + k) <- j
    done;
    for i = 1 to la do
      Array.fill cur 0 width inf;
      let jlo = Int.max 0 (i - k) and jhi = Int.min lb (i + k) in
      let ai = a.(i - 1) in
      for j = jlo to jhi do
        let s = j - i + k in
        let best = ref inf in
        (* delete a.(i-1): D(i-1, j) + 1, prev slot s + 1 *)
        if s + 1 < width then best := Int.min !best (prev.(s + 1) + 1);
        (* insert b.(j-1): D(i, j-1) + 1, cur slot s - 1 *)
        if j >= 1 && s - 1 >= 0 then best := Int.min !best (cur.(s - 1) + 1);
        (* substitute / match: D(i-1, j-1) + cost, prev slot s *)
        if j >= 1 then begin
          let cost = if ai = b.(j - 1) then 0 else 1 in
          best := Int.min !best (prev.(s) + cost)
        end;
        if j = 0 then best := Int.min !best i;
        cur.(s) <- Int.min !best inf
      done;
      Array.blit cur 0 prev 0 width
    done;
    let final = lb - la + k in
    Int.min prev.(final) inf)

let within a b k = if k < 0 then false else bounded_distance a b k <= k

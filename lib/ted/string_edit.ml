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

(* Diagonal transition (Ukkonen 1985; Landau–Vishkin 1989).  Cell
   (i, j) of the DP matrix lies on diagonal [d = j - i]; along a
   diagonal D never decreases, and neighbouring cells differ by at most
   one.  So the DP is summed up by L(e, d), the furthest row on
   diagonal d whose cell holds at most e:

     L(e, d) = slide (min (max (L(e-1, d) + 1)      substitute a.(i)
                               (L(e-1, d+1) + 1)    delete a.(i)
                               (L(e-1, d-1)))       insert b.(j)
                          (min |a| (|b| - d)))

   where [slide i] follows matching symbols a.(i) = b.(i + d) down the
   diagonal, and L(0, 0) = slide 0.  D(|a|, |b|) is the first e at
   which diagonal |b| - |a| reaches row |a|.  A cell of cost e lies on
   a diagonal with |d| <= e, so round e touches the 2e + 1 diagonals
   [-e, e] clamped to [-|a|, |b|], and a diagonal that round e - 1 did
   not reach reads as minus infinity.

   Each diagonal's row only grows with e and each slide step advances
   it, so the cost is O(k² + total slide) <= O(k · min(|a|, |b|)); a
   near pair of long strings costs about O(k²) plus its matched runs.

   The two rolling rounds come from the per-domain {!Arena}'s band rows:
   round e lives at slots [d + k + 1] of one row and reads round e - 1
   from the other, 2k + 3 slots each so that the neighbours of the
   outermost diagonals are sentinels.  Both rows are filled with the
   sentinel once per call; round e then overwrites the array that held
   round e - 2 on a superset of that round's diagonals, so every slot a
   round reads was either written in the previous round or still holds
   the sentinel. *)
let bounded_distance a b k =
  if k < 0 then invalid_arg "String_edit.bounded_distance: negative threshold";
  let la = Array.length a and lb = Array.length b in
  let target = lb - la in
  if abs target > k then k + 1
  else
    Arena.use (fun arena ->
        let width = (2 * k) + 3 and off = k + 1 in
        Arena.reserve_bands arena width;
        let prev = ref arena.Arena.band_prev and cur = ref arena.Arena.band_cur in
        Array.fill !prev 0 width min_int;
        Array.fill !cur 0 width min_int;
        let slide i d =
          let i = ref i in
          while !i < la && !i + d < lb && a.(!i) = b.(!i + d) do
            incr i
          done;
          !i
        in
        (!cur).(off) <- slide 0 0;
        let e = ref 0 in
        while !e < k && (!cur).(target + off) < la do
          incr e;
          let p = !cur and c = !prev in
          prev := p;
          cur := c;
          for d = Int.max (- !e) (-la) to Int.min !e lb do
            let s = d + off in
            let i = Int.max (p.(s) + 1) (Int.max (p.(s + 1) + 1) p.(s - 1)) in
            c.(s) <- slide (Int.min i (Int.min la (lb - d))) d
          done
        done;
        if (!cur).(target + off) >= la then !e else k + 1)

let within a b k = if k < 0 then false else bounded_distance a b k <= k

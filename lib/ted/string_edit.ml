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

   Every round is kept in the per-domain {!Arena}'s [rounds] table, so
   that {!alignment} can trace one back: round e lives at slots
   [e * (2k + 3) + d + k + 1], 2k + 3 a round so that the neighbours
   of the outermost diagonals are sentinels.  Each round's slots are
   filled with the sentinel before the round writes its diagonals, so
   every slot a round reads was either written in the previous round
   or holds the sentinel. *)
let rec slide (a : int array) b la lb i d =
  if i < la && i + d < lb && a.(i) = b.(i + d) then slide a b la lb (i + 1) d else i

let rounds arena a b k =
  if k < 0 then invalid_arg "String_edit.bounded_distance: negative threshold";
  let la = Array.length a and lb = Array.length b in
  let target = lb - la in
  if abs target > k then k + 1
  else begin
    let width = (2 * k) + 3 and off = k + 1 in
    Arena.reserve_rounds arena ((k + 1) * width);
    let r = arena.Arena.rounds in
    Array.fill r 0 width min_int;
    r.(off) <- slide a b la lb 0 0;
    let e = ref 0 in
    while !e < k && r.((!e * width) + target + off) < la do
      incr e;
      let c = (!e * width) + off in
      let p = c - width in
      Array.fill r (c - off) width min_int;
      for d = Int.max (- !e) (-la) to Int.min !e lb do
        let i = Int.max (r.(p + d) + 1) (Int.max (r.(p + d + 1) + 1) r.(p + d - 1)) in
        r.(c + d) <- slide a b la lb (Int.min i (Int.min la (lb - d))) d
      done
    done;
    if r.((!e * width) + target + off) >= la then !e else k + 1
  end

(* The trace back walks from cell (|a|, |b|) to (0, 0) holding the
   invariant D(x, y) <= e, with y = x + d: x <= L(e, d).  At each cell
   it steps to a neighbour before it that keeps the invariant, in this
   order: to (x - 1, y), deleting a.(x - 1), or to (x, y - 1), inserting
   b.(y - 1), when round e - 1 reaches that neighbour on its diagonal;
   else to (x - 1, y - 1), aligning a.(x - 1) with b.(y - 1): free when
   they match (D never decreases along a diagonal), an edit when round
   e - 1 reaches it.  One step always exists: by the DP recurrence a
   cell of cost at most e whose symbols differ has a neighbour before
   it of cost at most e - 1.  At most e edit steps are taken, so the
   alignment is optimal.  Taking the gaps before the matches
   puts each gap as late in the strings as an optimal alignment
   allows; on near copies of trees that gives a valid tree mapping
   more often than matching first. *)
let alignment arena (a : int array) b k e =
  let la = Array.length a and lb = Array.length b in
  let width = (2 * k) + 3 and off = k + 1 in
  let r = arena.Arena.rounds and mate = arena.Arena.mate in
  Array.fill mate 0 la (-1);
  let e = ref e and d = ref (lb - la) and x = ref la and ok = ref true in
  while !ok && (!x > 0 || !d > 0) do
    let x0 = !x and y0 = !x + !d in
    (* Round e - 1's slot of diagonal d; unread when e = 0. *)
    let p = ((!e - 1) * width) + off + !d in
    if !e > 0 && x0 > 0 && r.(p + 1) >= x0 - 1 then begin
      x := x0 - 1;
      incr d;
      decr e
    end
    else if !e > 0 && y0 > 0 && r.(p - 1) >= x0 then begin
      decr d;
      decr e
    end
    else if x0 > 0 && y0 > 0 && a.(x0 - 1) = b.(y0 - 1) then begin
      mate.(x0 - 1) <- y0 - 1;
      x := x0 - 1
    end
    else if !e > 0 && x0 > 0 && y0 > 0 && r.(p) >= x0 - 1 then begin
      mate.(x0 - 1) <- y0 - 1;
      x := x0 - 1;
      decr e
    end
    else ok := false
  done;
  !ok

let bounded_distance a b k = Arena.use (fun arena -> rounds arena a b k)

let within a b k = if k < 0 then false else bounded_distance a b k <= k

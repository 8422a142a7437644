type t = int array

(* One LSD radix pass: [src] sorted stably into [dst] by the 8-bit
   digit of [x - lo] at [shift]. *)
let radix_pass counts lo shift (src : int array) (dst : int array) =
  Array.fill counts 0 (Array.length counts) 0;
  for i = 0 to Array.length src - 1 do
    let d = ((src.(i) - lo) lsr shift) land 255 in
    counts.(d) <- counts.(d) + 1
  done;
  let sum = ref 0 in
  for d = 0 to Array.length counts - 1 do
    let c = counts.(d) in
    counts.(d) <- !sum;
    sum := !sum + c
  done;
  for i = 0 to Array.length src - 1 do
    let x = src.(i) in
    let d = ((x - lo) lsr shift) land 255 in
    dst.(counts.(d)) <- x;
    counts.(d) <- counts.(d) + 1
  done

(* An LSD radix sort of the offsets [x - lo], one pass per 8-bit digit
   of the span [hi - lo].  Label ids are handed out first-seen, so the
   label bag of a dataset with at most 256 labels takes one pass over
   [span + 1] counters; each further 8 bits of span add a pass.
   Offsets are read as unsigned 63-bit numbers, which holds every span,
   even one past [max_int]. *)
let of_unsorted a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let lo = ref a.(0) and hi = ref a.(0) in
    for i = 1 to n - 1 do
      let x = a.(i) in
      if x < !lo then lo := x else if x > !hi then hi := x
    done;
    let lo = !lo and span = !hi - !lo in
    let counts = Array.make (if span >= 0 && span < 256 then span + 1 else 256) 0 in
    let src = ref (Array.make n 0) in
    radix_pass counts lo 0 a !src;
    let dst = ref (if span lsr 8 = 0 then [||] else Array.make n 0) and shift = ref 8 in
    while !shift < Sys.int_size && span lsr !shift <> 0 do
      radix_pass counts lo !shift !src !dst;
      let s = !src in
      src := !dst;
      dst := s;
      shift := !shift + 8
    done;
    !src
  end

let of_sorted a =
  for i = 1 to Array.length a - 1 do
    if a.(i - 1) > a.(i) then invalid_arg "Multiset.of_sorted: not sorted"
  done;
  a

let size = Array.length

let inter_size a b =
  let na = Array.length a and nb = Array.length b in
  let rec go i j acc =
    if i >= na || j >= nb then acc
    else if a.(i) < b.(j) then go (i + 1) j acc
    else if a.(i) > b.(j) then go i (j + 1) acc
    else go (i + 1) (j + 1) (acc + 1)
  in
  go 0 0 0

let union_size a b = Array.length a + Array.length b - inter_size a b

(* The merge walk counting unmatched elements, stopped at [cap]. *)
(* A loop rather than a local recursive function, which would allocate
   its closure on every call: the filter cascade runs this per pair. *)
let symmetric_difference_at_most (a : t) (b : t) cap =
  let na = Array.length a and nb = Array.length b in
  let i = ref 0 and j = ref 0 and d = ref 0 in
  while !d < cap && !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then begin
      incr i;
      incr d
    end
    else if x > y then begin
      incr j;
      incr d
    end
    else begin
      incr i;
      incr j
    end
  done;
  Int.min cap (!d + (na - !i) + (nb - !j))

let symmetric_difference_size a b = symmetric_difference_at_most a b max_int

(* Standard binary search for the leftmost occurrence. *)
let lower_bound a x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

let mem a x =
  let i = lower_bound a x in
  i < Array.length a && a.(i) = x

let count a x =
  let i = ref (lower_bound a x) in
  let c = ref 0 in
  while !i < Array.length a && a.(!i) = x do
    incr c;
    incr i
  done;
  !c

let to_array a = Array.copy a

type t = int array

(* A monomorphic bottom-up merge sort.  [Array.sort compare] calls the
   polymorphic comparison (a C call per comparison without flambda) and
   its heap sort raises an allocated exception per sift; here every
   comparison is an inline integer test.  Runs of [run] elements are
   insertion-sorted in the copy, then merged pairwise, doubling the
   width, back and forth between the copy and one scratch array; the
   array the last pass wrote is the bag. *)
let run = 8

let insertion_sort (b : int array) lo hi =
  for i = lo + 1 to hi - 1 do
    let x = b.(i) in
    let j = ref (i - 1) in
    while !j >= lo && b.(!j) > x do
      b.(!j + 1) <- b.(!j);
      decr j
    done;
    b.(!j + 1) <- x
  done

(* Merge the sorted runs [src.(lo .. mid - 1)] and [src.(mid .. hi - 1)]
   into [dst.(lo .. hi - 1)]. *)
let merge (src : int array) (dst : int array) lo mid hi =
  let i = ref lo and j = ref mid in
  for o = lo to hi - 1 do
    if !j >= hi || (!i < mid && src.(!i) <= src.(!j)) then begin
      dst.(o) <- src.(!i);
      incr i
    end
    else begin
      dst.(o) <- src.(!j);
      incr j
    end
  done

let of_unsorted a =
  let n = Array.length a in
  let src = ref (Array.copy a) in
  let lo = ref 0 in
  while !lo < n do
    insertion_sort !src !lo (Int.min n (!lo + run));
    lo := !lo + run
  done;
  if n > run then begin
    let dst = ref (Array.make n 0) and w = ref run in
    while !w < n do
      let lo = ref 0 in
      while !lo < n do
        merge !src !dst !lo (Int.min n (!lo + !w)) (Int.min n (!lo + (2 * !w)));
        lo := !lo + (2 * !w)
      done;
      let s = !src in
      src := !dst;
      dst := s;
      w := 2 * !w
    done
  end;
  !src

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

let symmetric_difference_size a b =
  Array.length a + Array.length b - (2 * inter_size a b)

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

(* Per-domain scratch arenas for the verification kernels.

   Every DP kernel in this library (the Zhang–Shasha tree edit distance,
   its τ-banded variant, and the bounded string edit distance used by
   the filter cascade) needs flat integer working storage whose size
   depends on the input pair.  Allocating it per call costs a major-heap
   allocation and an O(table) initialization per verified candidate,
   which at join scale dominates the banded kernels' actual O(band) work.

   Instead each domain owns exactly one arena, reached through
   [Domain.DLS]: the pool workers of [Tsj_join.Pool] are long-lived
   domains, so in steady state verification performs no DP-table
   allocation at all — the buffers grow monotonically (doubling) to the
   high-water mark of the tree sizes seen by that domain and are then
   reused without clearing.  Kernels are responsible for never reading a
   cell they did not write in the current call (see the stamp protocol in
   [Zhang_shasha]); the arena only guarantees capacity. *)

type t = {
  (* Zhang–Shasha matrices, row stride [cols]. *)
  mutable td : int array; (* treedist values *)
  mutable td_stamp : int array; (* call serial that wrote each td cell *)
  mutable fd : int array; (* forest-distance table *)
  mutable rows : int; (* allocated rows, >= n1 + 1 *)
  mutable cols : int; (* allocated columns, >= n2 + 1 *)
  mutable serial : int; (* bounded-call counter for td stamps *)
  (* The bounded string edit distance's rounds: round e holds the
     furthest row per diagonal in 2k + 3 slots for threshold k (the
     diagonals [-k, k] and a sentinel at each end), at offset
     e * (2k + 3).  Every round is kept, so an alignment can be traced
     back from the last one. *)
  mutable rounds : int array;
  (* The alignment certificate: the string position each position of
     the first string is aligned with (-1 if deleted), and the
     prefix counts of aligned positions of both strings. *)
  mutable mate : int array;
  mutable count_a : int array;
  mutable count_b : int array;
  (* The banded Zhang–Shasha kernel's keyroot window: the T2 keyroot of
     each leaf of T2, and the window of one T1 keyroot, sorted. *)
  mutable leaf_keyroot : int array;
  mutable window : int array;
  (* Held by the systhread currently running a kernel on this arena. *)
  in_use : bool Atomic.t;
}

let create () =
  {
    td = [||];
    td_stamp = [||];
    fd = [||];
    rows = 0;
    cols = 0;
    serial = 0;
    rounds = [||];
    mate = [||];
    count_a = [||];
    count_b = [||];
    leaf_keyroot = [||];
    window = [||];
    in_use = Atomic.make false;
  }

let key = Domain.DLS.new_key create

(* Systhreads share their domain's arena, and the runtime may switch
   threads in the middle of a kernel.  So the arena is claimed for the
   whole call; a thread that finds it claimed runs on a private arena
   allocated for the call rather than overwriting the first thread's
   tables. *)
let acquire () =
  let a = Domain.DLS.get key in
  if Atomic.compare_and_set a.in_use false true then a else create ()

let release a = Atomic.set a.in_use false

let use f =
  let a = acquire () in
  match f a with
  | v ->
    release a;
    v
  | exception e ->
    release a;
    raise e

let reserve_matrices a n1 n2 =
  if n1 + 1 > a.rows || n2 + 1 > a.cols then begin
    let cap = Array.length a.td in
    if (n1 + 1) * (n2 + 1) <= cap then begin
      (* The slabs are big enough, only the shape is wrong (e.g. a
         taller-but-narrower pair after a short-and-wide one): reshape
         in place instead of reallocating all three slabs.  With
         [cols = cap / (n1 + 1)] we get [cols >= n2 + 1] (because
         [(n1 + 1) * (n2 + 1) <= cap]) and [rows = cap / cols >= n1 + 1]
         (because [cols * (n1 + 1) <= cap]), and [rows * cols <= cap]
         keeps every flat offset within the existing arrays.  The stamp
         protocol survives the stride change: [serial] is never reset,
         so every cell written under the old shape carries a stamp
         strictly below the next call's id and reads as stale. *)
      let cols = cap / (n1 + 1) in
      a.cols <- cols;
      a.rows <- cap / cols
    end
    else begin
      let rows = max (n1 + 1) (2 * a.rows) in
      let cols = max (n2 + 1) (2 * a.cols) in
      a.td <- Array.make (rows * cols) 0;
      a.td_stamp <- Array.make (rows * cols) 0;
      a.fd <- Array.make (rows * cols) 0;
      a.rows <- rows;
      a.cols <- cols
    end
  end

let next_serial a =
  a.serial <- a.serial + 1;
  a.serial

let grow arr n = if Array.length arr < n then Array.make (max n (2 * Array.length arr)) 0 else arr

let reserve_rounds a cells = a.rounds <- grow a.rounds cells

let reserve_alignment a la lb =
  a.mate <- grow a.mate la;
  a.count_a <- grow a.count_a la;
  a.count_b <- grow a.count_b lb

let reserve_keyroots a n2 width =
  a.leaf_keyroot <- grow a.leaf_keyroot n2;
  a.window <- grow a.window width

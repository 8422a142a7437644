(** Bag (multiset) operations over sorted arrays.

    The SET baseline represents each tree as a bag of binary branches encoded
    as integers; bag intersection size drives the binary branch distance
    [BIB(T1,T2) = |X1| + |X2| - 2|X1 ∩ X2|].  Sorted-array bags make the
    intersection a linear merge. *)

type t
(** An immutable bag of integers, stored sorted. *)

val of_unsorted : int array -> t
(** A sorted copy of the input, which is left unchanged: a radix sort
    with one pass per 8-bit digit of the span [max - min]. *)

val of_sorted : int array -> t
(** Wraps an array the caller promises is already sorted ascending.
    @raise Invalid_argument if a descending adjacent pair is detected. *)

val size : t -> int
(** Total number of elements, with multiplicity. *)

val inter_size : t -> t -> int
(** Size of the bag intersection (multiplicity = min of the two sides). *)

val union_size : t -> t -> int
(** Size of the bag union (multiplicity = max of the two sides). *)

val symmetric_difference_size : t -> t -> int
(** [size a + size b - 2 * inter_size a b]. *)

val symmetric_difference_at_most : t -> t -> int -> int
(** [symmetric_difference_at_most a b cap] is
    [min cap (symmetric_difference_size a b)]: the merge walk stops once
    the difference reaches [cap]. *)

val mem : t -> int -> bool

val count : t -> int -> int
(** Multiplicity of an element. *)

val to_array : t -> int array
(** Fresh sorted array of the contents. *)

(** Combinatorics helpers.

    Preference integration's SQ approach materialises the disjunction of
    all [C(K-M, L)] conjunctions of [L] preferences (paper §6); these
    helpers enumerate and count those combinations. *)

val choose : int -> int -> int
(** [choose n k] = binomial coefficient C(n, k); 0 when [k < 0] or
    [k > n].  Saturating: [max_int] when C(n, k) does not fit in an
    [int], exact otherwise.  O(min(k, n − k)) divisions, so it sizes
    {!subsets} before anything is enumerated. *)

val subsets : 'a list -> int -> 'a list list
(** [subsets xs k] enumerates every k-element subset of [xs], each subset
    preserving the relative order of [xs], subsets in lexicographic order
    of member positions.  [subsets xs 0 = [[]]]. *)

val pairs : 'a list -> ('a * 'a) list
(** All unordered pairs of distinct positions, in order. *)

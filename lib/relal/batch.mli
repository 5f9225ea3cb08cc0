(** Growable array of rows — the storage representation shared by
    {!Table} (base relations) and {!Exec} (intermediate batches).

    Rows are [Value.t array]s; the batch caches its row count so that
    cardinality questions are O(1) — never a list traversal.  The
    executor addresses batch rows by integer {e row id} (position), which
    is what makes late materialization possible: joins carry row ids and
    only the final projection touches values. *)

type t

val create : ?cap:int -> unit -> t
(** Empty batch, optionally pre-sized. *)

val length : t -> int
(** Cached row count. *)

val add : t -> Value.t array -> unit
(** Append a row (amortized O(1), doubling growth). *)

val get : t -> int -> Value.t array
(** [get b i] is row [i] (0-based).  The returned array must not be
    mutated.  @raise Invalid_argument if out of bounds. *)

val set : t -> int -> Value.t array -> unit
(** [set b i row] replaces row [i].  @raise Invalid_argument if out of
    bounds. *)

val remove : t -> int array -> unit
(** [remove b ids] deletes the rows at [ids] (strictly ascending), keeping
    the survivors' relative order: each survivor's id drops by the number
    of removed ids below it.  @raise Invalid_argument if [ids] is not
    strictly ascending within bounds. *)

val unsafe_rows : t -> Value.t array array
(** The physical storage.  Only indices [0 .. length b - 1] hold live
    rows; the tail is garbage.  Callers must not mutate it — exposed so
    hot loops can skip the bounds check in {!get}. *)

val of_list : Value.t array list -> t
val to_list : t -> Value.t array list

val iter : (Value.t array -> unit) -> t -> unit
val fold : ('a -> Value.t array -> 'a) -> 'a -> t -> 'a

val clear : t -> unit
(** Drop all rows and release storage. *)

(** Hierarchical timing wheel over integer event payloads.

    The simulator's event queue ({!Sim}): O(1) add and amortized O(1)
    pop for the short-horizon timers the simulations are dominated by,
    while popping in exactly (time, insertion-sequence) order — ties at
    equal [time] break FIFO, and the pop sequence is bit-identical to
    {!Heap}'s, the reference model test/test_equeue.ml checks it
    against, for any interleaving of adds and pops.

    Internals: 13 levels of 32 one-microsecond-granularity buckets
    (level l spans 32{^l} µs per bucket), per-level occupancy bitmaps,
    an intrusive structure-of-arrays node pool, and a sorted ready-run
    buffer that resolves sub-microsecond ordering. Steady state
    allocates nothing. Unlike {!Heap} this structure is monomorphic in
    the payload ([int]): it stores simulator event handles. *)

type t

val create : ?capacity:int -> ?dummy:int -> unit -> t
(** [create ?capacity ?dummy ()] is an empty wheel. [capacity] presizes
    the node pool (it grows by doubling); [dummy] (default [0]) is the
    value returned by {!min_elt} on an empty wheel. *)

val add : t -> time:float -> int -> unit
(** [add t ~time v] inserts [v] at [time]. Times must be non-negative
    and finite for meaningful ordering; a time at or before the last
    popped microsecond is delivered at the front, still in (time, seq)
    order, matching {!Heap}. O(1). *)

val add_key : t -> float array -> int -> unit
(** {!add} with the key passed in [buf.(0)] instead of a float argument
    (which would be boxed at the caller; see {!Heap.add_key}). The
    buffer is read before the call returns. *)

val min_time : t -> float
(** Earliest queued time, or [infinity] when empty. Amortized O(1);
    does not allocate (the float return may be boxed by the caller). *)

val min_elt : t -> int
(** Value at the earliest (time, seq) key, or [dummy] when empty. *)

val drop_min : t -> unit
(** Remove the minimum element; no-op when empty. Amortized O(1). *)

val pop_into : t -> float array -> int
(** Remove the minimum, writing its time into [buf.(0)] and returning
    its payload, or [dummy] (buffer untouched) when empty — the
    allocation-free dual of {!add_key}. *)

val length : t -> int
(** Number of queued elements. O(1). *)

val is_empty : t -> bool

val clear : t -> unit
(** Remove all elements and reset the insertion sequence, keeping the
    allocated pool capacity. *)

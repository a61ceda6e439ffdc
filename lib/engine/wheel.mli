(** Hierarchical timing wheel over integer event payloads.

    The simulator's event queue ({!Sim}): O(1) add and amortized O(1)
    pop for the short-horizon timers the simulations are dominated by,
    while popping in exactly (time, insertion-sequence) order — ties at
    equal time break FIFO, and the pop sequence is bit-identical to
    {!Heap}'s, the reference model test/test_equeue.ml checks it
    against, for any interleaving of adds and pops.

    Internals: 13 levels of 32 one-microsecond-granularity buckets
    (level l spans 32{^l} µs per bucket), per-level occupancy bitmaps,
    an intrusive structure-of-arrays node pool, and a sorted ready-run
    buffer that resolves sub-microsecond ordering. Steady state
    allocates nothing. Unlike {!Heap} this structure is monomorphic in
    the payload ([int]): it stores simulator event handles. *)

type t

val create : unit -> t
(** An empty wheel; its node pool grows by doubling. *)

val add_key : t -> float array -> int -> unit
(** [add_key t buf v] inserts [v] at the time in [buf.(0)], which is
    read before the call returns (a float argument would be boxed at the
    caller; see {!Heap.add_key}). Times must be non-negative and finite
    for meaningful ordering; a time at or before the last popped
    microsecond is delivered at the front, still in (time, seq) order,
    matching {!Heap}. O(1). *)

val pop_into : t -> float array -> int
(** Remove the minimum, writing its time into [buf.(0)] and returning
    its payload, or [-1] (buffer untouched) when empty — the
    allocation-free dual of {!add_key}. Amortized O(1). *)

val length : t -> int
(** Number of queued elements. O(1). *)

val is_empty : t -> bool

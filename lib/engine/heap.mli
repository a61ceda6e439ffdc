(** Structure-of-arrays binary min-heap keyed by (time, sequence number).

    The reference model of the simulator's event queue: test/test_equeue.ml
    checks {!Wheel}'s pop order against it. Ties on time break by
    insertion order (FIFO), which keeps simulations deterministic and makes
    "simultaneous" events execute in the order they were scheduled.

    Keys are stored in a flat [float array] and payloads in a parallel
    ['a array], so the hot path ({!add} / {!min_time} / {!min_elt} /
    {!drop_min}) allocates nothing in steady state. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** Fresh heap. [dummy] fills unused payload slots, so the heap never
    retains a popped value; it is also what {!min_elt} returns on an empty
    heap. [capacity] (default 64) is the initial slot count. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val add : 'a t -> time:float -> 'a -> unit
(** Insert an element with the given priority. O(log n), allocation-free
    unless the backing arrays must grow. *)

val add_key : 'a t -> float array -> 'a -> unit
(** [add] with the key passed in [buf.(0)] instead of a float argument:
    a float crossing a non-inlined call is boxed at the caller, so the
    simulator's schedule path hands the key over through a flat
    one-element array. The buffer is read before the call returns. *)

val min_time : 'a t -> float
(** Time of the earliest element, [infinity] when empty. Never allocates. *)

val min_elt : 'a t -> 'a
(** Payload of the earliest element, [dummy] when empty. Never allocates. *)

val drop_min : 'a t -> unit
(** Remove the earliest element (no-op when empty). O(log n),
    allocation-free. Peek-then-drop via {!min_time}/{!min_elt} is the
    non-allocating equivalent of {!pop_min}. *)

val pop_into : 'a t -> float array -> 'a
(** Remove the earliest element, writing its time into [buf.(0)] and
    returning its payload — the allocation-free dual of {!add_key}. The
    heap must be non-empty (unchecked); callers test {!is_empty} first. *)

val pop_min : 'a t -> (float * 'a) option
(** Remove and return the earliest element (smallest time, then earliest
    insertion). O(log n). Convenience wrapper over peek-then-drop; it
    allocates the option and tuple, so hot paths should prefer
    {!min_time}/{!min_elt}/{!drop_min}. *)

val peek_min_time : 'a t -> float option
(** Time of the earliest element without removing it (allocates an
    option; {!min_time} is the non-allocating variant). *)

val clear : 'a t -> unit
(** Empty the heap, releasing every retained payload. *)

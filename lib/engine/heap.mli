(** Binary min-heap of int payloads keyed by (time, sequence number).

    The reference model of the simulator's event queue:
    test/test_equeue.ml runs a {!Sim} in lockstep with an event loop over
    this heap and checks that both fire the same events in the same
    order. Ties on time break by insertion order (FIFO), which keeps
    simulations deterministic and makes "simultaneous" events execute in
    the order they were scheduled. *)

type t

val create : unit -> t

val length : t -> int

val is_empty : t -> bool

val add_key : t -> float array -> int -> unit
(** [add_key t buf v] inserts [v] at the time in [buf.(0)], which is
    read before the call returns: a float argument to a function in
    another module is boxed at the call, one read from a float array is
    not. O(log n). *)

val pop_into : t -> float array -> int
(** Remove the earliest element, writing its time into [buf.(0)] and
    returning its payload, or [-1] (buffer untouched) when empty.
    O(log n). *)

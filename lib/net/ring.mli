(** Bounded FIFO ring of immediate ints (request handles), modelling a
    NIC hardware descriptor ring or a bounded software packet queue.

    Overflow behaviour matches hardware: a push to a full ring drops the
    element (and counts the drop) rather than blocking, like a NIC with no
    free receive descriptors. Storage grows on demand, so a ring costs
    memory for what it has held at once, not for its capacity. *)

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] if [capacity < 1]. *)

val push : t -> int -> bool
(** [push t x] enqueues [x]; returns [false] (and counts a drop) when
    [capacity] elements are queued. *)

val pop_or : t -> default:int -> int
(** Removes and returns the oldest element, or [default] when empty — no
    [Some] allocation. *)

val length : t -> int

val is_empty : t -> bool

val drops : t -> int
(** Number of pushes rejected so far. *)

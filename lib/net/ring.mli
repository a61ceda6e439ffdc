(** Bounded FIFO ring, modelling a NIC hardware descriptor ring or a
    bounded software packet queue.

    Overflow behaviour matches hardware: a push to a full ring drops the
    element (and counts the drop) rather than blocking, like a NIC with no
    free receive descriptors. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] if [capacity < 1]. *)

val push : 'a t -> 'a -> bool
(** [push t x] enqueues [x]; returns [false] (and counts a drop) when
    full. *)

val pop : 'a t -> 'a option

val pop_or : 'a t -> default:'a -> 'a
(** Like {!pop} but returns [default] when empty — no [Some] allocation;
    the hot-path variant for immediate payloads (request handles). *)

val peek : 'a t -> 'a option

val length : 'a t -> int

val is_empty : 'a t -> bool

val drops : 'a t -> int
(** Number of pushes rejected so far. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Front-to-back, without consuming. *)

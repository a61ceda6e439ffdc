(** Growable circular FIFO of immediate ints: flat storage, zero
    steady-state allocation (a [Stdlib.Queue] cell costs 3 minor words
    per [add]). Single-owner; not thread safe. *)

type t

val create : unit -> t
(** An empty queue with room for 8; the buffer doubles on overflow and
    never shrinks. *)

val push : t -> int -> unit

val empty : int
(** Sentinel returned by {!pop}/{!peek} on an empty queue ([min_int]).
    Callers whose payloads can be [min_int] must guard with
    {!is_empty}. *)

val pop : t -> int
(** Oldest element, or {!empty}. *)

val peek : t -> int
(** Oldest element without removing it, or {!empty}. *)

val length : t -> int

val is_empty : t -> bool

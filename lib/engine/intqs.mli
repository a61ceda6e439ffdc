(** Many FIFOs of immediate ints in one flat structure: one int per
    queue, and one shared node pool of two int arrays that doubles only
    when every node is in use. Building [n] queues allocates three flat
    arrays, not [n] heap blocks; push and pop allocate nothing once the
    pool has grown to the number of elements held at once. Each queue
    keeps FIFO order. Single-owner; not thread safe. *)

type t

val create : queues:int -> unit -> t
(** Queues [0 .. queues - 1], all empty, sharing 64 initial nodes.
    Raises [Invalid_argument] if [queues < 0]. *)

val push : t -> int -> int -> unit
(** [push t q x] appends [x] to queue [q]. *)

val empty : int
(** Sentinel returned by {!pop} on an empty queue ([min_int],
    the same as {!Intq.empty}). Callers whose payloads can be [min_int]
    must guard with {!is_empty}. *)

val pop : t -> int -> int
(** Oldest element of the queue, or {!empty}. *)

val is_empty : t -> int -> bool

val remove_all : t -> int -> int -> unit
(** [remove_all t q x] removes every occurrence of [x] from queue [q],
    preserving the order of the rest. O(length of [q]); for rare repair
    paths, not the hot path. *)

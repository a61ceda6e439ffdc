(** The simulator's event queue behind a runtime-selectable back end.

    [Heap] is the structure-of-arrays binary heap ({!Heap}); [Wheel] is
    the hierarchical timing wheel ({!Wheel}). Both pop in (time,
    insertion-sequence) order — FIFO among equal times — and produce
    bit-identical pop sequences for any interleaving of adds and pops,
    so switching back ends never changes simulation output, only speed.
    Payloads are [int] (simulator event handles). *)

type kind = Heap | Wheel

type t = H of int Heap.t | W of Wheel.t
(** The representation is exposed so {!Sim}'s hot loop can match on the
    back end once per operation and call {!Heap}/{!Wheel} directly,
    instead of paying a dispatch per [add]/[min_time]/[drop_min]. Use
    the functions below everywhere else. *)

val create : ?capacity:int -> ?dummy:int -> kind -> t
val kind : t -> kind

val add : t -> time:float -> int -> unit
(** Heap: O(log n). Wheel: O(1). Neither allocates in steady state. *)

val min_time : t -> float
(** Earliest queued time, or [infinity] when empty. *)

val min_elt : t -> int
(** Value at the earliest (time, seq) key, or [dummy] when empty. *)

val drop_min : t -> unit
(** Remove the minimum element; no-op when empty. *)

val length : t -> int
val is_empty : t -> bool

val clear : t -> unit
(** Empty the queue and reset the insertion sequence. *)

val kind_of_string : string -> kind option
(** Case-insensitive ["heap"] / ["wheel"]. *)

(** Silo transaction identifiers (Tu et al., SOSP'13, §4.2).

    A TID is a single word carrying, from least- to most-significant bits:
    a lock bit (bit 0), an absent bit (bit 1), a 32-bit sequence number
    (bits 2–33), and the epoch number (bits 34–61). Packing everything in
    one word lets the commit protocol lock a record and validate a read
    with single-word atomic operations. We use OCaml's native 63-bit [int]
    so that [Atomic.t] compare-and-set works on immediates (no boxing). *)

type t = int

val zero : t
(** Initial TID of freshly loaded records: epoch 0, sequence 0,
    unlocked. *)

val make : epoch:int -> seq:int -> t
(** Raises [Invalid_argument] when epoch or sequence exceed their fields
    (epoch < 2^28, seq < 2^32). *)

val epoch : t -> int

val seq : t -> int

val is_locked : t -> bool

val locked : t -> t
(** Same TID with the lock bit set. *)

val unlocked : t -> t

val is_absent : t -> bool

val absent : t -> t
(** Same TID with the absent bit set (record logically deleted / not yet
    committed). *)

val compare_data : t -> t -> int
(** Order by (epoch, seq), ignoring status bits — the "newer version"
    relation. *)

val next_after : t -> epoch:int -> t
(** Smallest valid TID in [epoch] strictly larger (in {!compare_data}) than
    [t] — used by the commit protocol's TID assignment rule (a). *)

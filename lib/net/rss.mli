(** Receive-side scaling: flow-consistent dispatch of connections to NIC
    hardware queues.

    Real NICs (the paper's Intel 82599) hash each packet's 4-tuple with the
    Toeplitz function and index a 128-entry indirection table to pick a
    receive queue; all packets of a connection therefore land on one queue,
    which in IX/ZygOS makes that queue's core the connection's "home core".
    We implement the actual Microsoft Toeplitz hash over a synthetic 4-tuple
    derived from the connection id, so connection→core placement has the
    same statistics (uneven connection counts per core included) as the
    hardware. *)

type t

val create : queues:int -> unit -> t
(** [create ~queues ()] builds an RSS engine dispatching to [queues]
    hardware queues through a 128-entry indirection table (entry [i] maps
    to queue [i mod queues], the usual driver default). Every engine
    hashes with {!default_key}. Raises [Invalid_argument] if
    [queues < 1]. *)

val default_key : string
(** The 40-byte Toeplitz secret Microsoft publishes with the RSS
    specification (also the default of many NIC drivers). *)

val toeplitz : key:string -> bytes -> int32
(** The raw Toeplitz hash of an input byte string (used for the 12-byte
    IPv4 4-tuple: src ip, dst ip, src port, dst port). Bit-serial
    reference implementation; exposed for tests against published test
    vectors and as the oracle for the precomputed fast path. *)

val hash_of_tuple : src_ip:int32 -> dst_ip:int32 -> src_port:int -> dst_port:int -> int
(** The Toeplitz hash of a 4-tuple via {!default_key}'s 12×256 per-byte
    lookup table (12 table XORs, no per-bit key-window rebuilds). The
    table is built once, when the module initialises, and shared
    read-only by every engine. The 32-bit result is returned as a
    non-negative int; bitwise-equal to {!toeplitz} over the same 12
    bytes (qcheck-enforced). *)

val queue_of_conn : t -> int -> int
(** Queue for a synthetic connection id: connection [c] is given the
    4-tuple (10.0.(c/250).(c mod 250 + 1) : 1024+c  ->  10.0.0.1 : 8000).
    Deterministic; this is the connection→home-core map used by every
    partitioned system model. *)

(** {2 Indirection-table reprogramming}

    Real control planes rebalance load by rewriting indirection-table
    slots (the paper's §5 mentions the IX control plane doing exactly
    this); the hash of a connection never changes, only the slot→queue
    mapping. *)

val slots : int
(** Indirection table size (128, as on the paper's NICs). *)

val slot_of_conn : int -> int
(** The table slot a connection hashes to (stable across remapping —
    remapping rewrites slot→queue, never the hash). Each call hashes:
    12 table loads and XORs. *)

val queue_of_slot : t -> int -> int

val set_slot : t -> slot:int -> queue:int -> unit
(** Re-program one table slot. Raises [Invalid_argument] on out-of-range
    slot or queue. *)

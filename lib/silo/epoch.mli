(** Global epoch management (Silo §4.1).

    The epoch number is the coarse-grained component of every committed
    TID; it advances periodically (Silo: every 40ms, here on demand or
    every 4,096 commits) and is what gives Silo serializability
    with no shared-counter bottleneck — workers only read it. The
    epoch-based garbage collection tied to it is the part the paper
    disables for the §6.3 measurements; we likewise do not implement GC. *)

type t

val create : unit -> t
(** Epoch 1, no commits yet. *)

val current : t -> int

val advance : t -> int
(** Manually advance; returns the new epoch. *)

val on_commit : t -> unit
(** Notify one commit; advances the epoch every 4,096th call (the
    stand-in for Silo's 40ms timer). *)

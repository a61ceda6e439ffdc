(** Idle-loop polling policy (§5, "Idle loop polling logic").

    A ZygOS core that finds nothing to do polls, in priority order:
    (a) the head of its own NIC hardware descriptor ring,
    (b) the shuffle queues of all other cores,
    (c) the unprocessed software packet queues of all other cores,
    (d) the NIC hardware descriptor rings of all other cores;
    for steps (b)–(d) the order in which the other cores are visited is
    randomized to avoid herding of thieves onto one victim.

    This module produces those randomized victim orders. It also provides
    the deterministic round-robin order used by the `ablate-poll`
    ablation. *)

type t

val create : rng:Engine.Rng.t -> cores:int -> self:int -> t
(** Policy state for one core. Raises [Invalid_argument] when [self] is out
    of range or [cores < 1]. *)

val victim_order : t -> int array
(** A fresh random permutation of all cores except [self]. The returned
    array is reused by the next call — copy it to retain it. *)

val round_robin_order : t -> int array
(** Deterministic order [self+1, self+2, ..., self-1 (mod cores)] — the
    naive policy the ablation benchmark compares against. *)

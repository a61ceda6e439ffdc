(** Deterministic pseudo-random number generation for simulations.

    The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a tiny,
    fast, statistically solid 64-bit generator with cheap stream splitting.
    Every simulation in this repository draws randomness exclusively through
    this module so that experiments are bit-for-bit reproducible from a seed,
    and so that independent model components (arrival process, service times,
    connection selection, steal-victim selection) can use decorrelated
    streams split from one master seed. *)

type t
(** Mutable generator state. Not thread-safe; use one per simulation
    component (see {!split}). *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator. Equal seeds yield equal
    streams. *)

val copy : t -> t
(** Independent copy of the current state (same future stream). *)

val split : t -> t
(** [split t] draws from [t] to derive a new generator whose stream is
    decorrelated from [t]'s subsequent output. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val mix64 : int64 -> int64
(** The SplitMix64 output finalizer, a bijection on 64-bit words: each
    draw is [mix64] of the advanced state. Also derives sweep points'
    seeds ({!Experiments.Sweep.point_seed}). *)

val float : t -> float
(** Uniform float in [0, 1). *)

val float_into : t -> float array -> int -> unit
(** [float_into t buf i] stores the next {!float} draw in [buf.(i)]: the
    same bits, without the box a float returned across modules pays. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)

val int_range : t -> int -> int -> int
(** [int_range t lo hi] is uniform in [lo, hi] (inclusive). *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val shuffle_in_place : t -> int array -> unit
(** Fisher–Yates shuffle of an [int array], drawing [int t (i + 1)] for
    [i] from [length - 1] down to [1]. Used to randomize steal-victim
    polling order (15 entries on 16 cores), drawn whenever an idle
    core's steal attempt or IPI scan needs one. The result is uniform
    whatever the array's prior arrangement, so skipping a draw that
    nothing reads changes no decision's distribution. It is monomorphic
    because a polymorphic array shuffle pays a float-array tag check on
    every read and a write barrier on every store; every caller shuffles
    core or row indices. *)

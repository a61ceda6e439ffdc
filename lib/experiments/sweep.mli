(** Domain-parallel execution of independent sweep points with
    deterministic per-point RNG derivation.

    Every figure of the evaluation is a grid of mutually independent
    (system, service distribution, load) simulation points. This module
    runs such a grid on a {!Runtime.Pool} of OCaml 5 domains, while
    keeping the figure output bit-identical to a sequential run:

    - each point's randomness comes from a seed derived purely from the
      master seed and the point's stable key (SplitMix64 of an FNV-1a
      hash), never from execution order;
    - results are returned in enumeration order, so the render step that
      consumes them is oblivious to which worker ran which point;
    - with [jobs = 1] (the default) no domain is spawned at all. *)

type 'a point = { key : string; run : seed:int -> 'a }
(** One unit of schedulable work. [key] must be unique within a sweep
    and stable across runs — it determines the point's seed. *)

val point : key:string -> (seed:int -> 'a) -> 'a point

val point_seed : seed:int -> key:string -> int
(** The derived seed for a point: a pure, order-independent function of
    the master seed and the key. Always non-negative. *)

val run : ?jobs:int -> seed:int -> 'a point list -> 'a list
(** [run ~jobs ~seed points] executes every point (on [jobs] workers)
    and returns the results in input order. Output is independent of
    [jobs]. Default [jobs = 1] runs sequentially in the calling domain. *)

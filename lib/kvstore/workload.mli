(** The Facebook memcached workloads (Atikoglu et al., SIGMETRICS'12) used
    by Figure 9, as modelled by mutilate.

    - {b USR}: tiny fixed-size records — short keys (16–21 B), 2 B values,
      99.8% GET. The closest real workload to a deterministic service-time
      distribution.
    - {b ETC}: the general-purpose pool — 20–45 B keys, value sizes spread
      over a generalized-Pareto-like range (tens of bytes to a few KB),
      ~3.3% SET.

    The module draws request streams and prices each request with a
    service-cost model (base dataplane-app cost plus a size-dependent
    term; §6.2 gives < 2µs mean task size); {!service_dist} turns that
    into the per-request service-time distribution the system simulators
    consume. *)

type kind = Etc | Usr

val name : kind -> string

type command = Get of string | Set of { key : string; data : string }
(** One memcached request: the operations the ETC/USR workloads issue. *)

type t

val create : ?records:int -> ?seed:int -> kind -> t
(** [records] is the key-space size (default 100_000); [seed] seeds
    {!service_dist}'s request stream (default 11). *)

val next_command : t -> Engine.Rng.t -> command
(** Draw one request: GET with the workload's GET fraction, otherwise SET
    with a fresh value; keys are Zipf-skewed (popular keys exist, as in the
    trace). *)

val service_time_us : command -> float
(** Deterministic service-cost model of one request on the store: base
    lookup cost plus a per-byte term for the value moved. *)

val service_dist : t -> samples:int -> Engine.Dist.t
(** Empirical service-time distribution of [samples] randomly drawn
    requests — the distribution Figure 9's simulations feed the system
    models. *)

val get_fraction : kind -> float

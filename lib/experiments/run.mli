(** Single-experiment runner: one (system, service distribution, load)
    point, measured exactly like the paper's §3.1 methodology — open-loop
    Poisson arrivals over many connections, client-side latency, p99 tails.

    Loads are expressed as a fraction of the zero-overhead saturation
    capacity [cores / mean_service], so "load 0.8 for 10µs tasks on 16
    cores" means 1.28 requests/µs offered, for every system — real systems
    saturate below 1.0 because of their per-request overheads, exactly as
    in Figures 3, 6 and 7. *)

type system_kind =
  | Linux_partitioned
  | Linux_floating
  | Ix of int  (** bounded-batching parameter B *)
  | Zygos
  | Zygos_no_interrupts
  | Zygos_round_robin
      (** ZygOS with a naive round-robin steal-victim order instead of
          §5's randomized one (the [ablate-poll] ablation) *)
  | Preemptive of float
      (** centralized preemptive scheduling with the given quantum (µs) —
          the §2.3 "PS wins under extreme dispersion" extension *)
  | Preemptive_consolidated of float
      (** [Preemptive] with consolidation's core parking
          ({!Systems.Preemptive.create}'s [consolidate]; the
          [ext-consolidate] extension) *)
  | Ix_rebalanced
      (** IX with an RSS-reprogramming control plane
          ({!Systems.Ix.rebalanced}) — the §5 "control plane
          interactions" extension *)
  | Model_central_fcfs  (** zero-overhead M/G/n/FCFS bound *)
  | Model_partitioned_fcfs  (** zero-overhead n×M/G/1/FCFS bound *)

val system_name : system_kind -> string
(** The name the figures print, e.g. ["ix-b64"], ["preempt-q5"] or
    ["M/G/n/FCFS"]. *)

val system_of_name : string -> system_kind option
(** The inverse of {!system_name}: [system_of_name (system_name k) = Some k]
    for every kind. A name that {!system_name} never prints (["linux"],
    ["ix-b1"]) gives [None]. *)

type config = {
  system : system_kind;
  cores : int;  (** default 16 *)
  conns : int;  (** default 2752, the paper's connection count *)
  service : Engine.Dist.t;
  requests : int;  (** measured request target per point (default 30_000) *)
  seed : int;
  rpc_packets : int;  (** packets per request each way (default 1) *)
  selection : Net.Loadgen.conn_selection;  (** default [Uniform] *)
  faults : Net.Faults.plan option;  (** network fault plan (default none) *)
  stragglers : Core.Corefault.spec list;  (** straggler windows (default none) *)
  retry : Net.Loadgen.retry option;  (** client retry policy (default none) *)
  slo : float;  (** goodput SLO in µs (default [infinity]) *)
  shed : int option;
      (** admission control: the in-flight bound of a
          {!Systems.Overload} guard (default none: no guard) *)
}

val config :
  ?cores:int ->
  ?conns:int ->
  ?requests:int ->
  ?seed:int ->
  ?rpc_packets:int ->
  ?selection:Net.Loadgen.conn_selection ->
  ?faults:Net.Faults.plan ->
  ?stragglers:Core.Corefault.spec list ->
  ?retry:Net.Loadgen.retry ->
  ?slo:float ->
  ?shed:int ->
  system:system_kind ->
  service:Engine.Dist.t ->
  unit ->
  config
(** Validates every fault/overload knob eagerly (see the respective
    [validate_*] functions); raises [Invalid_argument] on bad values. When
    all the optional chaos knobs are left at their defaults, the resulting
    runs are bit-identical to a configuration built before this layer
    existed. *)

type point = {
  load : float;  (** offered load (fraction of zero-overhead capacity) *)
  offered_rate : float;  (** requests/µs offered *)
  throughput : float;  (** requests/µs completed in the measure window *)
  goodput : float;
      (** distinct requests completed within [slo] per µs; equals
          [throughput] when [slo = infinity] and no duplicates occur *)
  mean : float;
  p50 : float;
  p99 : float;
  p999 : float;
  completed : int;
  order_violations : int;
  info : (string * float) list;  (** system counters, see {!Systems.Iface} *)
}

val info_value : point -> string -> float option
(** [info_value p key] looks up a counter in [p.info] by [String.equal]. *)

val point_of_tally :
  load:float ->
  offered_rate:float ->
  throughput:float ->
  goodput:float ->
  order_violations:int ->
  info:(string * float) list ->
  Stats.Tally.t ->
  point
(** Reduce a latency tally to a sweep point (percentiles zeroed when the
    tally is empty). The percentiles are taken first, so [mean] sums the
    sorted samples: the point depends only on the sample multiset, not
    on the order they were recorded in. Exposed for runners outside this
    module — {!Rackrun} reduces rack simulations with it. *)

val make_system :
  system_kind ->
  Engine.Sim.t ->
  cores:int ->
  rpc_packets:int ->
  stragglers:Core.Corefault.spec list ->
  rng:Engine.Rng.t ->
  pool:Net.Request.pool ->
  conns:int ->
  respond:(Net.Request.t -> unit) ->
  Systems.Iface.t
(** Build one simulated server of the given kind on [sim]: default
    {!Systems.Params} for [cores] with [rpc_packets] and [stragglers],
    plus the kind's own overrides (IX batch, no interrupts, round-robin
    victims, consolidation). Only the ZygOS kinds draw from [rng]. The
    one place a [system_kind] becomes a server: {!run_point} and
    {!Rackrun.run} both build theirs here. Raises [Invalid_argument] on
    a queueing-model kind. *)

val client_info : Net.Loadgen.t -> (string * float) list
(** The client's retry counters, as a point's [info] lists them. *)

val run_point : config -> load:float -> point
(** Run one simulation at the given offered load. Deterministic in
    [config.seed]. A point's [info] lists the system's counters, then
    network-fault, admission and client counters, then the simulator's
    event-pool counters. *)

val max_load_at_slo : config -> slo_p99:float -> ?resolution:float -> unit -> float * point
(** Bisection for the highest load whose p99 meets [slo_p99]; returns the
    load (0. when even 2% load violates) and the measured point at that
    load. Resolution defaults to 0.01 of capacity. Over the model kinds
    this is how the paper computes e.g. "96.3% for centralized-FCFS"
    (§3.1). Raises [Invalid_argument] when [slo_p99] is NaN or not
    positive, or when [resolution] is not finite or not positive. *)

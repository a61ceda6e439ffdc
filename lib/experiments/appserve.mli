(** Serving {e real} application work through the simulated systems.

    The paper's §6.3 artifact is "a networked version of Silo": real
    database transactions behind a scheduler and a network stack. This
    module reproduces that composition: for each simulated request it
    executes actual application code — a TPC-C transaction on the real
    {!Silo} engine, or a memcached command on the real {!Kvstore} store —
    measures its wall-clock duration, and feeds that measured demand to
    the simulated server as the request's service time. Scheduling,
    queueing and stealing happen in simulated time; the work itself is
    real (so contention, aborts and data-dependent costs are real too).

    Measured durations are scaled by a calibration factor so the mean
    lands on a chosen µs value (this machine's raw speed differs from the
    paper's Xeon); pass [target_mean_us = 0.] to disable scaling. Raw
    durations are capped at 25x the calibrated median to filter OCaml-GC
    and host-scheduler artifacts — the moral equivalent of the paper
    disabling Silo's GC for the §6.3 measurements. *)

type workload =
  | Tpcc of Silo.Tpcc.t  (** the standard mix against a loaded database *)
  | Kv of Kvstore.Workload.t * Kvstore.Store.t  (** ETC/USR commands *)

type t

val create : ?seed:int -> ?calibrate_over:int -> target_mean_us:float -> workload -> t
(** Calibration runs [calibrate_over] operations (default 2000) to learn
    the raw mean cost. Raises [Invalid_argument] if [target_mean_us] is
    negative. *)

val service_fn : t -> conn:int -> float
(** Execute one real operation and return its (scaled) duration in µs —
    plug into {!Net.Loadgen.create}'s [service_fn]. *)

val mean_us : t -> float
(** The calibrated post-scaling mean (the [target_mean_us], or the raw
    mean when scaling is disabled). *)

val executed : t -> int
(** Real operations executed so far (including calibration). *)

val run_point :
  t ->
  system:Run.system_kind ->
  load:float ->
  ?cores:int ->
  ?conns:int ->
  ?requests:int ->
  ?seed:int ->
  unit ->
  Run.point
(** One latency/throughput point where every simulated request's demand
    comes from a freshly executed real operation: a {!Run.run_point} with
    {!service_fn} as the config's [service_fn]. Raises [Invalid_argument]
    on [Ix_rebalanced] and the queueing-model kinds. *)

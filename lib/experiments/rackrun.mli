(** Rack-scale sweep points: run a {!Cluster.Rack} of N single-server
    system instances under the open-loop load generator and reduce to the
    same {!Run.point} record the single-server sweeps produce.

    The offered rate scales with the whole rack ([load] = utilization of
    all [servers * cores] cores), so rack points compare directly against
    {!central_bound}, the M/G/(servers*cores) FCFS model — the ceiling a
    perfect rack-wide single-queue scheduler would reach.

    A 1-server rack with the default (empty) failure plan, zero feedback
    delay, and no detection or hedging reproduces {!Run.run_point}
    byte for byte at the same seed, whatever the policy — the degeneracy
    guarded by [test_cluster]. Each server is built by {!Run.make_system}. *)

type config = {
  servers : int;
  system : Run.system_kind;  (** per-server model; real systems only *)
  cores : int;  (** per server *)
  conns : int;
  service : Engine.Dist.t;
  requests : int;  (** measured requests across the whole rack *)
  seed : int;
  rpc_packets : int;
  policy : Cluster.Policy.t;
  feedback_delay : float;
  detect : Cluster.Dispatch.detect option;
  hedge : float option;
  failplan : Cluster.Failplan.t;
  retry : Net.Loadgen.retry option;  (** client-side retry layer *)
  slo : float;
}

val config :
  ?servers:int ->
  ?system:Run.system_kind ->
  ?cores:int ->
  ?conns:int ->
  ?requests:int ->
  ?seed:int ->
  ?rpc_packets:int ->
  ?feedback_delay:float ->
  ?detect:Cluster.Dispatch.detect ->
  ?hedge:float ->
  ?failplan:Cluster.Failplan.t ->
  ?retry:Net.Loadgen.retry ->
  ?slo:float ->
  policy:Cluster.Policy.t ->
  service:Engine.Dist.t ->
  unit ->
  config
(** Defaults mirror {!Run.config}: 4 servers of 16 cores, 2752
    connections, 30k requests, seed 42. Raises [Invalid_argument] on a
    model or rebalanced system kind (the rack needs real single-ingress
    servers). *)

val run : config -> load:float -> Run.point
(** Simulate one rack point. The point's [info] merges the rack's
    counters (dispatcher, health, per-server systems) with the client's
    retry counters. *)

val central_bound : config -> load:float -> Run.point
(** The rack-wide M/G/(servers*cores)/FCFS model at the same load, seed,
    and request count. *)

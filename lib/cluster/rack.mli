(** The rack tier: N independent server instances behind one ToR
    dispatcher — the two-level scheduling composition (inter-server
    policy over intra-server systems) of RackSched, built from this
    repository's existing single-server models unchanged.

    The rack presents itself as a single {!Systems.Iface.t}, so the load
    generator and the sweep machinery treat it exactly like one big
    server. Inside, each request passes:

    + the {!Dispatch} policy layer (server choice, JBSQ credits,
      detection timers, hedging);
    + the server's crash filter: requests arriving inside a
      [Failplan.Crash] window are lost ([rack_lost_requests]);
    + the server system itself (any [make_server] — Linux, IX, ZygOS),
      whose [Failplan.Degraded] windows the caller applies as
      {!Core.Corefault} stragglers when building it.

    Responses flow back through the crash filter (suppressed inside a
    window: [rack_lost_responses]) into {!Dispatch.on_response}.

    {b Determinism.} [create] splits the caller's [rng] in a fixed
    order — one stream per server (index order), then the dispatcher's —
    so a 1-server rack with a zero failure plan consumes exactly the
    splits a bare single-server run does and reproduces it byte for byte
    (the degeneracy pinned by [test_cluster]). *)

type config = {
  servers : int;
  policy : Policy.t;
  feedback_delay : float;  (** estimate staleness (µs); 0 = exact *)
  feedback_until : float;  (** last sim time estimates refresh *)
  detect : Dispatch.detect option;
  hedge : float option;
  failplan : Failplan.t;
}

val config :
  ?feedback_delay:float ->
  ?feedback_until:float ->
  ?detect:Dispatch.detect ->
  ?hedge:float ->
  ?failplan:Failplan.t ->
  servers:int ->
  policy:Policy.t ->
  unit ->
  config
(** Validates everything ([1 <= servers <= 62]: routable sets are int bit
    sets; the policy; the failure plan); raises [Invalid_argument]. *)

type t

val create :
  Engine.Sim.t ->
  config ->
  rng:Engine.Rng.t ->
  pool:Net.Request.pool ->
  make_server:
    (i:int -> rng:Engine.Rng.t -> respond:(Net.Request.t -> unit) -> Systems.Iface.t) ->
  respond:(Net.Request.t -> unit) ->
  t
(** [make_server ~i ~rng ~respond] builds server [i]'s system instance;
    it must route every completed request to [respond] (the rack's
    egress for that server) and draw randomness only from [rng]. The
    rack's [respond] receives exactly one response per logical request
    (the dispatcher de-duplicates failover/hedge copies). *)

val iface : t -> Systems.Iface.t
(** The rack as a single server: [submit] dispatches, [info] merges the
    dispatcher's counters, rack-level loss counters ([rack_servers],
    [rack_lost_requests], [rack_lost_responses]) and the key-wise sum of
    all per-server system counters, except two ratios: [steal_fraction]
    is the rack's (summed stolen events over summed local plus stolen
    events), and [preemptions_per_request] is left out. *)

val dispatch : t -> Dispatch.t

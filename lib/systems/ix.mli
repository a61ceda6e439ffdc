(** Simulated IX dataplane (Belay et al., OSDI'14 / TOCS'17), the paper's
    shared-nothing baseline.

    Each core owns the connections RSS maps to its hardware queue and runs
    a strict run-to-completion loop with adaptive bounded batching
    (§3.3/§6.2): take up to B packets from the hardware ring, carry the
    whole batch through the network stack, then execute each request to
    completion (application service + eager transmit), then loop. There is
    no stealing and no preemption, so a long request blocks everything
    behind it on the same core — the head-of-line blocking ZygOS
    eliminates. B=1 disables batching (best tail latency), B=64 is the
    default (best throughput for tiny tasks, Figure 9/11). *)

val create :
  Engine.Sim.t ->
  Params.t ->
  pool:Net.Request.pool ->
  conns:int ->
  respond:(Net.Request.t -> unit) ->
  Iface.t

val rebalanced :
  Engine.Sim.t ->
  Params.t ->
  pool:Net.Request.pool ->
  conns:int ->
  respond:(Net.Request.t -> unit) ->
  Iface.t
(** {!create} with IX's control plane (§5 "Control plane interactions"),
    which fights {e persistent} imbalance by re-programming the NIC's RSS
    indirection table; the paper leaves its evaluation with ZygOS to
    future work. Every packet is routed through the live table. Every
    200 µs the controller reads and zeroes the per-slot packet counts,
    and when the hottest core received more than 1.3 times the coldest
    core's packets, it moves the busiest slot of the hottest core (one
    that carried at most half the difference) to the coldest core. It
    stops after two windows with no traffic, so simulations terminate.
    [info] adds [rebalance_moves] and [rebalance_windows] to {!create}'s
    [ring_drops].

    Two caveats the [ext-rebalance] target surfaces:

    - re-programming helps only persistent skew; Poisson burst imbalance
      moves faster than any windowed controller (§2.3);
    - naive slot re-programming can reorder back-to-back requests of a
      connection that is in flight during the move (the reason IX
      migrates flow-groups with a careful protocol). The load generator
      counts these as order violations. *)

(** RSS re-programming control plane (§5 "Control plane interactions").

    The paper notes that the IX control plane fights {e persistent}
    imbalance by re-programming the NIC's RSS indirection table, and
    leaves the evaluation of such a control plane with ZygOS to future
    work. This module implements that controller for the simulated
    systems: every [window] µs it reads per-slot packet counts, and when
    the hottest core receives more than 1.3 times the coldest core's
    traffic, it moves the busiest indirection slot of the hottest core to
    the coldest core.

    Two caveats the experiment (bench target `ext-rebalance`) surfaces:

    - re-programming helps only persistent skew; Poisson burst imbalance
      moves faster than any windowed controller (§2.3);
    - naive slot re-programming can reorder back-to-back requests of a
      connection that is in flight during the move (the reason IX
      migrates flow-groups with a careful protocol). The load generator
      counts these as order violations. *)

type stats = {
  mutable windows : int;  (** controller invocations *)
  mutable moves : int;  (** indirection slots re-programmed *)
}

val attach :
  Engine.Sim.t ->
  rss:Net.Rss.t ->
  queues:int ->
  read_counts:(unit -> int array) ->
  window:float ->
  unit ->
  stats
(** Start the periodic controller. It stops by itself after two
    consecutive windows with no traffic (so simulations terminate).
    Raises [Invalid_argument] on a window that is not positive (NaN too). *)

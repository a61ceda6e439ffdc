(** Overhead parameters of the simulated server systems.

    The paper measures real systems whose efficiency differences come from
    per-request fixed costs (syscalls, kernel network stack, epoll, locking)
    and from scheduling behaviour (batching, stealing, IPIs). The simulator
    reproduces the scheduling behaviour exactly and represents the fixed
    costs with the constants below. Defaults are calibrated so that the
    per-request overhead of each system matches the saturation throughputs
    of the paper's Figure 6 at 10µs tasks (see EXPERIMENTS.md §Calibration):
    roughly 1.1µs/req for IX, 1.4µs/req for ZygOS local work, and 6.5µs/req
    for Linux. All times in µs. *)

type t = {
  cores : int;  (** worker cores/hyperthreads (paper: 16) *)
  ring_capacity : int;  (** NIC hardware descriptor ring slots per queue *)
  rpc_packets : int;
      (** network packets per request each way (1 for small RPCs; >1 for
          payloads above one MTU, e.g. TPC-C responses) — multiplies the
          per-packet network-stack costs of every system *)
  (* Linux (§3.3 "Linux configuration") *)
  linux_epoll : float;  (** epoll_wait returning one event *)
  linux_syscall : float;  (** one read or write system call *)
  linux_netstack : float;  (** kernel TCP/IP work per packet (each way) *)
  linux_wakeup : float;  (** waking a thread blocked in epoll_wait *)
  linux_lock : float;  (** floating mode: shared-pool locking per event *)
  (* Dataplane costs shared by IX and ZygOS *)
  dp_rx : float;  (** driver + lwIP receive path per packet *)
  dp_tx : float;  (** transmit path per packet *)
  dp_loop : float;  (** fixed cost of one poll-loop iteration *)
  (* IX *)
  ix_batch : int;  (** adaptive bounded batching limit B (§3.3; 1 or 64) *)
  (* ZygOS *)
  zy_rx_batch : int;  (** receive-side bounded batching (§6.2) *)
  zy_shuffle : float;  (** shuffle-queue enqueue+dequeue per event *)
  zy_steal : float;  (** extra cost of a stolen dispatch (cache-line pulls) *)
  zy_remote_syscall : float;  (** executing one remote batched syscall at home *)
  zy_ipi_latency : float;  (** IPI delivery latency *)
  zy_ipi_handler : float;  (** fixed cost of the exit-less IPI handler *)
  zy_poll_delay : float;  (** idle-loop remote-queue detection granularity *)
  zy_interrupts : bool;  (** false = the "ZygOS (no interrupts)" variant *)
  zy_poll_random : bool;
      (** randomized victim order in the idle loop (§5); false = naive
          round-robin, for the `ablate-poll` ablation *)
  stragglers : Core.Corefault.spec list;
      (** scheduled transient slowdowns/stalls of individual worker cores
          (empty = no faults), applied by the Linux, IX and ZygOS models;
          {!Preemptive.create} rejects a non-empty list *)
}

val validate : t -> t
(** Returns its argument after checking every invariant: positive
    counts/capacities, finite non-negative overheads, straggler specs
    within range. Raises [Invalid_argument] with the offending field
    otherwise. Every system model validates its parameters on
    construction, so a nonsensical record fails fast instead of silently
    producing garbage sweeps. *)

val default : ?cores:int -> unit -> t
(** Calibrated defaults for a 16-core server. *)

val no_interrupts : t -> t
(** Same parameters with IPIs disabled (purely cooperative stealing). *)

val with_ix_batch : t -> int -> t

val with_rpc_packets : t -> int -> t
(** Raises [Invalid_argument] when the count is < 1. *)

val with_stragglers : t -> Core.Corefault.spec list -> t
(** Replace the straggler schedule (validated against [cores]). *)

val corefaults : t -> Core.Corefault.t
(** Compiled straggler schedule for the system models;
    {!Core.Corefault.none}-equivalent when [stragglers] is empty. *)

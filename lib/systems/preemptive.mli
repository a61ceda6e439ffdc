(** Preemptive centralized scheduling — the §2.3/§7 counterpoint.

    Observation 2 of the paper: FCFS is tail-optimal for low-dispersion
    service times, but processor sharing wins when dispersion is extreme
    (bimodal-2, where 0.1% of requests are 1000x longer than the rest).
    ZygOS is FCFS by design; the line of work it spawned (Shinjuku,
    SOSP'19-adjacent) adds preemption to recover the PS advantage.

    This model implements that extension: a centralized run queue feeding
    all cores, where a request executes for at most a quantum before being
    preempted (paying a context-switch cost) and re-queued at the tail —
    processor sharing discretized at quantum granularity, with dataplane
    per-packet costs. With [quantum = infinity] it degenerates to
    centralized FCFS run-to-completion.

    Counters exposed through {!Iface.info}: ["preemptions"],
    ["preemptions_per_request"]. *)

val create :
  Engine.Sim.t ->
  Params.t ->
  quantum:float ->
  pool:Net.Request.pool ->
  conns:int ->
  respond:(Net.Request.t -> unit) ->
  ?consolidate:bool ->
  unit ->
  Iface.t
(** [quantum] is the maximum uninterrupted execution slice (µs); every
    preemption costs a 0.3 µs context switch (save/restore, queue
    traffic). Raises [Invalid_argument] if [quantum <= 0], or if [p]
    has straggler windows: slices are not tied to cores, so the model
    has no core to slow down.

    [consolidate] (default [false]) runs the workload-consolidation
    control plane (§5's other IX control-plane function, "energy
    proportionality [and] workload consolidation ... dynamically
    adjusting ... core allocation"): every 200 µs the controller
    measures utilization of the active cores and parks one core below
    50%, or unparks one above 85% (paying a 10 µs wakeup before the
    woken core serves). A centralized run queue makes this safe — parked
    cores simply stop pulling work. {!Iface.info} then additionally
    exposes ["avg_active_cores"] (time-weighted) and
    ["consolidation_windows"]. *)

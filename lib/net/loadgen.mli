(** Open-loop load generator (the reproduction's "mutilate").

    Generates RPC requests with Poisson inter-arrival times at a target
    aggregate rate, each on a uniformly random connection (§3.1: "incoming
    requests follow a Poisson inter-arrival time on randomly-selected
    connections"), with service demands drawn from a configurable
    distribution. Because it is open-loop, arrivals never wait for
    responses — a connection may accumulate several outstanding requests
    (the pipelining that §6.2 discusses).

    Latency is recorded client-side at response completion, but only for
    requests that arrive inside the measurement window (warmup and drain
    excluded). The generator also checks the paper's ordering guarantee:
    responses on one connection must come back in request order (§4.3).

    {b Resilience.} With a {!retry} policy the generator behaves like a
    production RPC client facing a lossy network or an overloaded server:
    each request is timed out, retransmitted after {!backoff}'s capped
    exponential backoff with jitter, and abandoned once the retry budget
    is spent.
    Responses are then de-duplicated: latency and {!goodput} count each
    {e logical} request once, from its first transmission to its first
    response. All backoff jitter comes from a dedicated stream split off
    the generator's [rng] at creation, so runs without retries are
    bit-identical to the pre-retry implementation. *)

type t

(** How arrivals pick their connection. [Uniform] is the paper's §3.1
    setup; [Hot_cold] models connection skew ("some clients request
    substantially more data than the average", §2.3's persistent
    imbalance): the first [hot_fraction] of connections receive
    [hot_load] of the traffic. *)
type conn_selection =
  | Uniform
  | Hot_cold of { hot_fraction : float; hot_load : float }

(** Client-side retry policy: the per-attempt timeout and the retry
    budget. The delay before each retransmission is {!backoff}'s. *)
type retry = {
  timeout : float;  (** per-attempt response timeout (µs), > 0 *)
  max_retries : int;  (** retransmissions after the first send, >= 0 *)
}

val retry : ?timeout:float -> ?max_retries:int -> unit -> retry
(** Defaults: 200µs timeout, 3 retries. Raises [Invalid_argument] on
    out-of-range fields. *)

val validate_retry : retry -> unit

val backoff : Engine.Rng.t -> attempt:int -> float
(** The delay (µs) before retransmission [attempt] (1-based): 50 µs
    doubling per attempt up to 800 µs, stretched by a uniform jitter
    factor in [1, 1.2) drawn from the stream. One draw per call; raises
    on [attempt < 1]. *)

val create :
  Engine.Sim.t ->
  rng:Engine.Rng.t ->
  pool:Request.pool ->
  conns:int ->
  rate:float ->
  service:Engine.Dist.t ->
  ?selection:conn_selection ->
  ?slo:float ->
  ?retry:retry ->
  unit ->
  t
(** [rate] is in requests per µs (e.g. 1.0 = 1 MRPS). The target server is
    attached afterwards with {!set_target}. [selection] defaults to
    [Uniform]. [pool] is the request arena handles are drawn from; the
    generator releases each handle at its first completion (a no-op
    unless the pool recycles).

    [slo] (µs, default infinity) is the latency bound {!goodput} counts
    against. [retry], when given, enables timeouts and retransmission. *)

val set_target : t -> (Request.t -> unit) -> unit
(** Where generated requests are delivered (the server's submit
    function). Must be called before {!start}. *)

val start : t -> warmup:float -> measure:float -> unit
(** Schedule the arrival process: requests are generated from sim-time now
    until [warmup + measure]; those arriving in [[warmup, warmup+measure))
    are measured. Run the simulation afterwards to completion. The
    {!tally} is reserved for λ + 4√λ + 16 samples, λ = rate × measure.
    Raises [Invalid_argument] unless [measure] is finite and positive and
    [warmup] finite and non-negative. *)

val complete : t -> Request.t -> unit
(** Called by the server when the response for [req] is on the wire.
    Records latency for measured requests and verifies per-connection
    ordering. Times travel in flat float slots, so a clean request's
    generation and completion allocate nothing. Completing a request twice — legitimate under packet
    duplication and client retries — is counted in
    {!duplicate_completions} and otherwise ignored. *)

val tally : t -> Stats.Tally.t
(** Latencies (µs) of measured, completed requests. With retries, one
    sample per {e logical} request, first send to first response. *)

val generated : t -> int
(** Total requests generated (including warmup, excluding
    retransmissions). *)

val measured_generated : t -> int

val measured_completed : t -> int
(** Distinct measured requests whose (first) response arrived inside the
    measurement window. *)

val order_violations : t -> int
(** Completions that came back out of order on their connection. Always 0
    for a correct system model on a fault-free network; packet reordering
    shows up here. Not tracked (always 0) when retries are enabled. *)

val duplicate_completions : t -> int
(** Responses for already-completed requests (network duplication, or a
    retransmission whose original also got served). *)

val retries : t -> int
(** Retransmissions sent. *)

val timeouts : t -> int
(** Attempts that timed out. *)

val retry_exhausted : t -> int
(** Requests abandoned after the full retry budget. *)

val throughput : t -> float
(** Achieved throughput: responses leaving the server {e during} the
    measurement window, per µs. Beyond saturation this plateaus at system
    capacity while latencies blow up. *)

val goodput : t -> float
(** Distinct measured requests completed inside the window {e and} within
    [slo] of their first send, per µs — the paper-facing "useful work"
    metric. Equals the measured completion rate when [slo] is infinite. *)

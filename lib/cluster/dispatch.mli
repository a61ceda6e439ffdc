(** The ToR dispatcher: one ingress point routing requests across the
    rack's servers, with optional failure detection, failover, and
    hedging.

    {b Credit accounting.} The dispatcher tracks each server's
    outstanding requests exactly from its own vantage point: +1 at
    dispatch, -1 at response (floored at zero). Timeouts do {e not}
    return credits — a request lost to a crash leaks its credit until
    the health layer declares the server [Down] and a later response
    triggers a resync to zero ([rack_credit_resyncs]). Policies rank
    servers on the {!Estimate} snapshot of this array (stale by the
    feedback delay); only JBSQ's bound check reads it exactly, because
    credits are an explicit ack channel rather than telemetry.

    {b Request path.} A choice hands {!Policy.choose} the routable
    servers as an int bit set and the {!Estimate.visible} array. Without
    detection or hedging, {!submit} and {!on_response} allocate nothing
    and make no clock call.

    {b JBSQ.} Under [Policy.Jbsq n], requests that find every healthy
    server at its bound wait in a central FIFO at the ToR and are handed
    out as responses free slots — the bounded single queue of nanoPU.
    Under every other policy a request that finds no routable server is
    dropped ([rack_no_route_drops]); a client retry layer may resend it.

    {b Detection and failover.} With [detect], every primary dispatch
    arms a response timeout ([detect.timeout]). On expiry the dispatcher
    notes the timeout with {!Health} and, while the failover budget
    ([detect.max_retries]) lasts, re-dispatches a copy of the request to a
    different server after {!Net.Loadgen.backoff}'s jittered delay. Copies
    share the logical id, arrival, and measured flag, so client-side
    latency spans from the {e first} send; the dispatcher de-duplicates
    so exactly one response per logical request reaches [respond].
    While a server is [Down], one arrival per probe interval is routed to
    it as the liveness probe, bypassing the policy and the JBSQ bound —
    queue-aware policies would never volunteer a down server (its leaked
    credits keep its estimate high), and a dead server's stuck credits
    must not block its own liveness check.

    {b Hedging.} With [hedge] (µs), a request still unanswered after
    that delay is speculatively duplicated to the best other server;
    whichever copy responds first wins ([rack_hedge_wins]). *)

type detect = Net.Loadgen.retry
(** [timeout] is the detection timeout, [max_retries] the failover
    budget. *)

type t

val create :
  Engine.Sim.t ->
  pool:Net.Request.pool ->
  n:int ->
  policy:Policy.t ->
  rng:Engine.Rng.t ->
  ?feedback_delay:float ->
  ?feedback_until:float ->
  ?detect:detect ->
  ?hedge:float ->
  respond:(Net.Request.t -> unit) ->
  unit ->
  t
(** [rng] must be the dispatcher's own stream: it is drawn from only by
    randomized policies (and never when [n = 1]) and by failover backoff
    jitter. Raises [Invalid_argument] unless [1 <= n <= 62] (routable
    sets are int bit sets). [feedback_delay] (default 0 = exact estimates) and
    [feedback_until] bound the estimator. [respond] receives exactly one
    response per logical request. Servers attach via {!set_forward}. *)

val set_forward : t -> (int -> Net.Request.t -> unit) -> unit
(** [set_forward t f]: dispatching to server [i] calls [f i req]. The
    rack composes crash filters and link fault layers inside [f]. *)

val submit : t -> Net.Request.t -> unit
(** Ingress: route one request. *)

val on_response : t -> server:int -> Net.Request.t -> unit
(** A response from server [i] reached the ToR: return its credit,
    update health, de-duplicate, forward to [respond], and drain the
    JBSQ FIFO into any freed slots. *)

val tor_depth : t -> int
(** Current JBSQ central-FIFO depth (0 unless the policy is [Jbsq]). *)

val health : t -> Health.t option
(** [Some] iff created with [detect]. *)

val info : t -> (string * float) list
(** Counters: [rack_dispatched] (+ per-server [rack_dispatched_s<i>]),
    [rack_tor_queued]/[rack_tor_peak], [rack_no_route_drops],
    [rack_failovers]/[rack_failover_exhausted],
    [rack_hedges]/[rack_hedge_wins], [rack_duplicates_dropped],
    [rack_credit_resyncs], [est_refreshes], plus {!Health.info} when
    detection is on. *)

(** Inter-server dispatch policies for the rack tier (RackSched's design
    space, arxiv 2010.05969).

    The ToR dispatcher picks a server for every incoming request using one
    of five policies:

    - {!Static_hash} — RSS-style flow-consistent hashing: the Toeplitz
      hash of the connection picks the server, exactly as a NIC picks a
      receive queue. Oblivious to load; the baseline that two-level
      scheduling must beat.
    - {!Random} — uniformly random among routable servers.
    - {!Po2} — power-of-two-choices: sample two distinct servers, send to
      the one with the shorter {e estimated} queue.
    - {!Jsq} — join-shortest-queue over the estimates.
    - {!Jbsq} [n] — bounded single queue (nanoPU's JBSQ(n), arxiv
      2010.12114): at most [n] requests outstanding per server, the rest
      held in a central FIFO at the ToR and handed out as responses free
      slots. The dispatcher enforces the bound with exact credit
      accounting; the {e ranking} among non-full servers still uses the
      (possibly stale) estimates.

    Queue estimates are supplied by {!Estimate} and go stale with the
    configured feedback delay; the policies never see ground truth unless
    the delay is zero. *)

type t =
  | Static_hash
  | Random
  | Po2
  | Jsq
  | Jbsq of int  (** bound on outstanding requests per server, >= 1 *)

val name : t -> string
(** ["hash"], ["random"], ["po2"], ["jsq"], ["jbsq-<n>"]. *)

val validate : t -> unit
(** Raises [Invalid_argument] on [Jbsq n] with [n < 1]. *)

val bound : t -> int
(** Per-server outstanding bound: [n] for [Jbsq n], [max_int] otherwise. *)

val choose :
  t ->
  rss:Net.Rss.t ->
  rng:Engine.Rng.t ->
  estimates:float array ->
  routable:int ->
  n:int ->
  conn:int ->
  int
(** Pick a server in [0, n) for a request on [conn], or [-1] when no
    server is routable; allocates nothing. Bit [i] of [routable] (bits
    [n] and up are ignored) means server [i] may take the request: the
    dispatcher clears servers the health layer considers down and, under
    JBSQ, servers at their bound. [estimates.(i)] is server [i]'s
    dispatcher-visible queue estimate ({!Estimate.visible}). [rss] must
    have been created with [~queues:n]. Randomized policies map a draw
    [j] to the [j]-th set bit, draw only from [rng], and only when
    [n > 1] and more than one server is routable, so a 1-server rack
    consumes no draws whatever the policy — the degeneracy the cluster
    tests pin down. *)

(** Idealized, zero-overhead queueing models (§2.3, Figure 1/2).

    Four open-loop models in Kendall notation, all with Poisson arrivals:

    - centralized-FCFS, M/G/n/FCFS: one global FIFO feeding n processors —
      idealizes floating-connection event-driven servers and ZygOS;
    - partitioned-FCFS, n×M/G/1/FCFS: a random selector in front of n
      single-processor FIFOs — idealizes shared-nothing dataplanes (IX) and
      partitioned epoll servers;
    - M/G/n/PS: n processors perfectly shared by all jobs (each job runs at
      rate min(1, n/k) with k jobs present) — idealizes thread-per-connection
      on a rebalancing time-sharing OS;
    - n×M/G/1/PS: random selector in front of n single-processor PS
      stations.

    These models have no system overheads of any kind; they provide the
    grey upper-bound lines of Figures 3 and 7 and the four curves of
    Figure 2. The FCFS models are exact recursions over the job stream:
    a job starts at the later of its arrival and the earliest free time
    of its station's processors (Kiefer–Wolfowitz for M/G/n, Lindley for
    each M/G/1). The PS models are recursions too: a job's arrival first
    retires its station's earlier completions, then shares the station's
    processors with the jobs present until the next event there. All
    four draw the same arrivals, service demands and station choices for
    a seed. *)

type policy = Fcfs | Ps

type topology = Central | Partitioned

type spec = { servers : int; policy : policy; topology : topology }

val name : spec -> string
(** Kendall-style label, e.g. ["M/G/16/FCFS"] or ["16xM/G/1/PS"]. *)

type result = {
  latencies : Stats.Tally.t;  (** sojourn times of measured jobs *)
  throughput : float;  (** measured completions per unit time *)
}

val simulate :
  spec ->
  service:Engine.Dist.t ->
  load:float ->
  requests:int ->
  seed:int ->
  result
(** [simulate spec ~service ~load ~requests ~seed] runs the model at
    offered load [load] (fraction of saturation; λ = load·n/S̄) until
    [requests] measured jobs complete. A warmup of [requests/5] jobs
    precedes measurement. Deterministic in [seed]. Raises
    [Invalid_argument] when [load] is outside (0, 1.05) or NaN, or when
    the arrival rate is NaN (a NaN service mean). The highest load that
    meets an SLO is [Experiments.Run.max_load_at_slo] over the model
    kinds. *)

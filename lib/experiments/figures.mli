(** Regeneration of every table and figure in the paper's evaluation
    (§2.3, §3.4, §6, §7), with the same rows/series the paper plots.

    Every target is describe → resolve → render. It describes its
    headers, notes and tables, each table row holding its label cells and
    the {!Sweep} points that measure its value cells. One resolve step
    runs all of the target's points in a single sweep on [jobs] domains
    (each claims the next point from one atomic counter; [jobs = 1]
    stays in the calling domain) and
    fills the rows in enumeration order, and {!Output.render} prints the
    resulting blocks. Per-point seeds are derived from the point's stable
    key (see {!Sweep.point_seed}), so the blocks are identical for every
    [jobs] value. fig10a and table1 build their blocks after their own
    run: fig10a times real Silo work, and table1's speedup column divides
    by its first row. Each target's description sits at its definition.

    [scale] multiplies the per-point measured-request budget (1.0 = the
    defaults recorded in EXPERIMENTS.md; 0.2 for a quick pass). *)

type target = jobs:int -> scale:float -> Output.block list

val silo_service_samples : scale:float -> float array
(** Measured service times (µs) of a real TPC-C run on the Silo engine,
    normalized to the paper's 33µs mean (see EXPERIMENTS.md); memoized so
    fig10a/fig10b/table1 share one run. *)

type memcached = Etc | Usr
(** Figure 9's two memcached workloads: ETC, the general-purpose pool
    (37 B keys, values of tens of bytes to a few KB, 3.3% SET), and USR
    (20 B keys, 2 B values, 99.8% GET). *)

val memcached_service : memcached -> samples:int -> Engine.Dist.t
(** The empirical service-time distribution of [samples] requests drawn
    from one fixed-seed stream, each priced by a cost model: a GET costs
    0.7 µs plus 0.1 ns per key byte and 64 B, a SET 1 µs plus 0.2 ns per
    key and value byte. Raises [Invalid_argument] when [samples < 1]. *)

val table1 : samples:float array -> target
(** Table 1 over Silo service-time [samples] (µs); the ["table1"] target
    runs it on {!silo_service_samples}. *)

val all_targets : (string * target) list
(** Name → target, in run order (the [zygos] CLI's registry). *)

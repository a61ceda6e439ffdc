(* Every figure is data: describe -> resolve -> render. A target
   describes its headers, notes and tables, and each table row holds its
   label cells plus the sweep points that measure its value cells.
   [resolve] runs all of a target's points in one [Sweep.run] (on [jobs]
   domains, each claiming the next point from one atomic counter) and
   fills the rows in enumeration order; [Output.render] prints the
   blocks. Each point's randomness comes from a seed derived from
   [master_seed] and the point's stable key, so the output is
   byte-identical for every [jobs] value. *)

module Dist = Engine.Dist
module Rng = Engine.Rng
open Output

let requests ~scale base = Int.max 4_000 (int_of_float (float_of_int base *. scale))

let cores = 16

let master_seed = 42

(* The three service-time distributions of §3.4/§6.1, by mean. *)
let dists = [ Dist.deterministic; Dist.exponential; (fun mean -> Dist.bimodal1 ~mean) ]

(* ---- Describe and resolve ---- *)

(* A table row: its label cells, then the cells its points measure, in
   point order. *)
type row = cell list * cell list Sweep.point list

(* A described target: finished blocks, and tables (columns, rows) whose
   rows still wait on their points. *)
type part = Block of block | Pending of string list * row list

let resolve ~jobs parts =
  let points =
    List.concat_map (function Pending (_, rows) -> List.concat_map snd rows | Block _ -> []) parts
  in
  let results = Queue.of_seq (List.to_seq (Sweep.run ~jobs ~seed:master_seed points)) in
  (* List.map and List.concat_map apply their function left to right, so
     the rows take the results in enumeration order. *)
  let fill (labels, points) = labels @ List.concat_map (fun _ -> Queue.take results) points in
  List.map
    (function
      | Block b -> b
      | Pending (columns, rows) -> Table { columns; rows = List.map fill rows })
    parts

let num fmt x = Num (fmt, x)

let sys system = Text (Run.system_name system)

(* [point "fig8/%s/%g" name load run]: a sweep point keyed by the
   formatted string. *)
let point fmt = Printf.ksprintf (fun key run -> Sweep.point ~key run) fmt

let info p key = Option.value ~default:0. (Run.info_value p key)

(* The 16-core configuration most targets measure: [base] requests at
   scale 1. *)
let cfg ~scale ?(base = 25_000) ?rpc_packets ?selection ~seed system service =
  Run.config ~system ~service ~cores ~requests:(requests ~scale base) ?rpc_packets ?selection
    ~seed ()

(* One row per [x] and load, labelled [name x] and the load (in [fmt])
   and measured by one point keyed [key/name x/load]. *)
let grid ~key ~name ?(fmt = F2) xs loads measure =
  List.concat_map
    (fun x ->
      List.map
        (fun load ->
          ( [ Text (name x); num fmt load ],
            [ point "%s/%s/%g" key (name x) load (measure x load) ] ))
        loads)
    xs

(* ---- Figure 2 ---- *)

(* Queueing-model p99 vs load, 4 models × 4 distributions (n = 16). *)
let fig2 ~scale =
  let open Models.Queueing in
  let specs =
    [
      { servers = cores; policy = Ps; topology = Partitioned };
      { servers = cores; policy = Fcfs; topology = Partitioned };
      { servers = cores; policy = Fcfs; topology = Central };
      { servers = cores; policy = Ps; topology = Central };
    ]
  in
  let loads = [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 0.95 ] in
  Block (Header "Figure 2: p99 latency vs load, idealized queueing models (n=16, S=1)")
  :: List.concat_map
       (fun dist ->
         [
           Block (Subheader ("distribution: " ^ Dist.name dist));
           Pending
             ( "load" :: List.map name specs,
               List.map
                 (fun load ->
                   ( [ num F2 load ],
                     List.map
                       (fun spec ->
                         point "fig2/%s/%s/%g" (Dist.name dist) (name spec) load (fun ~seed ->
                             let r =
                               simulate spec ~service:dist ~load
                                 ~requests:(requests ~scale 40_000) ~seed
                             in
                             [ num F2 (Stats.Tally.p99 r.latencies) ]))
                       specs ))
                 loads );
         ])
       [
         Dist.deterministic 1.0;
         Dist.exponential 1.0;
         Dist.bimodal1 ~mean:1.0;
         Dist.bimodal2 ~mean:1.0;
       ]

(* ---- Max-load-at-SLO figures (3 and 7) ---- *)

let slo_figure ~figkey ~scale ~title ~service_means ~systems =
  Block (Header title)
  :: List.concat_map
       (fun make_dist ->
         [
           Block (Subheader ("distribution: " ^ Dist.name (make_dist 1.0)));
           Pending
             ( "S(us)" :: List.map Run.system_name systems,
               List.map
                 (fun mean ->
                   ( [ num G mean ],
                     List.map
                       (fun system ->
                         let service = make_dist mean in
                         point "%s/%s/%g/%s" figkey (Dist.name service) mean
                           (Run.system_name system) (fun ~seed ->
                             let cfg = cfg ~scale ~seed system service in
                             let load, _ =
                               Run.max_load_at_slo cfg ~slo_p99:(10. *. mean) ~resolution:0.02 ()
                             in
                             [ num Pct load ]))
                       systems ))
                 service_means );
         ])
       dists

(* Baselines: max load meeting p99 <= 10·S̄ as a function of S̄ —
   Linux-partitioned/floating, IX, and the two model bounds. *)
let fig3 ~scale =
  slo_figure ~figkey:"fig3" ~scale
    ~title:"Figure 3: max load @ SLO (p99 <= 10*S) vs service time -- baselines"
    ~service_means:[ 5.; 10.; 25.; 50.; 100.; 200. ]
    ~systems:
      [
        Run.Model_central_fcfs;
        Run.Model_partitioned_fcfs;
        Run.Linux_floating;
        Run.Linux_partitioned;
        Run.Ix 1;
      ]

(* Max load @ SLO vs S̄ with ZygOS included (1–50µs). *)
let fig7 ~scale =
  slo_figure ~figkey:"fig7" ~scale
    ~title:"Figure 7: max load @ SLO (p99 <= 10*S) vs service time -- with ZygOS"
    ~service_means:[ 2.; 5.; 10.; 15.; 20.; 30.; 40.; 50. ]
    ~systems:
      [
        Run.Model_central_fcfs;
        Run.Model_partitioned_fcfs;
        Run.Zygos;
        Run.Linux_floating;
        Run.Linux_partitioned;
        Run.Ix 1;
      ]

(* ---- Load-sweep figures (6, 9, 10b) ---- *)

(* System × load: throughput, p99 and whether p99 meets [slo]. *)
let slo_sweep ~figkey ~scale ~service ~systems ~loads ~slo ?rpc_packets () =
  Pending
    ( [ "system"; "load"; "tput(MRPS)"; "p99(us)"; Printf.sprintf "SLO %.0fus" slo ],
      grid ~key:figkey ~name:Run.system_name systems loads (fun system load ~seed ->
          let p = Run.run_point (cfg ~scale ?rpc_packets ~seed system service) ~load in
          [ num F3 p.throughput; num F1 p.p99; num (Meets slo) p.p99 ]) )

(* p99 latency vs throughput, {fixed, exp, bimodal-1} × {10µs, 25µs}:
   Linux-floating, IX, ZygOS, ZygOS-no-interrupts, M/G/16/FCFS. *)
let fig6 ~scale =
  let loads = [ 0.2; 0.35; 0.5; 0.6; 0.7; 0.8; 0.85; 0.9; 0.95 ] in
  let systems =
    [ Run.Model_central_fcfs; Run.Linux_floating; Run.Ix 1; Run.Zygos; Run.Zygos_no_interrupts ]
  in
  Block
    (Header
       "Figure 6: p99 latency vs throughput (SLO = 10*S), three distributions x {10us, 25us}")
  :: List.concat_map
       (fun mean ->
         List.concat_map
           (fun make_dist ->
             let service = make_dist mean in
             [
               Block (Subheader (Printf.sprintf "%s, S = %gus" (Dist.name service) mean));
               slo_sweep
                 ~figkey:(Printf.sprintf "fig6/%s/%g" (Dist.name service) mean)
                 ~scale ~service ~systems ~loads ~slo:(10. *. mean) ();
             ])
           dists)
       [ 10.; 25. ]

(* ---- Figure 8 ---- *)

(* Steal rate vs throughput, ZygOS with and without IPIs (exp, 25µs). *)
let fig8 ~scale =
  let service = Dist.exponential 25. in
  let loads = [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.77; 0.85; 0.9; 0.95 ] in
  [
    Block (Header "Figure 8: steal rate vs throughput (exponential, S = 25us)");
    Pending
      ( [ "system"; "load"; "tput(MRPS)"; "steals/event"; "IPIs/event" ],
        grid ~key:"fig8" ~name:Run.system_name [ Run.Zygos; Run.Zygos_no_interrupts ] loads
          (fun system load ~seed ->
            let p = Run.run_point (cfg ~scale ~seed system service) ~load in
            let events = info p "local_events" +. info p "stolen_events" in
            let ipis_per_event = if events = 0. then 0. else info p "ipis_sent" /. events in
            [ num F3 p.throughput; num Pct (info p "steal_fraction"); num F3 ipis_per_event ]) );
  ]

(* ---- Figure 9 ---- *)

(* The Facebook memcached workloads (Atikoglu et al., SIGMETRICS'12) as
   mutilate models them. USR: tiny records, 20 B keys and 2 B values,
   99.8% GET, the closest real workload to a fixed service time. ETC:
   the general-purpose pool, 37 B keys and values from tens of bytes to
   a few KB, 3.3% SET. *)
type memcached = Etc | Usr

let get_fraction = function Etc -> 0.967 | Usr -> 0.998

(* Each sample draws, in this order from one seed-11 stream: the key's
   Zipf rank (drawn but not read: the cost depends only on the key's
   length, and dropping the draw would move every sample), the GET coin
   and, for an ETC SET, the value size (a discretized
   generalized-Pareto-like mix). Cost model: hash lookup and protocol
   handling ~0.7 µs, SETs pay an allocation surcharge, and bytes move at
   ~10 GB/s, which lands both means below 2 µs, as §6.2 states. *)
let memcached_service kind ~samples =
  if samples < 1 then invalid_arg "Figures.memcached_service: samples < 1";
  let key = match kind with Etc -> 37 | Usr -> 20 in
  let rng = Rng.create ~seed:11 in
  Dist.empirical
    (Array.init samples (fun _ ->
         ignore (Rng.float rng : float);
         if Rng.bernoulli rng (get_fraction kind) then 0.7 +. (0.0001 *. float_of_int (key + 64))
         else
           let value =
             match kind with
             | Usr -> 2
             | Etc ->
                 let u = Rng.float rng in
                 if u < 0.40 then Rng.int_range rng 11 50
                 else if u < 0.75 then Rng.int_range rng 51 300
                 else if u < 0.95 then Rng.int_range rng 301 1024
                 else Rng.int_range rng 1025 4096
           in
           1.0 +. (0.0002 *. float_of_int (key + value))))

(* memcached ETC/USR: p99 vs throughput for Linux, IX B=1, IX B=64,
   ZygOS. *)
let fig9 ~scale =
  (* For sub-2µs tasks the per-request overheads dominate: real systems
     saturate at 30–60% of the zero-overhead capacity, so the sweep
     covers the low-load range (the paper's Fig. 9 x-axis is absolute
     MRPS for the same reason). *)
  let loads = [ 0.05; 0.1; 0.15; 0.2; 0.25; 0.3; 0.35; 0.4; 0.45; 0.5; 0.55; 0.6 ] in
  let systems = [ Run.Linux_floating; Run.Ix 1; Run.Ix 64; Run.Zygos ] in
  Block (Header "Figure 9: memcached ETC and USR (SLO 500us at p99)")
  :: List.concat_map
       (fun kind ->
         let service = memcached_service kind ~samples:20_000 in
         let name = match kind with Etc -> "ETC" | Usr -> "USR" in
         [
           Block
             (Subheader
                (Printf.sprintf "%s: mean task %.2fus, GET fraction %.1f%%" name
                   (Dist.mean service) (100. *. get_fraction kind)));
           slo_sweep ~figkey:("fig9/" ^ name) ~scale ~service ~systems ~loads ~slo:500. ();
         ])
       [ Etc; Usr ]

(* ---- Silo / TPC-C (Figures 10a, 10b, Table 1) ---- *)

let paper_silo_mean_us = 33.

type silo_run = {
  samples : float array;  (* normalized service times, µs *)
  by_type : (string * float array) list;
  raw_mean : float;  (* measured mean on this machine, µs *)
}

let silo_run_memo : (float * silo_run) option ref = ref None

(* zygos.allow determinism: fig10a is the one real-time measurement in the
   suite — it times actual Silo/TPC-C executions on this machine, so the
   wall clock is the measurement, not simulation state. *)
let[@zygos.allow "determinism"] run_silo ~scale =
  match !silo_run_memo with
  | Some (s, run) when s >= scale -> run
  | _ ->
      let tpcc = Silo.Tpcc.load () in
      let worker = Silo.Db.worker () in
      let rng = Engine.Rng.create ~seed:1234 in
      let n = requests ~scale 30_000 in
      let all = Stats.Tally.create () in
      let per_type = Hashtbl.create 8 in
      for _ = 1 to n do
        let tx = Silo.Tpcc.standard_mix rng in
        let t0 = Unix.gettimeofday () in
        (match Silo.Tpcc.execute tpcc worker rng tx with
        | Silo.Tpcc.Committed | Silo.Tpcc.Rolled_back | Silo.Tpcc.Conflicted -> ());
        let us = (Unix.gettimeofday () -. t0) *. 1e6 in
        Stats.Tally.record all us;
        let tally =
          match Hashtbl.find_opt per_type (Silo.Tpcc.tx_name tx) with
          | Some t -> t
          | None ->
              let t = Stats.Tally.create () in
              Hashtbl.add per_type (Silo.Tpcc.tx_name tx) t;
              t
        in
        Stats.Tally.record tally us
      done;
      let raw_mean = Stats.Tally.mean all in
      (* Normalize to the paper's 33µs mean service time so the 1000µs SLO
         of §6.3 carries over directly; the *shape* is as measured. *)
      let k = paper_silo_mean_us /. raw_mean in
      let normalize tally = Array.map (fun x -> x *. k) (Stats.Tally.samples tally) in
      let run =
        {
          samples = normalize all;
          by_type =
            Hashtbl.fold (fun name tally acc -> (name, normalize tally) :: acc) per_type [];
          raw_mean;
        }
      in
      silo_run_memo := Some (scale, run);
      run

let silo_service_samples ~scale = (run_silo ~scale).samples

let percentile samples p =
  let t = Stats.Tally.create () in
  Array.iter (Stats.Tally.record t) samples;
  Stats.Tally.percentile t p

(* CCDF of Silo/TPC-C service time per transaction type and for the mix.
   One real-time measured execution, not a simulation grid: nothing to
   parallelize ([jobs] is ignored), and the Unix.gettimeofday timings
   would not be deterministic anyway. *)
let fig10a ~jobs:_ ~scale =
  let run = run_silo ~scale in
  let row (name, samples) =
    let n = Array.length samples in
    Text name
    :: num Int (float_of_int n)
    :: num F1 (Array.fold_left ( +. ) 0. samples /. float_of_int n)
    :: List.map (fun p -> num F1 (percentile samples p)) [ 50.; 90.; 99.; 99.9 ]
  in
  [
    Header "Figure 10a: CCDF of Silo/TPC-C service time (real execution)";
    Note
      (Printf.sprintf
         "measured mean on this machine: %.1fus; samples normalized to the paper's %.0fus mean"
         run.raw_mean paper_silo_mean_us);
    Table
      {
        columns = [ "transaction"; "count"; "mean"; "p50"; "p90"; "p99"; "p99.9" ];
        rows =
          List.map row
            (("Mix", run.samples)
            :: List.sort (fun (a, _) (b, _) -> String.compare a b) run.by_type);
      };
    Subheader "Mix CCDF (service time us, P[X > x])";
    Table
      {
        columns = [ "x(us)"; "P[X>x]" ];
        rows =
          List.map
            (fun { Stats.Ccdf.value; prob } -> [ num F1 value; Text (Printf.sprintf "%.4f" prob) ])
            (Stats.Ccdf.of_samples ~points:14 run.samples);
      };
  ]

let silo_systems = [ Run.Linux_floating; Run.Ix 1; Run.Zygos ]

let silo_slo = 1000.

(* TPC-C requests/responses exceed one MTU; model them as 3 packets each
   way (the per-packet costs multiply; see EXPERIMENTS.md §Calibration). *)
let silo_rpc_packets = 3

(* Silo/TPC-C p99 end-to-end latency vs throughput on Linux, IX, ZygOS. *)
let fig10b ~scale =
  [
    Block
      (Header "Figure 10b: Silo/TPC-C p99 end-to-end latency vs throughput (SLO 1000us)");
    slo_sweep ~figkey:"fig10b" ~scale
      ~service:(Dist.empirical (silo_service_samples ~scale))
      ~systems:silo_systems
      ~loads:[ 0.2; 0.35; 0.5; 0.6; 0.7; 0.8; 0.85; 0.9; 0.95 ]
      ~slo:silo_slo ~rpc_packets:silo_rpc_packets ();
  ]

(* Max load @ 1000µs SLO, speedups, and tails at 50/75/90% of max. The
   speedup column divides by the first row, so the table is built after
   its own sweep. A system that misses an SLO even at 2% load reads
   0 KTPS there, and its tails and any speedup over it read "-": no point
   runs at load 0. *)
let table1 ~samples ~jobs ~scale =
  let service = Dist.empirical samples in
  let service_p99 = percentile samples 99. in
  let slo5 = 5. *. service_p99 in
  let capacity = float_of_int cores /. Dist.mean service in
  (* One point per system: the 1000µs bisection, the three tail probes at
     fractions of the max load, and the 5×p99 bisection — all under the
     same derived seed so the table is one coherent experiment. *)
  let results =
    Sweep.run ~jobs ~seed:master_seed
      (List.map
         (fun system ->
           point "table1/%s" (Run.system_name system) (fun ~seed ->
               let cfg = cfg ~scale ~rpc_packets:silo_rpc_packets ~seed system service in
               let max_tput slo =
                 let load, best = Run.max_load_at_slo cfg ~slo_p99:slo ~resolution:0.02 () in
                 (load, if load > 0. then best.Run.throughput else 0.)
               in
               let max_load, tput = max_tput silo_slo in
               let tails =
                 List.map
                   (fun frac ->
                     if max_load > 0. then Some (Run.run_point cfg ~load:(max_load *. frac))
                     else None)
                   [ 0.5; 0.75; 0.9 ]
               in
               let _, tput5 = max_tput slo5 in
               (tput, tails, tput5)))
         silo_systems)
  in
  let ktps tput = Text (Printf.sprintf "%.0f KTPS" (1000. *. tput)) in
  let tail = function
    | Some (p : Run.point) ->
        Text
          (Printf.sprintf "%.0fus (%.1fx) @%.0f KTPS" p.p99 (p.p99 /. service_p99)
             (1000. *. p.throughput))
    | None -> Text "-"
  in
  let linux_tput, _, _ = List.hd results in
  [
    Header "Table 1: Silo/TPC-C max load @ 1000us SLO and tails at 50/75/90% of max";
    Note
      (Printf.sprintf "zero-overhead capacity: %.0f KTPS; service p99 = %.0fus"
         (1000. *. capacity) service_p99);
    Table
      {
        columns = [ "system"; "max load@SLO"; "speedup"; "tail@50%"; "tail@75%"; "tail@90%" ];
        rows =
          List.map2
            (fun system (tput, tails, _) ->
              sys system :: ktps tput
              :: Text (if linux_tput > 0. then Printf.sprintf "%.2fx" (tput /. linux_tput) else "-")
              :: List.map tail tails)
            silo_systems results;
      };
    (* Our measured TPC-C service tail is heavier than the paper's (p99
       here vs 203µs there), so the fixed 1000µs SLO is a much tighter
       multiple of p99 (2.7x vs the paper's ~5x) — which is the §7
       tradeoff. Also report max load at the paper's SLO-to-tail ratio. *)
    Subheader
      (Printf.sprintf "same experiment at the paper's SLO-to-tail ratio (SLO = 5 x p99 = %.0fus)"
         slo5);
    Table
      {
        columns = [ "system"; "max load@5xp99" ];
        rows =
          List.map2 (fun system (_, _, tput5) -> [ sys system; ktps tput5 ]) silo_systems results;
      };
  ]

(* ---- Figure 11 ---- *)

(* IX B=1 / B=64 / ZygOS under 100µs and 1000µs SLOs (fixed 10µs). *)
let fig11 ~scale =
  let service = Dist.deterministic 10. in
  let systems = [ Run.Ix 64; Run.Ix 1; Run.Zygos ] in
  [
    Block
      (Header
         "Figure 11: SLO choice (100us vs 1000us), fixed 10us tasks -- IX B=1, IX B=64, ZygOS");
    Pending
      ( [ "system"; "load"; "tput(MRPS)"; "p99(us)"; "SLO 100us"; "SLO 1000us" ],
        grid ~key:"fig11" ~name:Run.system_name systems
          [ 0.3; 0.5; 0.65; 0.8; 0.85; 0.9; 0.93; 0.95; 0.97 ]
          (fun system load ~seed ->
            let p = Run.run_point (cfg ~scale ~seed system service) ~load in
            [ num F3 p.throughput; num F1 p.p99; num (Meets 100.) p.p99; num (Meets 1000.) p.p99 ])
      );
    Block (Subheader "max throughput under each SLO");
    Pending
      ( [ "system"; "MRPS @100us"; "MRPS @1000us" ],
        List.map
          (fun system ->
            ( [ sys system ],
              [
                point "fig11/best/%s" (Run.system_name system) (fun ~seed ->
                    let best slo =
                      let _, p =
                        Run.max_load_at_slo (cfg ~scale ~seed system service) ~slo_p99:slo
                          ~resolution:0.02 ()
                      in
                      num F3 p.throughput
                    in
                    [ best 100.; best 1000. ]);
              ] ))
          systems );
  ]

(* ---- Ablations (DESIGN.md §5) ---- *)

(* Ablation: randomized vs round-robin idle-loop victim order. *)
let ablate_poll ~scale =
  let service = Dist.exponential 10. in
  [
    Block (Header "Ablation: randomized vs round-robin steal-victim order (exp, 10us)");
    Pending
      ( [ "load"; "p99 randomized"; "p99 round-robin" ],
        List.map
          (fun load ->
            ( [ num F2 load ],
              List.map
                (fun (order, system) ->
                  point "ablate-poll/%s/%g" order load (fun ~seed ->
                      [ num F1 (Run.run_point (cfg ~scale ~seed system service) ~load).p99 ]))
                [ ("random", Run.Zygos); ("rr", Run.Zygos_round_robin) ] ))
          [ 0.5; 0.7; 0.8; 0.85; 0.9 ] );
  ]

(* Ablation: IX batching bound B and ZygOS receive-batch sweep. *)
let ablate_batch ~scale =
  let service = Dist.deterministic 10. in
  [
    Block (Header "Ablation: IX bounded-batching B sweep (fixed 10us tasks)");
    Pending
      ( [ "batch"; "load"; "tput(MRPS)"; "p99(us)" ],
        List.concat_map
          (fun b ->
            List.map
              (fun load ->
                ( [ Text (Printf.sprintf "B=%d" b); num F2 load ],
                  [
                    point "ablate-batch/b%d/%g" b load (fun ~seed ->
                        let p =
                          Run.run_point (cfg ~scale ~base:20_000 ~seed (Run.Ix b) service) ~load
                        in
                        [ num F3 p.throughput; num F1 p.p99 ]);
                  ] ))
              [ 0.5; 0.7; 0.85; 0.93 ])
          [ 1; 2; 8; 64 ] );
  ]

(* Extension (paper §2.3 Observation 2 / §7): FCFS is tail-optimal only
   for low dispersion. A preemptive centralized scheduler (quantum +
   switch cost) — the design direction of the follow-up Shinjuku line —
   recovers the PS advantage on bimodal-2 at the price of
   context-switch overhead on benign workloads: Observation 2 of §2.3
   turned into a system. *)
let ext_preempt ~scale =
  let systems = [ Run.Ix 1; Run.Zygos; Run.Preemptive 5.; Run.Preemptive 1. ] in
  Block
    (Header "Extension: preemptive scheduling vs FCFS under extreme dispersion (S = 10us)")
  :: List.concat_map
       (fun (label, service) ->
         [
           Block (Subheader label);
           Pending
             ( [ "system"; "load"; "p99(us)"; "p50(us)"; "preempts/req" ],
               grid ~key:("ext-preempt/" ^ Dist.name service) ~name:Run.system_name systems
                 [ 0.3; 0.5; 0.7 ] (fun system load ~seed ->
                   let p = Run.run_point (cfg ~scale ~seed system service) ~load in
                   [ num F1 p.p99; num F1 p.p50; num F2 (info p "preemptions_per_request") ]) );
         ])
       [
         ("bimodal-2 (0.1% of requests are 500x the mean)", Dist.bimodal2 ~mean:10.);
         ("deterministic (preemption cannot help, only cost)", Dist.deterministic 10.);
       ]

(* Extension (§5 "control plane interactions", left as future work by
   the paper): a control plane that re-programs the RSS indirection
   table to fight persistent connection skew, vs static IX (suffers) and
   ZygOS's work stealing (absorbs it). *)
let ext_rebalance ~scale =
  let service = Dist.exponential 10. in
  let selection = Net.Loadgen.Hot_cold { hot_fraction = 0.05; hot_load = 0.5 } in
  [
    Block (Header "Extension: RSS control plane under persistent connection skew (exp, S = 10us)");
    Block (Note "skew: 5% of connections carry 50% of the load; rebalance window 200us");
    Pending
      ( [ "system"; "load"; "p99(us)"; "tput(MRPS)"; "slot moves"; "order violations" ],
        grid ~key:"ext-rebalance" ~name:Run.system_name
          [ Run.Ix 1; Run.Ix_rebalanced; Run.Zygos ]
          [ 0.3; 0.5; 0.65; 0.8 ]
          (fun system load ~seed ->
            let p = Run.run_point (cfg ~scale ~selection ~seed system service) ~load in
            [
              num F1 p.p99;
              num F3 p.throughput;
              num Int (info p "rebalance_moves");
              num Int (float_of_int p.order_violations);
            ]) );
  ]

(* Extension (§5): workload consolidation — the IX control plane's
   energy-proportionality function, dynamic core parking/unparking by
   measured utilization — on the centralized preemptive system, where
   core parking is safe, vs a static 16-core allocation. *)
let ext_consolidate ~scale =
  let service = Dist.exponential 10. in
  let measure ~consolidate load =
    point "ext-consolidate/%s/%g" (if consolidate then "on" else "off") load (fun ~seed ->
        let system =
          if consolidate then Run.Preemptive_consolidated 10. else Run.Preemptive 10.
        in
        let p = Run.run_point (cfg ~scale ~seed system service) ~load in
        let avg_cores =
          Option.value ~default:(float_of_int cores) (Run.info_value p "avg_active_cores")
        in
        num F1 p.p99 :: (if consolidate then [ num F1 avg_cores ] else []))
  in
  [
    Block
      (Header
         "Extension: workload consolidation (core parking) vs static 16 cores (exp, S = 10us)");
    Pending
      ( [ "load"; "p99 static(us)"; "p99 consolidated(us)"; "avg active cores" ],
        List.map
          (fun load ->
            ([ num F2 load ], [ measure ~consolidate:false load; measure ~consolidate:true load ]))
          [ 0.1; 0.2; 0.35; 0.5; 0.7; 0.85 ] );
  ]

(* Chaos: the robustness experiment — degradation curves under injected
   network faults (drop / duplicate / reorder), a straggler core, and
   retry storms past saturation, for Linux-floating, IX and ZygOS, with
   and without server-side load shedding. Goodput (distinct requests
   completed within the SLO) is the headline metric; raw p99 rides
   along. *)
let chaos ~scale =
  let service = Dist.exponential 10. in
  let slo = 100. in
  let systems = [ Run.Linux_floating; Run.Ix 1; Run.Zygos ] in
  let req = requests ~scale 20_000 in
  (* (a) lossy network x offered load, client retries recovering losses *)
  let lossy system fr load ~seed =
    let faults =
      if fr = 0. then None
      else Some (Net.Faults.plan ~drop:fr ~duplicate:(fr /. 2.) ~reorder:fr ())
    in
    let retry = Net.Loadgen.retry ~timeout:300. () in
    let cfg = Run.config ~system ~service ~cores ~requests:req ~retry ~slo ~seed ?faults () in
    let p = Run.run_point cfg ~load in
    [
      num F3 p.goodput;
      num F1 p.p99;
      num Int (info p "fault_drops");
      num Int (info p "client_retries");
    ]
  in
  (* (b) straggler core: ZygOS steals around it, IX cannot *)
  let straggler system ~seed =
    let base =
      Run.run_point (Run.config ~system ~service ~cores ~requests:req ~seed ()) ~load:0.7
    in
    let measure = float_of_int req /. (0.7 *. float_of_int cores /. Dist.mean service) in
    let stragglers =
      [
        Core.Corefault.
          { core = 0; start = 0.2 *. measure; duration = 0.25 *. measure; slowdown = 10. };
      ]
    in
    let cfg = Run.config ~system ~service ~cores ~requests:req ~stragglers ~seed () in
    let p = Run.run_point cfg ~load:0.7 in
    [ num F1 base.p99; num F1 p.p99; num F2 (p.p99 /. Float.max 1e-9 base.p99) ]
  in
  (* (c) retry storm past saturation: load shedding keeps goodput alive *)
  let storm (_, shed) load ~seed =
    let retry = Net.Loadgen.retry ~timeout:200. ~max_retries:4 () in
    let cfg =
      Run.config ~system:(Run.Ix 1) ~service ~cores ~requests:req ~retry ~slo ?shed ~seed ()
    in
    let p = Run.run_point cfg ~load in
    [ num F3 p.goodput; num F3 p.throughput; num F1 p.p99; num Int (info p "shed") ]
  in
  [
    Block (Header "Chaos: degradation under faults & overload (exp, S = 10us, SLO = 100us)");
    Block (Subheader "lossy network x offered load (client retries on)");
    Pending
      ( [ "system"; "fault rate"; "load"; "goodput(MRPS)"; "p99(us)"; "drops"; "retries" ],
        List.concat_map
          (fun system ->
            List.concat_map
              (fun fr ->
                List.map
                  (fun load ->
                    ( [ sys system; num F3 fr; num F2 load ],
                      [
                        point "chaos/lossy/%s/%g/%g" (Run.system_name system) fr load
                          (lossy system fr load);
                      ] ))
                  [ 0.3; 0.6; 0.8 ])
              [ 0.; 0.01; 0.05 ])
          systems );
    Block (Subheader "straggler core (core 0 at 10x for 25% of the run, load 0.7)");
    Pending
      ( [ "system"; "p99 clean(us)"; "p99 straggler(us)"; "degradation" ],
        List.map
          (fun system ->
            ( [ sys system ],
              [ point "chaos/straggler/%s" (Run.system_name system) (straggler system) ] ))
          systems );
    Block (Subheader "overload + retries: shedding (queue bound 8/core) vs none, ix");
    Pending
      ( [ "policy"; "load"; "goodput(MRPS)"; "tput(MRPS)"; "p99(us)"; "shed" ],
        grid ~key:"chaos/storm" ~name:fst
          [
            ("no-shed", None);
            ("queue-len", Some (8 * cores));
          ]
          [ 0.8; 0.95; 1.1; 1.3 ] storm );
  ]

(* Rack tier, rack-scale two-level scheduling (RackSched over our
   single-server models): 4 ZygOS servers behind a ToR dispatcher.
   Inter-server policy (hash / random / po2 / jsq / jbsq) x load against
   the rack-wide M/G/64 centralized bound; estimate-staleness sweep; one
   degraded server (queue-aware policies route around it, static hashing
   collapses); and a crash window with timeout detection, failover
   re-dispatch, and hedged requests. *)
let rack ~scale =
  let servers = 4 in
  let service = Dist.exponential 10. in
  let req = requests ~scale 20_000 in
  let policies = Cluster.Policy.[ Static_hash; Random; Po2; Jsq; Jbsq 32 ] in
  let pname = Cluster.Policy.name in
  let rcfg ?(policy = Cluster.Policy.Jsq) ?feedback_delay ?detect ?hedge ?failplan ?slo ~seed ()
      =
    Rackrun.config ~servers ~system:Run.Zygos ~cores ~requests:req ~seed ?feedback_delay
      ?detect ?hedge ?failplan ?slo ~policy ~service ()
  in
  (* The length of the measurement window at [load]. *)
  let window load =
    float_of_int req /. (load *. float_of_int (servers * cores) /. Dist.mean service)
  in
  let tput_tail (p : Run.point) = [ num F3 p.throughput; num F1 p.p99; num F1 p.p999 ] in
  (* (c) one degraded server: queue-aware policies route around the
     rack-scale straggler that static hashing keeps feeding *)
  let degraded policy ~seed =
    let load = 0.6 in
    let clean = Rackrun.run (rcfg ~policy ~feedback_delay:5. ~seed ()) ~load in
    let failplan =
      let measure = window load in
      [
        Cluster.Failplan.Degraded
          { server = 0; slowdown = 10.; start = 0.2 *. measure; duration = 0.25 *. measure };
      ]
    in
    let p = Rackrun.run (rcfg ~policy ~feedback_delay:5. ~failplan ~seed ()) ~load in
    [ num F1 clean.p99; num F1 p.p99; num F2 (p.p99 /. Float.max 1e-9 clean.p99) ]
  in
  (* (d) server crash: timeout detection + failover re-dispatch recover
     the goodput a crash window would otherwise swallow *)
  let detect = Net.Loadgen.retry ~timeout:300. ~max_retries:3 () in
  let crash (policy, detect, hedge) ~seed =
    let load = 0.5 in
    let measure = window load in
    let failplan =
      [ Cluster.Failplan.Crash { server = 0; start = 0.3 *. measure; duration = 0.25 *. measure } ]
    in
    let p = Rackrun.run (rcfg ~policy ?detect ?hedge ~failplan ~slo:1000. ~seed ()) ~load in
    num F3 p.goodput :: num F1 p.p99
    :: List.map
         (fun key -> num Int (info p key))
         [
           "rack_lost_requests";
           "rack_failovers";
           "health_detections";
           "health_recoveries";
           "rack_hedges";
         ]
  in
  let loads_a = [ 0.3; 0.5; 0.7; 0.85; 0.95 ] in
  [
    Block
      (Header
         (Printf.sprintf
            "Rack: %d x zygos-16 behind a ToR dispatcher (exp, S = 10us) vs M/G/%d bound" servers
            (servers * cores)));
    (* (a) inter-server policy x load, 5us-stale estimates *)
    Block (Subheader "policy x load (5us feedback delay)");
    Pending
      ( [ "policy"; "load"; "tput(MRPS)"; "p99(us)"; "p999(us)" ],
        grid ~key:"rack/policy" ~name:pname policies loads_a (fun policy load ~seed ->
            tput_tail (Rackrun.run (rcfg ~policy ~feedback_delay:5. ~seed ()) ~load))
        @ List.map
            (fun load ->
              ( [ Text "central-bound"; num F2 load ],
                [
                  point "rack/bound/%g" load (fun ~seed ->
                      tput_tail (Rackrun.central_bound (rcfg ~seed ()) ~load));
                ] ))
            loads_a );
    (* (b) estimate staleness at fixed load: queue-aware policies degrade
       as feedback lags; jbsq's credit gate keeps the bound exact *)
    Block (Subheader "estimate staleness x policy (load 0.85)");
    Pending
      ( [ "policy"; "delay(us)"; "p99(us)"; "p999(us)" ],
        grid ~key:"rack/stale" ~name:pname ~fmt:F1 Cluster.Policy.[ Po2; Jsq; Jbsq 32 ]
          [ 0.; 5.; 25.; 100. ] (fun policy delay ~seed ->
            let p = Rackrun.run (rcfg ~policy ~feedback_delay:delay ~seed ()) ~load:0.85 in
            [ num F1 p.p99; num F1 p.p999 ]) );
    Block (Subheader "one degraded server (server 0 at 10x for 25% of the run, load 0.6)");
    Pending
      ( [ "policy"; "p99 clean(us)"; "p99 degraded(us)"; "degradation" ],
        List.map
          (fun policy ->
            ( [ Text (pname policy) ],
              [ point "rack/degraded/%s" (pname policy) (degraded policy) ] ))
          policies );
    Block
      (Subheader
         "server 0 crashes for 25% of the run (load 0.5, SLO 1000us, detect: 300us timeout x3)");
    Pending
      ( [
          "variant"; "goodput(MRPS)"; "p99(us)"; "lost"; "failovers"; "detect"; "recover"; "hedges";
        ],
        List.map
          (fun (label, variant) ->
            ([ Text label ], [ point "rack/crash/%s" label (crash variant) ]))
          [
            ("jsq-nodetect", (Cluster.Policy.Jsq, None, None));
            ("jsq-detect", (Cluster.Policy.Jsq, Some detect, None));
            ("jsq-detect-hedge", (Cluster.Policy.Jsq, Some detect, Some 200.));
            ("hash-detect", (Cluster.Policy.Static_hash, Some detect, None));
            ("jbsq32-detect", (Cluster.Policy.Jbsq 32, Some detect, None));
          ] );
  ]

type target = jobs:int -> scale:float -> block list

let all_targets : (string * target) list =
  let described f ~jobs ~scale = resolve ~jobs (f ~scale) in
  [
    ("fig2", described fig2);
    ("fig3", described fig3);
    ("fig6", described fig6);
    ("fig7", described fig7);
    ("fig8", described fig8);
    ("fig9", described fig9);
    ("fig10a", fig10a);
    ("fig10b", described fig10b);
    ("table1", fun ~jobs ~scale -> table1 ~samples:(silo_service_samples ~scale) ~jobs ~scale);
    ("fig11", described fig11);
    ("ablate-poll", described ablate_poll);
    ("ablate-batch", described ablate_batch);
    ("ext-preempt", described ext_preempt);
    ("ext-rebalance", described ext_rebalance);
    ("ext-consolidate", described ext_consolidate);
    ("chaos", described chaos);
    ("rack", described rack);
  ]

(* Every figure is structured as enumerate -> run -> render: the figure
   enumerates its grid of independent simulation points into a pure
   [Sweep.point list], the sweep runner executes them (on [jobs] domains,
   idle domains stealing), and a sequential render step assembles the
   results in canonical enumeration order. Each point's randomness comes
   from a seed derived from [master_seed] and the point's stable key, so
   the rendered output is byte-identical for every [jobs] value. *)

module Dist = Engine.Dist

let requests ~scale base = max 4_000 (int_of_float (float_of_int base *. scale))

let cores = 16

let master_seed = 42

(* The three service-time distributions of §3.4/§6.1, at unit mean. *)
let dists_of_mean mean =
  [ Dist.deterministic mean; Dist.exponential mean; Dist.bimodal1 ~mean ]

(* Split [l] into consecutive chunks of [size] (render-side reslicing of
   the flat result list back into the enumeration's nested shape). *)
let chunks size l =
  let rec take k l acc = if k = 0 then (List.rev acc, l)
    else match l with [] -> invalid_arg "chunks: ragged" | x :: tl -> take (k - 1) tl (x :: acc)
  in
  let rec go acc = function
    | [] -> List.rev acc
    | l ->
        let c, rest = take size l [] in
        go (c :: acc) rest
  in
  go [] l

(* ---- Figure 2 ---- *)

let fig2 ~jobs ~scale =
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
  let service_mean = 1.0 in
  let dists =
    [
      Dist.deterministic service_mean;
      Dist.exponential service_mean;
      Dist.bimodal1 ~mean:service_mean;
      Dist.bimodal2 ~mean:service_mean;
    ]
  in
  let points =
    List.concat_map
      (fun dist ->
        List.concat_map
          (fun load ->
            List.map
              (fun spec ->
                Sweep.point
                  ~key:
                    (Printf.sprintf "fig2/%s/%s/%g" (Dist.name dist) (name spec) load)
                  (fun ~seed ->
                    let r =
                      simulate spec ~service:dist ~load
                        ~requests:(requests ~scale 40_000) ~seed
                    in
                    Output.f2 (Stats.Tally.p99 r.latencies)))
              specs)
          loads)
      dists
  in
  let results = Sweep.run ~jobs ~seed:master_seed points in
  Output.print_header "Figure 2: p99 latency vs load, idealized queueing models (n=16, S=1)";
  List.iter2
    (fun dist per_dist ->
      Output.print_subheader (Printf.sprintf "distribution: %s" (Dist.name dist));
      let rows =
        List.map2 (fun load cells -> Output.f2 load :: cells) loads per_dist
      in
      Output.print_table ~columns:("load" :: List.map name specs) ~rows)
    dists
    (chunks (List.length loads * List.length specs) results
    |> List.map (chunks (List.length specs)))

(* ---- Max-load-at-SLO figures (3 and 7) ---- *)

let slo_figure ~figkey ~jobs ~scale ~title ~service_means ~systems =
  let makers =
    [
      (fun m -> Dist.deterministic m);
      (fun m -> Dist.exponential m);
      (fun m -> Dist.bimodal1 ~mean:m);
    ]
  in
  let points =
    List.concat_map
      (fun make_dist ->
        List.concat_map
          (fun mean ->
            List.map
              (fun system ->
                let service = make_dist mean in
                Sweep.point
                  ~key:
                    (Printf.sprintf "%s/%s/%g/%s" figkey (Dist.name service) mean
                       (Run.system_name system))
                  (fun ~seed ->
                    let slo = 10. *. mean in
                    let cfg =
                      Run.config ~system ~service ~cores
                        ~requests:(requests ~scale 25_000) ~seed ()
                    in
                    let load, _ = Run.max_load_at_slo cfg ~slo_p99:slo ~resolution:0.02 () in
                    Output.pct load))
              systems)
          service_means)
      makers
  in
  let results = Sweep.run ~jobs ~seed:master_seed points in
  Output.print_header title;
  List.iter2
    (fun make_dist per_dist ->
      let sample = make_dist 1.0 in
      Output.print_subheader (Printf.sprintf "distribution: %s" (Dist.name sample));
      let rows =
        List.map2
          (fun mean cells -> Printf.sprintf "%g" mean :: cells)
          service_means per_dist
      in
      Output.print_table
        ~columns:("S(us)" :: List.map Run.system_name systems)
        ~rows)
    makers
    (chunks (List.length service_means * List.length systems) results
    |> List.map (chunks (List.length systems)))

let fig3 ~jobs ~scale =
  slo_figure ~figkey:"fig3" ~jobs ~scale
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

let fig7 ~jobs ~scale =
  slo_figure ~figkey:"fig7" ~jobs ~scale
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

(* ---- Load-sweep figures (6, 9, 10b): shared enumerate + render ---- *)

let sweep_points ~figkey ~scale ~service ~systems ~loads ?(rpc_packets = 1) () =
  List.concat_map
    (fun system ->
      List.map
        (fun load ->
          Sweep.point
            ~key:(Printf.sprintf "%s/%s/%g" figkey (Run.system_name system) load)
            (fun ~seed ->
              let cfg =
                Run.config ~system ~service ~cores ~requests:(requests ~scale 25_000)
                  ~rpc_packets ~seed ()
              in
              (system, load, Run.run_point cfg ~load)))
        loads)
    systems

let sweep_render ~slo all =
  let rows =
    List.map
      (fun (system, load, (p : Run.point)) ->
        [
          Run.system_name system;
          Output.f2 load;
          Output.f3 p.throughput;
          Output.f1 p.p99;
          (if p.p99 <= slo then "meets" else "violates");
        ])
      all
  in
  Output.print_table
    ~columns:[ "system"; "load"; "tput(MRPS)"; "p99(us)"; Printf.sprintf "SLO %.0fus" slo ]
    ~rows

let fig6 ~jobs ~scale =
  let loads = [ 0.2; 0.35; 0.5; 0.6; 0.7; 0.8; 0.85; 0.9; 0.95 ] in
  let systems =
    [ Run.Model_central_fcfs; Run.Linux_floating; Run.Ix 1; Run.Zygos; Run.Zygos_no_interrupts ]
  in
  let groups =
    List.concat_map
      (fun mean ->
        List.map
          (fun service ->
            let figkey = Printf.sprintf "fig6/%s/%g" (Dist.name service) mean in
            ( Printf.sprintf "%s, S = %gus" (Dist.name service) mean,
              10. *. mean,
              sweep_points ~figkey ~scale ~service ~systems ~loads () ))
          (dists_of_mean mean))
      [ 10.; 25. ]
  in
  let results =
    Sweep.run ~jobs ~seed:master_seed (List.concat_map (fun (_, _, pts) -> pts) groups)
  in
  Output.print_header
    "Figure 6: p99 latency vs throughput (SLO = 10*S), three distributions x {10us, 25us}";
  List.iter2
    (fun (title, slo, _) group_results ->
      Output.print_subheader title;
      sweep_render ~slo group_results)
    groups
    (chunks (List.length systems * List.length loads) results)

(* ---- Figure 8 ---- *)

let fig8 ~jobs ~scale =
  let service = Dist.exponential 25. in
  let loads = [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.77; 0.85; 0.9; 0.95 ] in
  let points =
    List.concat_map
      (fun system ->
        List.map
          (fun load ->
            Sweep.point
              ~key:(Printf.sprintf "fig8/%s/%g" (Run.system_name system) load)
              (fun ~seed ->
                let cfg =
                  Run.config ~system ~service ~cores ~requests:(requests ~scale 25_000)
                    ~seed ()
                in
                let p = Run.run_point cfg ~load in
                let get key = Option.value ~default:0. (Run.info_value p key) in
                let events = get "local_events" +. get "stolen_events" in
                let ipis_per_event = if events = 0. then 0. else get "ipis_sent" /. events in
                [
                  Run.system_name system;
                  Output.f2 load;
                  Output.f3 p.Run.throughput;
                  Output.pct (get "steal_fraction");
                  Output.f3 ipis_per_event;
                ]))
          loads)
      [ Run.Zygos; Run.Zygos_no_interrupts ]
  in
  let rows = Sweep.run ~jobs ~seed:master_seed points in
  Output.print_header "Figure 8: steal rate vs throughput (exponential, S = 25us)";
  Output.print_table
    ~columns:[ "system"; "load"; "tput(MRPS)"; "steals/event"; "IPIs/event" ]
    ~rows

(* ---- Figure 9 ---- *)

let fig9 ~jobs ~scale =
  let kinds = [ Kvstore.Workload.Etc; Kvstore.Workload.Usr ] in
  (* For sub-2µs tasks the per-request overheads dominate: real systems
     saturate at 30–60% of the zero-overhead capacity, so the sweep
     covers the low-load range (the paper's Fig. 9 x-axis is absolute
     MRPS for the same reason). *)
  let loads = [ 0.05; 0.1; 0.15; 0.2; 0.25; 0.3; 0.35; 0.4; 0.45; 0.5; 0.55; 0.6 ] in
  let systems = [ Run.Linux_floating; Run.Ix 1; Run.Ix 64; Run.Zygos ] in
  let groups =
    List.map
      (fun kind ->
        let wl = Kvstore.Workload.create kind in
        let service = Kvstore.Workload.service_dist wl ~samples:20_000 in
        let figkey = Printf.sprintf "fig9/%s" (Kvstore.Workload.name kind) in
        (kind, service, sweep_points ~figkey ~scale ~service ~systems ~loads ()))
      kinds
  in
  let results =
    Sweep.run ~jobs ~seed:master_seed (List.concat_map (fun (_, _, pts) -> pts) groups)
  in
  Output.print_header "Figure 9: memcached ETC and USR (SLO 500us at p99)";
  List.iter2
    (fun (kind, service, _) group_results ->
      Output.print_subheader
        (Printf.sprintf "%s: mean task %.2fus, GET fraction %.1f%%"
           (Kvstore.Workload.name kind) (Dist.mean service)
           (100. *. Kvstore.Workload.get_fraction kind));
      sweep_render ~slo:500. group_results)
    groups
    (chunks (List.length systems * List.length loads) results)

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
      let worker = Silo.Db.worker (Silo.Tpcc.db tpcc) ~id:0 in
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

let fig10a ~jobs ~scale =
  (* One real-time measured execution, not a simulation grid: nothing to
     parallelize, and the Unix.gettimeofday timings would not be
     deterministic anyway. *)
  ignore (jobs : int);
  Output.print_header "Figure 10a: CCDF of Silo/TPC-C service time (real execution)";
  let run = run_silo ~scale in
  Output.printf
    "measured mean on this machine: %.1fus; samples normalized to the paper's %.0fus mean\n"
    run.raw_mean paper_silo_mean_us;
  let pct_of samples p =
    let t = Stats.Tally.create () in
    Array.iter (Stats.Tally.record t) samples;
    Stats.Tally.percentile t p
  in
  let rows =
    List.map
      (fun (name, samples) ->
        [
          name;
          string_of_int (Array.length samples);
          Output.f1 (Array.fold_left ( +. ) 0. samples /. float_of_int (Array.length samples));
          Output.f1 (pct_of samples 50.);
          Output.f1 (pct_of samples 90.);
          Output.f1 (pct_of samples 99.);
          Output.f1 (pct_of samples 99.9);
        ])
      (("Mix", run.samples)
      :: List.sort (fun (a, _) (b, _) -> String.compare a b) run.by_type)
  in
  Output.print_table
    ~columns:[ "transaction"; "count"; "mean"; "p50"; "p90"; "p99"; "p99.9" ]
    ~rows;
  Output.print_subheader "Mix CCDF (service time us, P[X > x])";
  let points = Stats.Ccdf.of_samples ~points:14 run.samples in
  Output.print_table
    ~columns:[ "x(us)"; "P[X>x]" ]
    ~rows:
      (List.map
         (fun { Stats.Ccdf.value; prob } -> [ Output.f1 value; Printf.sprintf "%.4f" prob ])
         points)

let silo_systems = [ Run.Linux_floating; Run.Ix 1; Run.Zygos ]

let silo_slo = 1000.

(* TPC-C requests/responses exceed one MTU; model them as 3 packets each
   way (the per-packet costs multiply; see EXPERIMENTS.md §Calibration). *)
let silo_rpc_packets = 3

let fig10b ~jobs ~scale =
  let service = Dist.empirical (silo_service_samples ~scale) in
  let loads = [ 0.2; 0.35; 0.5; 0.6; 0.7; 0.8; 0.85; 0.9; 0.95 ] in
  let points =
    sweep_points ~figkey:"fig10b" ~scale ~service ~systems:silo_systems ~loads
      ~rpc_packets:silo_rpc_packets ()
  in
  let results = Sweep.run ~jobs ~seed:master_seed points in
  Output.print_header
    "Figure 10b: Silo/TPC-C p99 end-to-end latency vs throughput (SLO 1000us)";
  sweep_render ~slo:silo_slo results

let table1 ~jobs ~scale =
  let service = Dist.empirical (silo_service_samples ~scale) in
  let service_p99 =
    let t = Stats.Tally.create () in
    Array.iter (Stats.Tally.record t) (silo_service_samples ~scale);
    Stats.Tally.p99 t
  in
  let slo5 = 5. *. service_p99 in
  let capacity = float_of_int cores /. Dist.mean service in
  (* One point per system: the 1000µs bisection, the three tail probes at
     fractions of the max load, and the 5×p99 bisection — all under the
     same derived seed so the table is one coherent experiment. *)
  let points =
    List.map
      (fun system ->
        Sweep.point
          ~key:(Printf.sprintf "table1/%s" (Run.system_name system))
          (fun ~seed ->
            let cfg =
              Run.config ~system ~service ~cores ~requests:(requests ~scale 25_000)
                ~rpc_packets:silo_rpc_packets ~seed ()
            in
            let max_load, point = Run.max_load_at_slo cfg ~slo_p99:silo_slo ~resolution:0.02 () in
            let tail_at frac =
              let p = Run.run_point cfg ~load:(max_load *. frac) in
              Printf.sprintf "%.0fus (%.1fx) @%.0f KTPS" p.Run.p99 (p.Run.p99 /. service_p99)
                (1000. *. p.Run.throughput)
            in
            let tails = (tail_at 0.5, tail_at 0.75, tail_at 0.9) in
            let _, point5 = Run.max_load_at_slo cfg ~slo_p99:slo5 ~resolution:0.02 () in
            (point.Run.throughput, tails, point5.Run.throughput)))
      silo_systems
  in
  let results = Sweep.run ~jobs ~seed:master_seed points in
  Output.print_header
    "Table 1: Silo/TPC-C max load @ 1000us SLO and tails at 50/75/90% of max";
  let linux_tput =
    match results with (tput, _, _) :: _ -> tput | [] -> assert false
  in
  let rows =
    List.map2
      (fun system (tput, (t50, t75, t90), _) ->
        [
          Run.system_name system;
          Printf.sprintf "%.0f KTPS" (1000. *. tput);
          Printf.sprintf "%.2fx" (tput /. linux_tput);
          t50;
          t75;
          t90;
        ])
      silo_systems results
  in
  Output.printf "zero-overhead capacity: %.0f KTPS; service p99 = %.0fus\n"
    (1000. *. capacity) service_p99;
  Output.print_table
    ~columns:[ "system"; "max load@SLO"; "speedup"; "tail@50%"; "tail@75%"; "tail@90%" ]
    ~rows;
  (* Our measured TPC-C service tail is heavier than the paper's (p99 here
     vs 203µs there), so the fixed 1000µs SLO is a much tighter multiple of
     p99 (2.7x vs the paper's ~5x) — which is the §7 tradeoff. Also report
     max load at the paper's SLO-to-tail ratio. *)
  Output.print_subheader
    (Printf.sprintf "same experiment at the paper's SLO-to-tail ratio (SLO = 5 x p99 = %.0fus)"
       slo5);
  let rows5 =
    List.map2
      (fun system (_, _, tput5) ->
        [ Run.system_name system; Printf.sprintf "%.0f KTPS" (1000. *. tput5) ])
      silo_systems results
  in
  Output.print_table ~columns:[ "system"; "max load@5xp99" ] ~rows:rows5

(* ---- Figure 11 ---- *)

let fig11 ~jobs ~scale =
  let service = Dist.deterministic 10. in
  let loads = [ 0.3; 0.5; 0.65; 0.8; 0.85; 0.9; 0.93; 0.95; 0.97 ] in
  let systems = [ Run.Ix 64; Run.Ix 1; Run.Zygos ] in
  let sweep_pts =
    List.concat_map
      (fun system ->
        List.map
          (fun load ->
            Sweep.point
              ~key:(Printf.sprintf "fig11/%s/%g" (Run.system_name system) load)
              (fun ~seed ->
                let cfg =
                  Run.config ~system ~service ~cores ~requests:(requests ~scale 25_000)
                    ~seed ()
                in
                (system, Run.run_point cfg ~load)))
          loads)
      systems
  in
  let best_pts =
    List.map
      (fun system ->
        Sweep.point
          ~key:(Printf.sprintf "fig11/best/%s" (Run.system_name system))
          (fun ~seed ->
            let cfg =
              Run.config ~system ~service ~cores ~requests:(requests ~scale 25_000) ~seed ()
            in
            let best slo =
              let _, p = Run.max_load_at_slo cfg ~slo_p99:slo ~resolution:0.02 () in
              Output.f3 p.Run.throughput
            in
            [ Run.system_name system; best 100.; best 1000. ]))
      systems
  in
  let n_sweep = List.length sweep_pts in
  let all =
    Sweep.run ~jobs ~seed:master_seed
      (List.map (fun p -> Sweep.point ~key:p.Sweep.key (fun ~seed -> `Point (p.Sweep.run ~seed))) sweep_pts
      @ List.map (fun p -> Sweep.point ~key:p.Sweep.key (fun ~seed -> `Row (p.Sweep.run ~seed))) best_pts)
  in
  let sweep_results =
    List.filteri (fun i _ -> i < n_sweep) all
    |> List.map (function `Point x -> x | `Row _ -> assert false)
  in
  let best_rows =
    List.filteri (fun i _ -> i >= n_sweep) all
    |> List.map (function `Row x -> x | `Point _ -> assert false)
  in
  Output.print_header
    "Figure 11: SLO choice (100us vs 1000us), fixed 10us tasks -- IX B=1, IX B=64, ZygOS";
  Output.print_table
    ~columns:[ "system"; "load"; "tput(MRPS)"; "p99(us)"; "SLO 100us"; "SLO 1000us" ]
    ~rows:
      (List.map
         (fun (system, (p : Run.point)) ->
           [
             Run.system_name system;
             Output.f2 p.Run.load;
             Output.f3 p.Run.throughput;
             Output.f1 p.Run.p99;
             (if p.Run.p99 <= 100. then "meets" else "violates");
             (if p.Run.p99 <= 1000. then "meets" else "violates");
           ])
         sweep_results);
  Output.print_subheader "max throughput under each SLO";
  Output.print_table ~columns:[ "system"; "MRPS @100us"; "MRPS @1000us" ] ~rows:best_rows

(* ---- Ablations (DESIGN.md §5) ---- *)

let ablate_poll ~jobs ~scale =
  let service = Dist.exponential 10. in
  let loads = [ 0.5; 0.7; 0.8; 0.85; 0.9 ] in
  let points =
    List.concat_map
      (fun (order, system) ->
        List.map
          (fun load ->
            Sweep.point
              ~key:(Printf.sprintf "ablate-poll/%s/%g" order load)
              (fun ~seed ->
                let cfg =
                  Run.config ~system ~service ~cores ~requests:(requests ~scale 25_000) ~seed ()
                in
                (Run.run_point cfg ~load).Run.p99))
          loads)
      [ ("random", Run.Zygos); ("rr", Run.Zygos_round_robin) ]
  in
  let results = Sweep.run ~jobs ~seed:master_seed points in
  let random, rr = chunks (List.length loads) results |> function
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  Output.print_header "Ablation: randomized vs round-robin steal-victim order (exp, 10us)";
  Output.print_table
    ~columns:[ "load"; "p99 randomized"; "p99 round-robin" ]
    ~rows:
      (List.map2
         (fun load (a, b) -> [ Output.f2 load; Output.f1 a; Output.f1 b ])
         loads
         (List.combine random rr))

let ablate_batch ~jobs ~scale =
  let service = Dist.deterministic 10. in
  let loads = [ 0.5; 0.7; 0.85; 0.93 ] in
  let points =
    List.concat_map
      (fun b ->
        List.map
          (fun load ->
            Sweep.point
              ~key:(Printf.sprintf "ablate-batch/b%d/%g" b load)
              (fun ~seed ->
                let cfg =
                  Run.config ~system:(Run.Ix b) ~service ~cores
                    ~requests:(requests ~scale 20_000) ~seed ()
                in
                let p = Run.run_point cfg ~load in
                [ Printf.sprintf "B=%d" b; Output.f2 load; Output.f3 p.Run.throughput;
                  Output.f1 p.Run.p99 ]))
          loads)
      [ 1; 2; 8; 64 ]
  in
  let rows = Sweep.run ~jobs ~seed:master_seed points in
  Output.print_header "Ablation: IX bounded-batching B sweep (fixed 10us tasks)";
  Output.print_table ~columns:[ "batch"; "load"; "tput(MRPS)"; "p99(us)" ] ~rows

(* Extension (paper §2.3 Observation 2 / §7): FCFS is tail-optimal only
   for low dispersion. A preemptive centralized scheduler — the design
   direction of the follow-up Shinjuku line — recovers the PS advantage on
   bimodal-2 at the price of context-switch overhead on benign
   workloads. *)
let ext_preempt ~jobs ~scale =
  let systems = [ Run.Ix 1; Run.Zygos; Run.Preemptive 5.; Run.Preemptive 1. ] in
  let cases =
    [
      ("bimodal-2 (0.1% of requests are 500x the mean)", Dist.bimodal2 ~mean:10.);
      ("deterministic (preemption cannot help, only cost)", Dist.deterministic 10.);
    ]
  in
  let loads = [ 0.3; 0.5; 0.7 ] in
  let points =
    List.concat_map
      (fun (_, service) ->
        List.concat_map
          (fun system ->
            List.map
              (fun load ->
                Sweep.point
                  ~key:
                    (Printf.sprintf "ext-preempt/%s/%s/%g" (Dist.name service)
                       (Run.system_name system) load)
                  (fun ~seed ->
                    let cfg =
                      Run.config ~system ~service ~cores ~requests:(requests ~scale 25_000)
                        ~seed ()
                    in
                    let p = Run.run_point cfg ~load in
                    let preemptions =
                      Option.value ~default:0. (Run.info_value p "preemptions_per_request")
                    in
                    [
                      Run.system_name system;
                      Output.f2 load;
                      Output.f1 p.Run.p99;
                      Output.f1 p.Run.p50;
                      Output.f2 preemptions;
                    ]))
              loads)
          systems)
      cases
  in
  let results = Sweep.run ~jobs ~seed:master_seed points in
  Output.print_header
    "Extension: preemptive scheduling vs FCFS under extreme dispersion (S = 10us)";
  List.iter2
    (fun (label, _) rows ->
      Output.print_subheader label;
      Output.print_table
        ~columns:[ "system"; "load"; "p99(us)"; "p50(us)"; "preempts/req" ]
        ~rows)
    cases
    (chunks (List.length systems * List.length loads) results)

(* Extension (§5): RSS-reprogramming control plane against persistent
   connection skew, vs static IX (suffers) and ZygOS (stealing absorbs
   it). *)
let ext_rebalance ~jobs ~scale =
  let service = Dist.exponential 10. in
  let selection = Net.Loadgen.Hot_cold { hot_fraction = 0.05; hot_load = 0.5 } in
  let systems = [ Run.Ix 1; Run.Ix_rebalanced 200.; Run.Zygos ] in
  let points =
    List.concat_map
      (fun system ->
        List.map
          (fun load ->
            Sweep.point
              ~key:(Printf.sprintf "ext-rebalance/%s/%g" (Run.system_name system) load)
              (fun ~seed ->
                let cfg =
                  Run.config ~system ~service ~cores ~requests:(requests ~scale 25_000)
                    ~selection ~seed ()
                in
                let p = Run.run_point cfg ~load in
                let moves =
                  Option.value ~default:0. (Run.info_value p "rebalance_moves")
                in
                [
                  Run.system_name system;
                  Output.f2 load;
                  Output.f1 p.Run.p99;
                  Output.f3 p.Run.throughput;
                  string_of_int (int_of_float moves);
                  string_of_int p.Run.order_violations;
                ]))
          [ 0.3; 0.5; 0.65; 0.8 ])
      systems
  in
  let rows = Sweep.run ~jobs ~seed:master_seed points in
  Output.print_header
    "Extension: RSS control plane under persistent connection skew (exp, S = 10us)";
  Output.printf
    "skew: 5%% of connections carry 50%% of the load; rebalance window 200us\n";
  Output.print_table
    ~columns:[ "system"; "load"; "p99(us)"; "tput(MRPS)"; "slot moves"; "order violations" ]
    ~rows

(* Extension (§5): workload consolidation — the IX control plane's energy
   proportionality function, on the centralized preemptive system where
   core parking is safe. *)
let ext_consolidate ~jobs ~scale =
  let service = Dist.exponential 10. in
  let loads = [ 0.1; 0.2; 0.35; 0.5; 0.7; 0.85 ] in
  let run_one ~seed ~consolidate ~load =
    let system = if consolidate then Run.Preemptive_consolidated 10. else Run.Preemptive 10. in
    let cfg = Run.config ~system ~service ~cores ~requests:(requests ~scale 25_000) ~seed () in
    let p = Run.run_point cfg ~load in
    let avg_cores =
      Option.value ~default:(float_of_int cores) (Run.info_value p "avg_active_cores")
    in
    (p.Run.p99, avg_cores)
  in
  let points =
    List.concat_map
      (fun consolidate ->
        List.map
          (fun load ->
            Sweep.point
              ~key:
                (Printf.sprintf "ext-consolidate/%s/%g"
                   (if consolidate then "on" else "off")
                   load)
              (fun ~seed -> run_one ~seed ~consolidate ~load))
          loads)
      [ false; true ]
  in
  let results = Sweep.run ~jobs ~seed:master_seed points in
  let statics, conss =
    chunks (List.length loads) results |> function [ a; b ] -> (a, b) | _ -> assert false
  in
  Output.print_header
    "Extension: workload consolidation (core parking) vs static 16 cores (exp, S = 10us)";
  let rows =
    List.map2
      (fun load ((static_p99, _), (cons_p99, avg)) ->
        [ Output.f2 load; Output.f1 static_p99; Output.f1 cons_p99; Output.f1 avg ])
      loads (List.combine statics conss)
  in
  Output.print_table
    ~columns:[ "load"; "p99 static(us)"; "p99 consolidated(us)"; "avg active cores" ]
    ~rows

(* Chaos: the robustness experiment — degradation curves under injected
   network faults, a straggler core, and retry storms past saturation,
   for the three main systems. Goodput (distinct requests completed
   within the SLO) is the headline metric; raw p99 rides along. *)
let chaos ~jobs ~scale =
  let service = Dist.exponential 10. in
  let slo = 100. in
  let systems = [ Run.Linux_floating; Run.Ix 1; Run.Zygos ] in
  let req = requests ~scale 20_000 in
  Output.print_header
    "Chaos: degradation under faults & overload (exp, S = 10us, SLO = 100us)";
  (* (a) lossy network x offered load, client retries recovering losses *)
  let retry = Net.Loadgen.retry ~timeout:300. () in
  let points_a =
    List.concat_map
      (fun system ->
        List.concat_map
          (fun fr ->
            List.map
              (fun load ->
                Sweep.point
                  ~key:
                    (Printf.sprintf "chaos/lossy/%s/%g/%g" (Run.system_name system) fr load)
                  (fun ~seed ->
                    let faults =
                      if fr = 0. then None
                      else Some (Net.Faults.plan ~drop:fr ~duplicate:(fr /. 2.) ~reorder:fr ())
                    in
                    let cfg =
                      Run.config ~system ~service ~cores ~requests:req ~retry ~slo ~seed
                        ?faults ()
                    in
                    let p = Run.run_point cfg ~load in
                    let get key = Option.value ~default:0. (Run.info_value p key) in
                    [
                      Run.system_name system;
                      Output.f3 fr;
                      Output.f2 load;
                      Output.f3 p.Run.goodput;
                      Output.f1 p.Run.p99;
                      string_of_int (int_of_float (get "fault_drops"));
                      string_of_int (int_of_float (get "client_retries"));
                    ]))
              [ 0.3; 0.6; 0.8 ])
          [ 0.; 0.01; 0.05 ])
      systems
  in
  let rows = Sweep.run ~jobs ~seed:master_seed points_a in
  Output.print_subheader "lossy network x offered load (client retries on)";
  Output.print_table
    ~columns:
      [ "system"; "fault rate"; "load"; "goodput(MRPS)"; "p99(us)"; "drops"; "retries" ]
    ~rows;
  (* (b) straggler core: ZygOS steals around it, IX cannot *)
  let points_b =
    List.map
      (fun system ->
        Sweep.point
          ~key:(Printf.sprintf "chaos/straggler/%s" (Run.system_name system))
          (fun ~seed ->
            let base_cfg = Run.config ~system ~service ~cores ~requests:req ~seed () in
            let base = Run.run_point base_cfg ~load:0.7 in
            let rate = 0.7 *. float_of_int cores /. Dist.mean service in
            let measure = float_of_int req /. rate in
            let stragglers =
              [
                Core.Corefault.
                  { core = 0; start = 0.2 *. measure; duration = 0.25 *. measure; slowdown = 10. };
              ]
            in
            let cfg = Run.config ~system ~service ~cores ~requests:req ~stragglers ~seed () in
            let p = Run.run_point cfg ~load:0.7 in
            [
              Run.system_name system;
              Output.f1 base.Run.p99;
              Output.f1 p.Run.p99;
              Output.f2 (p.Run.p99 /. Float.max 1e-9 base.Run.p99);
            ]))
      systems
  in
  let rows = Sweep.run ~jobs ~seed:master_seed points_b in
  Output.print_subheader "straggler core (core 0 at 10x for 25% of the run, load 0.7)";
  Output.print_table
    ~columns:[ "system"; "p99 clean(us)"; "p99 straggler(us)"; "degradation" ]
    ~rows;
  (* (c) retry storm past saturation: load shedding keeps goodput alive *)
  let retry = Net.Loadgen.retry ~timeout:200. ~max_retries:4 () in
  let points_c =
    List.concat_map
      (fun (label, shed) ->
        List.map
          (fun load ->
            Sweep.point
              ~key:(Printf.sprintf "chaos/storm/%s/%g" label load)
              (fun ~seed ->
                let cfg =
                  Run.config ~system:(Run.Ix 1) ~service ~cores ~requests:req ~retry ~slo
                    ~shed ~seed ()
                in
                let p = Run.run_point cfg ~load in
                let get key = Option.value ~default:0. (Run.info_value p key) in
                [
                  label;
                  Output.f2 load;
                  Output.f3 p.Run.goodput;
                  Output.f3 p.Run.throughput;
                  Output.f1 p.Run.p99;
                  string_of_int (int_of_float (get "shed"));
                ]))
          [ 0.8; 0.95; 1.1; 1.3 ])
      [
        ("no-shed", Systems.Overload.No_shed);
        ("queue-len", Systems.Overload.Queue_length (8 * cores));
      ]
  in
  let rows = Sweep.run ~jobs ~seed:master_seed points_c in
  Output.print_subheader
    "overload + retries: shedding (queue bound 8/core) vs none, ix";
  Output.print_table
    ~columns:[ "policy"; "load"; "goodput(MRPS)"; "tput(MRPS)"; "p99(us)"; "shed" ]
    ~rows

(* Rack-scale two-level scheduling (RackSched over our single-server
   models): N servers behind a ToR dispatcher, compared against the
   rack-wide M/G/(N*cores) centralized bound, under estimate staleness
   and injected server failures. *)
let rack ~jobs ~scale =
  let servers = 4 in
  let service = Dist.exponential 10. in
  let req = requests ~scale 20_000 in
  let policies =
    Cluster.Policy.[ Static_hash; Random; Po2; Jsq; Jbsq 32 ]
  in
  let pname = Cluster.Policy.name in
  let rcfg ?(policy = Cluster.Policy.Jsq) ?feedback_delay ?detect ?hedge ?failplan ?slo
      ~seed () =
    Rackrun.config ~servers ~system:Run.Zygos ~cores ~requests:req ~seed ?feedback_delay
      ?detect ?hedge ?failplan ?slo ~policy ~service ()
  in
  Output.print_header
    (Printf.sprintf
       "Rack: %d x zygos-16 behind a ToR dispatcher (exp, S = 10us) vs M/G/%d bound"
       servers (servers * cores));
  (* (a) inter-server policy x load, 5us-stale estimates *)
  let loads_a = [ 0.3; 0.5; 0.7; 0.85; 0.95 ] in
  let points_a =
    List.concat_map
      (fun policy ->
        List.map
          (fun load ->
            Sweep.point
              ~key:(Printf.sprintf "rack/policy/%s/%g" (pname policy) load)
              (fun ~seed ->
                let p = Rackrun.run (rcfg ~policy ~feedback_delay:5. ~seed ()) ~load in
                [
                  pname policy;
                  Output.f2 load;
                  Output.f3 p.Run.throughput;
                  Output.f1 p.Run.p99;
                  Output.f1 p.Run.p999;
                ]))
          loads_a)
      policies
    @ List.map
        (fun load ->
          Sweep.point
            ~key:(Printf.sprintf "rack/bound/%g" load)
            (fun ~seed ->
              let p = Rackrun.central_bound (rcfg ~seed ()) ~load in
              [
                "central-bound";
                Output.f2 load;
                Output.f3 p.Run.throughput;
                Output.f1 p.Run.p99;
                Output.f1 p.Run.p999;
              ]))
        loads_a
  in
  let rows = Sweep.run ~jobs ~seed:master_seed points_a in
  Output.print_subheader "policy x load (5us feedback delay)";
  Output.print_table
    ~columns:[ "policy"; "load"; "tput(MRPS)"; "p99(us)"; "p999(us)" ]
    ~rows;
  (* (b) estimate staleness at fixed load: queue-aware policies degrade
     as feedback lags; jbsq's credit gate keeps the bound exact *)
  let points_b =
    List.concat_map
      (fun policy ->
        List.map
          (fun delay ->
            Sweep.point
              ~key:(Printf.sprintf "rack/stale/%s/%g" (pname policy) delay)
              (fun ~seed ->
                let p = Rackrun.run (rcfg ~policy ~feedback_delay:delay ~seed ()) ~load:0.85 in
                [ pname policy; Output.f1 delay; Output.f1 p.Run.p99; Output.f1 p.Run.p999 ]))
          [ 0.; 5.; 25.; 100. ])
      Cluster.Policy.[ Po2; Jsq; Jbsq 32 ]
  in
  let rows = Sweep.run ~jobs ~seed:master_seed points_b in
  Output.print_subheader "estimate staleness x policy (load 0.85)";
  Output.print_table ~columns:[ "policy"; "delay(us)"; "p99(us)"; "p999(us)" ] ~rows;
  (* (c) one degraded server: queue-aware policies route around the
     rack-scale straggler that static hashing keeps feeding *)
  let points_c =
    List.map
      (fun policy ->
        Sweep.point
          ~key:(Printf.sprintf "rack/degraded/%s" (pname policy))
          (fun ~seed ->
            let load = 0.6 in
            let rate = load *. float_of_int (servers * cores) /. Dist.mean service in
            let measure = float_of_int req /. rate in
            let clean = Rackrun.run (rcfg ~policy ~feedback_delay:5. ~seed ()) ~load in
            let failplan =
              [
                Cluster.Failplan.Degraded
                  {
                    server = 0;
                    slowdown = 10.;
                    start = 0.2 *. measure;
                    duration = 0.25 *. measure;
                  };
              ]
            in
            let p = Rackrun.run (rcfg ~policy ~feedback_delay:5. ~failplan ~seed ()) ~load in
            [
              pname policy;
              Output.f1 clean.Run.p99;
              Output.f1 p.Run.p99;
              Output.f2 (p.Run.p99 /. Float.max 1e-9 clean.Run.p99);
            ]))
      policies
  in
  let rows = Sweep.run ~jobs ~seed:master_seed points_c in
  Output.print_subheader
    "one degraded server (server 0 at 10x for 25% of the run, load 0.6)";
  Output.print_table
    ~columns:[ "policy"; "p99 clean(us)"; "p99 degraded(us)"; "degradation" ]
    ~rows;
  (* (d) server crash: timeout detection + failover re-dispatch recover
     the goodput a crash window would otherwise swallow *)
  let detect =
    Cluster.Dispatch.
      {
        retry = Net.Loadgen.retry ~timeout:300. ~max_retries:3 ();
        health = Cluster.Health.config ();
      }
  in
  let points_d =
    List.map
      (fun (label, policy, detect, hedge) ->
        Sweep.point
          ~key:(Printf.sprintf "rack/crash/%s" label)
          (fun ~seed ->
            let load = 0.5 in
            let rate = load *. float_of_int (servers * cores) /. Dist.mean service in
            let measure = float_of_int req /. rate in
            let failplan =
              [
                Cluster.Failplan.Crash
                  { server = 0; start = 0.3 *. measure; duration = 0.25 *. measure };
              ]
            in
            let cfg = rcfg ~policy ?detect ?hedge ~failplan ~slo:1000. ~seed () in
            let p = Rackrun.run cfg ~load in
            let get key = Option.value ~default:0. (Run.info_value p key) in
            [
              label;
              Output.f3 p.Run.goodput;
              Output.f1 p.Run.p99;
              string_of_int (int_of_float (get "rack_lost_requests"));
              string_of_int (int_of_float (get "rack_failovers"));
              string_of_int (int_of_float (get "health_detections"));
              string_of_int (int_of_float (get "health_recoveries"));
              string_of_int (int_of_float (get "rack_hedges"));
            ]))
      [
        ("jsq-nodetect", Cluster.Policy.Jsq, None, None);
        ("jsq-detect", Cluster.Policy.Jsq, Some detect, None);
        ("jsq-detect-hedge", Cluster.Policy.Jsq, Some detect, Some 200.);
        ("hash-detect", Cluster.Policy.Static_hash, Some detect, None);
        ("jbsq32-detect", Cluster.Policy.Jbsq 32, Some detect, None);
      ]
  in
  let rows = Sweep.run ~jobs ~seed:master_seed points_d in
  Output.print_subheader
    "server 0 crashes for 25% of the run (load 0.5, SLO 1000us, detect: 300us timeout x3)";
  Output.print_table
    ~columns:
      [ "variant"; "goodput(MRPS)"; "p99(us)"; "lost"; "failovers"; "detect"; "recover"; "hedges" ]
    ~rows

type target = jobs:int -> scale:float -> unit

let all_targets : (string * target) list =
  [
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10a", fig10a);
    ("fig10b", fig10b);
    ("table1", table1);
    ("fig11", fig11);
    ("ablate-poll", ablate_poll);
    ("ablate-batch", ablate_batch);
    ("ext-preempt", ext_preempt);
    ("ext-rebalance", ext_rebalance);
    ("ext-consolidate", ext_consolidate);
    ("chaos", chaos);
    ("rack", rack);
  ]

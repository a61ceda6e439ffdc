(* Tests for lib/models: the idealized queueing models against known
   closed-form results (M/M/1, M/M/n, Erlang-C) and against the paper's
   quoted SLO capacities. *)

open Models.Queueing

let exp1 = Engine.Dist.exponential 1.0

let mean_sojourn spec ~load ~requests ~seed =
  let r = simulate spec ~service:exp1 ~load ~requests ~seed in
  Stats.Tally.mean r.latencies

let within ~tol ~expected actual =
  if abs_float (actual -. expected) /. expected > tol then
    Alcotest.failf "expected %.3f, got %.3f (tol %.0f%%)" expected actual (100. *. tol)

let test_mm1_mean () =
  (* M/M/1: E[T] = 1/(1 - rho). *)
  List.iter
    (fun rho ->
      let t = mean_sojourn { servers = 1; policy = Fcfs; topology = Central } ~load:rho
          ~requests:150_000 ~seed:1
      in
      within ~tol:0.08 ~expected:(1. /. (1. -. rho)) t)
    [ 0.3; 0.5; 0.7 ]

let test_mm1_ps_mean () =
  (* M/M/1/PS has the same mean sojourn as FCFS. *)
  let t = mean_sojourn { servers = 1; policy = Ps; topology = Central } ~load:0.5
      ~requests:80_000 ~seed:2
  in
  within ~tol:0.08 ~expected:2.0 t

(* With spare processors PS is a pure delay: at load 0.001 on 10,000
   processors about 10 jobs are present, each on a whole processor, so
   every sojourn is its service time. Without the rate cap at one
   processor a job would finish early. *)
let test_ps_spare_processors_pure_delay () =
  let spec = { servers = 10_000; policy = Ps; topology = Central } in
  List.iter
    (fun s ->
      let r =
        simulate spec ~service:(Engine.Dist.deterministic s) ~load:0.001 ~requests:20_000
          ~seed:5
      in
      let t = r.latencies in
      List.iter
        (fun (label, x) ->
          if abs_float (x -. s) > 1e-9 then
            Alcotest.failf "S = %g: %s sojourn %.17g, want the service time" s label x)
        [ ("p50", Stats.Tally.p50 t); ("p99", Stats.Tally.p99 t); ("max", Stats.Tally.max_value t) ])
    [ 1.; 10. ]

let erlang_c ~n ~rho =
  (* P(wait) for M/M/n at per-server utilization rho. *)
  let a = float_of_int n *. rho in
  let fact k = List.fold_left ( *. ) 1. (List.init k (fun i -> float_of_int (i + 1))) in
  let sum =
    List.fold_left ( +. ) 0. (List.init n (fun k -> (a ** float_of_int k) /. fact k))
  in
  let top = (a ** float_of_int n) /. fact n /. (1. -. rho) in
  top /. (sum +. top)

let test_mm16_mean () =
  (* M/M/16: E[T] = 1 + C(16, rho) / (16 (1 - rho)). *)
  let rho = 0.9 in
  let expected = 1. +. (erlang_c ~n:16 ~rho /. (16. *. (1. -. rho))) in
  let t = mean_sojourn { servers = 16; policy = Fcfs; topology = Central } ~load:rho
      ~requests:200_000 ~seed:3
  in
  within ~tol:0.08 ~expected t

let test_partitioned_matches_mm1 () =
  (* n independent M/M/1 queues: per-queue behaviour equals M/M/1. *)
  let t = mean_sojourn { servers = 16; policy = Fcfs; topology = Partitioned } ~load:0.8
      ~requests:200_000 ~seed:4
  in
  within ~tol:0.12 ~expected:5.0 t

let test_md1_wait () =
  (* M/D/1: E[W] = rho / (2 (1 - rho)) for unit service. *)
  let rho = 0.6 in
  let r =
    simulate { servers = 1; policy = Fcfs; topology = Central }
      ~service:(Engine.Dist.deterministic 1.0) ~load:rho ~requests:150_000 ~seed:5
  in
  within ~tol:0.08 ~expected:(1. +. (rho /. (2. *. (1. -. rho)))) (Stats.Tally.mean r.latencies)

let test_p99_exponential_floor () =
  (* At very low load the p99 sojourn is just the p99 of the service time:
     -ln(0.01) ~ 4.6 for exp(1). *)
  let r = simulate { servers = 16; policy = Fcfs; topology = Central } ~service:exp1 ~load:0.1
      ~requests:60_000 ~seed:6
  in
  within ~tol:0.06 ~expected:4.605 (Stats.Tally.p99 r.latencies)

let test_central_beats_partitioned_p99 () =
  List.iter
    (fun (dist : Engine.Dist.t) ->
      let p99 topology =
        let r = simulate { servers = 16; policy = Fcfs; topology } ~service:dist ~load:0.7
            ~requests:40_000 ~seed:7
        in
        Stats.Tally.p99 r.latencies
      in
      let central = p99 Central and partitioned = p99 Partitioned in
      if central > partitioned then
        Alcotest.failf "central p99 %.2f worse than partitioned %.2f (%s)" central partitioned
          (Engine.Dist.name dist))
    [ Engine.Dist.deterministic 1.; exp1; Engine.Dist.bimodal1 ~mean:1. ]

let test_fcfs_beats_ps_low_dispersion () =
  (* Observation 2 of §2.3: FCFS wins for low-dispersion distributions... *)
  let p99 policy service =
    let r = simulate { servers = 16; policy; topology = Central } ~service ~load:0.8
        ~requests:40_000 ~seed:8
    in
    Stats.Tally.p99 r.latencies
  in
  let fcfs = p99 Fcfs exp1 and ps = p99 Ps exp1 in
  Alcotest.(check bool)
    (Printf.sprintf "FCFS (%.1f) <= PS (%.1f) for exponential" fcfs ps)
    true (fcfs <= ps);
  (* ...while PS wins under bimodal-2's huge dispersion. *)
  let b2 = Engine.Dist.bimodal2 ~mean:1. in
  let fcfs2 = p99 Fcfs b2 and ps2 = p99 Ps b2 in
  Alcotest.(check bool)
    (Printf.sprintf "PS (%.1f) <= FCFS (%.1f) for bimodal-2" ps2 fcfs2)
    true (ps2 <= fcfs2)

let test_paper_slo_loads () =
  (* §3.1: for the exponential distribution and an SLO of p99 <= 10x mean,
     queueing theory gives 53.7% for partitioned-FCFS and 96.3% for
     centralized-FCFS (n = 16). *)
  let max_load system =
    let cfg =
      Experiments.Run.config ~cores:16 ~requests:30_000 ~seed:42 ~system ~service:exp1 ()
    in
    fst (Experiments.Run.max_load_at_slo cfg ~slo_p99:10. ())
  in
  let partitioned = max_load Experiments.Run.Model_partitioned_fcfs in
  if abs_float (partitioned -. 0.537) > 0.05 then
    Alcotest.failf "partitioned max load %.3f (paper: 0.537)" partitioned;
  let central = max_load Experiments.Run.Model_central_fcfs in
  if abs_float (central -. 0.963) > 0.04 then
    Alcotest.failf "central max load %.3f (paper: 0.963)" central

let test_simulate_validation () =
  let spec = { servers = 16; policy = Fcfs; topology = Central } in
  Alcotest.check_raises "bad load" (Invalid_argument "Queueing.simulate: load out of (0, 1.05)")
    (fun () -> ignore (simulate spec ~service:exp1 ~load:2.0 ~requests:10 ~seed:1 : result));
  Alcotest.check_raises "bad servers" (Invalid_argument "Queueing.simulate: servers < 1")
    (fun () ->
      ignore
        (simulate { spec with servers = 0 } ~service:exp1 ~load:0.5 ~requests:10 ~seed:1
          : result));
  (* NaN fails every comparison, so each check must name it. *)
  Alcotest.check_raises "NaN load" (Invalid_argument "Queueing.simulate: load out of (0, 1.05)")
    (fun () -> ignore (simulate spec ~service:exp1 ~load:nan ~requests:10 ~seed:1 : result));
  Alcotest.check_raises "NaN service mean"
    (Invalid_argument "Queueing.simulate: arrival rate is NaN") (fun () ->
      ignore
        (simulate spec ~service:(Engine.Dist.exponential nan) ~load:0.5 ~requests:10 ~seed:1
          : result))

let test_names () =
  Alcotest.(check string) "central" "M/G/16/FCFS"
    (name { servers = 16; policy = Fcfs; topology = Central });
  Alcotest.(check string) "partitioned" "16xM/G/1/PS"
    (name { servers = 16; policy = Ps; topology = Partitioned })

let test_determinism () =
  let spec = { servers = 16; policy = Fcfs; topology = Central } in
  let a = simulate spec ~service:exp1 ~load:0.7 ~requests:10_000 ~seed:42 in
  let b = simulate spec ~service:exp1 ~load:0.7 ~requests:10_000 ~seed:42 in
  Alcotest.(check (float 0.)) "same p99 for same seed" (Stats.Tally.p99 a.latencies)
    (Stats.Tally.p99 b.latencies)

(* Each model's exact output on a grid that covers 1-server stations,
   deterministic ties and both topologies: a digest of the hex bits of
   mean, p50, p99, p999 and throughput per point. Both were captured
   while the model ran as event-driven stations: FCFS at e721c7b, PS at
   8201935. [Tally.mean] depends only on the latency multiset, so the
   digest does too. Both were re-pinned (from 9d720029... and
   706ab871...) when that mean stopped summing the sorted samples: the
   old and new texts differ only in the mean, by at most 2.7e-15
   relative. *)
let model_points_digest = function
  | Fcfs -> "4fffaf8d85f6552e5c99626ea23e03b5"
  | Ps -> "90b788b73e98816f9cbd7f039fd6f59d"

let test_model_points_pinned policy () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun topology ->
      List.iter
        (fun service ->
          List.iter
            (fun servers ->
              List.iter
                (fun load ->
                  let spec = { servers; policy; topology } in
                  let r = simulate spec ~service ~load ~requests:2_000 ~seed:11 in
                  let t = r.latencies in
                  let p50 = Stats.Tally.p50 t and p99 = Stats.Tally.p99 t in
                  let p999 = Stats.Tally.p999 t in
                  Printf.bprintf buf "%s %s %g: %h %h %h %h %h\n" (name spec)
                    (Engine.Dist.name service) load (Stats.Tally.mean t) p50 p99 p999
                    r.throughput)
                [ 0.5; 0.95 ])
            [ 1; 16; 64 ])
        [
          Engine.Dist.deterministic 10.;
          Engine.Dist.exponential 10.;
          Engine.Dist.bimodal2 ~mean:10.;
        ])
    [ Central; Partitioned ];
  let out = Buffer.contents buf in
  let got = Digest.to_hex (Digest.string out) in
  if got <> model_points_digest policy then
    Alcotest.failf "model points digest %s, pinned %s; points:\n%s" got
      (model_points_digest policy) out

let () =
  Alcotest.run "models"
    [
      ( "closed-form",
        [
          Alcotest.test_case "M/M/1 mean" `Slow test_mm1_mean;
          Alcotest.test_case "M/M/1/PS mean" `Slow test_mm1_ps_mean;
          Alcotest.test_case "PS with spare processors is a pure delay" `Quick
            test_ps_spare_processors_pure_delay;
          Alcotest.test_case "M/M/16 mean (Erlang-C)" `Slow test_mm16_mean;
          Alcotest.test_case "16xM/M/1 = M/M/1" `Slow test_partitioned_matches_mm1;
          Alcotest.test_case "M/D/1 wait" `Slow test_md1_wait;
          Alcotest.test_case "p99 floor" `Slow test_p99_exponential_floor;
        ] );
      ( "paper-observations",
        [
          Alcotest.test_case "central beats partitioned (obs 1)" `Slow
            test_central_beats_partitioned_p99;
          Alcotest.test_case "FCFS vs PS by dispersion (obs 2)" `Slow
            test_fcfs_beats_ps_low_dispersion;
          Alcotest.test_case "SLO capacities (53.7%/96.3%)" `Slow test_paper_slo_loads;
        ] );
      ( "api",
        [
          Alcotest.test_case "validation" `Quick test_simulate_validation;
          Alcotest.test_case "names" `Quick test_names;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "FCFS model points pinned" `Quick (test_model_points_pinned Fcfs);
          Alcotest.test_case "PS model points pinned" `Quick (test_model_points_pinned Ps);
        ] );
    ]

(* Integration tests: the full pipeline (load generator -> simulated
   server -> client-side measurement) across systems and distributions,
   plus convergence of the system models to their idealized queueing
   models for large tasks (the central claim of §3.4). *)

module Run = Experiments.Run
module Dist = Engine.Dist

let point ?(requests = 10_000) ?(conns = 2752) system ~service ~load =
  let cfg = Run.config ~system ~service ~requests ~conns () in
  Run.run_point cfg ~load

(* Matrix smoke: every system x distribution x load combination completes
   with per-connection ordering intact and plausible latency floors. *)
let test_matrix_invariants () =
  let dists = [ Dist.deterministic 10.; Dist.exponential 10.; Dist.bimodal1 ~mean:10. ] in
  List.iter
    (fun system ->
      List.iter
        (fun service ->
          List.iter
            (fun load ->
              let p = point ~requests:6_000 system ~service ~load in
              let label =
                Printf.sprintf "%s/%s@%.1f" (Run.system_name system) (Dist.name service) load
              in
              Alcotest.(check int) (label ^ " ordering") 0 p.Run.order_violations;
              (* Latency can never undercut the smallest service time. *)
              let floor =
                match service with
                | Dist.Bimodal { fast; _ } -> fast
                | _ -> 0.8 *. Dist.mean service
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s p50 %.1f above service floor" label p.Run.p50)
                true (p.Run.p50 >= floor))
            [ 0.3; 0.75 ])
        dists)
    Run.all_real_systems

(* §3.4(a): IX converges to the partitioned-FCFS model as tasks grow. *)
let test_ix_converges_to_partitioned_model () =
  let service = Dist.exponential 200. in
  let ix = point ~requests:25_000 (Run.Ix 1) ~service ~load:0.5 in
  let model = point ~requests:25_000 Run.Model_partitioned_fcfs ~service ~load:0.5 in
  let ratio = ix.Run.p99 /. model.Run.p99 in
  Alcotest.(check bool)
    (Printf.sprintf "ix p99 within 15%% of model (ratio %.3f)" ratio)
    true
    (ratio > 0.85 && ratio < 1.15)

(* §3.4(b): Linux-floating converges to the centralized-FCFS model. *)
let test_floating_converges_to_central_model () =
  let service = Dist.exponential 200. in
  let lin = point Run.Linux_floating ~service ~load:0.5 in
  let model = point Run.Model_central_fcfs ~service ~load:0.5 in
  let ratio = lin.Run.p99 /. model.Run.p99 in
  Alcotest.(check bool)
    (Printf.sprintf "floating p99 within 15%% of model (ratio %.3f)" ratio)
    true
    (ratio > 0.85 && ratio < 1.15)

(* ZygOS converges to centralized-FCFS far faster than Linux does — at
   25µs it is already within ~20% of the model at 70% load (Fig. 6e). *)
let test_zygos_fast_convergence () =
  let service = Dist.exponential 25. in
  let zygos = point Run.Zygos ~service ~load:0.7 in
  let model = point Run.Model_central_fcfs ~service ~load:0.7 in
  let ratio = zygos.Run.p99 /. model.Run.p99 in
  Alcotest.(check bool)
    (Printf.sprintf "zygos/model p99 ratio %.2f < 1.35" ratio)
    true (ratio < 1.35)

(* The bimodal-1 distribution is where HOL blocking bites: ZygOS's
   advantage over IX must be larger than for the deterministic
   distribution at the same load. *)
let test_hol_blocking_hurts_ix_most_with_dispersion () =
  (* Measured as the absolute p99 gap: ZygOS's own floor also rises with
     dispersion (slow bimodal requests are slow everywhere), but the µs
     cost of head-of-line blocking in IX grows faster. *)
  let gap service =
    let ix = point (Run.Ix 1) ~service ~load:0.6 in
    let zy = point Run.Zygos ~service ~load:0.6 in
    ix.Run.p99 -. zy.Run.p99
  in
  let det = gap (Dist.deterministic 10.) in
  let bimodal = gap (Dist.bimodal1 ~mean:10.) in
  Alcotest.(check bool)
    (Printf.sprintf "zygos advantage grows with dispersion (%.0fus -> %.0fus)" det bimodal)
    true (bimodal > det)

(* Throughput plateaus at capacity beyond saturation instead of tracking
   the offered rate. *)
let test_throughput_plateaus () =
  let service = Dist.exponential 10. in
  let at load = (point (Run.Ix 1) ~service ~load).Run.throughput in
  let t95 = at 0.95 and t99 = at 0.99 in
  Alcotest.(check bool)
    (Printf.sprintf "plateau: %.3f vs %.3f" t95 t99)
    true
    (abs_float (t99 -. t95) /. t95 < 0.08)

(* The Silo pipeline end to end: real execution -> empirical distribution
   -> simulated serving, with ordering preserved. *)
let test_silo_empirical_pipeline () =
  let samples = Experiments.Figures.silo_service_samples ~scale:0.05 in
  Alcotest.(check bool) "enough samples" true (Array.length samples > 1_000);
  let service = Dist.empirical samples in
  Alcotest.(check (float 2.)) "normalized mean 33us" 33. (Dist.mean service);
  let p = point ~requests:6_000 Run.Zygos ~service ~load:0.6 ~conns:2752 in
  Alcotest.(check int) "ordering" 0 p.Run.order_violations;
  Alcotest.(check bool) "tail above service p99" true (p.Run.p99 > 100.)

(* memcached workload end to end through each system at one load. *)
let test_kv_pipeline () =
  let service = Experiments.Figures.memcached_service Usr ~samples:5_000 in
  List.iter
    (fun system ->
      let p = point ~requests:8_000 system ~service ~load:0.25 in
      Alcotest.(check int)
        (Run.system_name system ^ " ordering")
        0 p.Run.order_violations)
    [ Run.Ix 1; Run.Ix 64; Run.Zygos; Run.Linux_floating ]

(* Different connection counts: fewer connections increase pipelining
   (more same-conn batching) but never break ordering. *)
let test_few_connections () =
  let service = Dist.exponential 10. in
  List.iter
    (fun conns ->
      let p = point ~requests:6_000 ~conns Run.Zygos ~service ~load:0.7 in
      Alcotest.(check int)
        (Printf.sprintf "%d conns ordering" conns)
        0 p.Run.order_violations)
    [ 16; 64; 2752 ]

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "matrix invariants" `Slow test_matrix_invariants;
          Alcotest.test_case "throughput plateaus" `Quick test_throughput_plateaus;
          Alcotest.test_case "silo empirical pipeline" `Slow test_silo_empirical_pipeline;
          Alcotest.test_case "kv pipeline" `Quick test_kv_pipeline;
          Alcotest.test_case "few connections" `Quick test_few_connections;
        ] );
      ( "model-convergence",
        [
          Alcotest.test_case "ix -> partitioned model" `Quick
            test_ix_converges_to_partitioned_model;
          Alcotest.test_case "floating -> central model" `Quick
            test_floating_converges_to_central_model;
          Alcotest.test_case "zygos fast convergence" `Quick test_zygos_fast_convergence;
          Alcotest.test_case "dispersion hurts ix most" `Quick
            test_hol_blocking_hurts_ix_most_with_dispersion;
        ] );
    ]

(* Tests for lib/systems: correctness invariants of every server model
   (ordering, work conservation, no drops) and the paper's qualitative
   results as executable assertions. *)

module Run = Experiments.Run
module Dist = Engine.Dist

(* The five simulated servers (both IX batchings excluded). *)
let real_systems =
  [ Run.Linux_partitioned; Run.Linux_floating; Run.Ix 1; Run.Zygos; Run.Zygos_no_interrupts ]

let point ?(requests = 12_000) ?(seed = 42) system ~service ~load =
  let cfg = Run.config ~system ~service ~requests ~seed () in
  Run.run_point cfg ~load

let exp10 = Dist.exponential 10.

(* Every system, at moderate and near-saturation load: responses must come
   back in per-connection order and nothing may be dropped. *)
let test_invariants_all_systems () =
  List.iter
    (fun system ->
      List.iter
        (fun load ->
          let p = point system ~service:exp10 ~load in
          Alcotest.(check int)
            (Printf.sprintf "%s@%.2f order violations" (Run.system_name system) load)
            0 p.Run.order_violations;
          (match List.assoc_opt "ring_drops" p.Run.info with
          | Some d ->
              Alcotest.(check (float 0.))
                (Printf.sprintf "%s@%.2f drops" (Run.system_name system) load)
                0. d
          | None -> ());
          Alcotest.(check bool)
            (Printf.sprintf "%s@%.2f completed some" (Run.system_name system) load)
            true
            (p.Run.completed > 0))
        [ 0.4; 0.85 ])
    real_systems

let test_zygos_work_conserving () =
  List.iter
    (fun load ->
      let p = point Run.Zygos ~service:exp10 ~load in
      Alcotest.(check (float 0.)) "work conservation" 0.
        (Option.value ~default:1. (List.assoc_opt "wc_violations" p.Run.info)))
    [ 0.3; 0.6; 0.9 ]

let test_zygos_steals_and_ipis () =
  let p = point Run.Zygos ~service:exp10 ~load:0.7 in
  let get k = Option.value ~default:0. (List.assoc_opt k p.Run.info) in
  Alcotest.(check bool) "steals happen" true (get "steal_fraction" > 0.05);
  Alcotest.(check bool) "ipis happen" true (get "ipis_sent" > 0.);
  let p0 = point Run.Zygos_no_interrupts ~service:exp10 ~load:0.7 in
  let get0 k = Option.value ~default:0. (List.assoc_opt k p0.Run.info) in
  Alcotest.(check (float 0.)) "no ipis in cooperative mode" 0. (get0 "ipis_sent");
  Alcotest.(check bool) "cooperative still steals" true (get0 "steal_fraction" > 0.01)

let test_zygos_beats_ix_tail () =
  (* §6.1: ZygOS substantially reduces tail latency over IX for 10µs
     exponential tasks at medium-high load. *)
  List.iter
    (fun load ->
      let zygos = point Run.Zygos ~service:exp10 ~load in
      let ix = point (Run.Ix 1) ~service:exp10 ~load in
      if zygos.Run.p99 >= ix.Run.p99 then
        Alcotest.failf "at load %.2f: zygos p99 %.1f >= ix p99 %.1f" load zygos.Run.p99
          ix.Run.p99)
    [ 0.5; 0.7; 0.8 ]

let test_zygos_approaches_central_model () =
  (* ZygOS tracks the zero-overhead M/G/16/FCFS bound within a small
     multiple at moderate load (Fig. 6b). *)
  let model = point Run.Model_central_fcfs ~service:exp10 ~load:0.7 in
  let zygos = point Run.Zygos ~service:exp10 ~load:0.7 in
  Alcotest.(check bool)
    (Printf.sprintf "zygos p99 %.1f within 1.6x of model %.1f" zygos.Run.p99 model.Run.p99)
    true
    (zygos.Run.p99 <= 1.6 *. model.Run.p99)

let test_interrupts_help () =
  (* Fig. 6: the cooperative variant has a visibly worse tail at medium
     load (head-of-line blocking before network processing). *)
  let with_ipi = point Run.Zygos ~service:exp10 ~load:0.6 in
  let without = point Run.Zygos_no_interrupts ~service:exp10 ~load:0.6 in
  Alcotest.(check bool)
    (Printf.sprintf "noint p99 %.1f > zygos p99 %.1f" without.Run.p99 with_ipi.Run.p99)
    true
    (without.Run.p99 > with_ipi.Run.p99)

let test_linux_floating_beats_partitioned_tail () =
  (* §3.4(b): floating connections rebalance and win on tail latency at
     loads where both are stable. *)
  let floating = point Run.Linux_floating ~service:(Dist.exponential 50.) ~load:0.5 in
  let partitioned = point Run.Linux_partitioned ~service:(Dist.exponential 50.) ~load:0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "floating %.1f <= partitioned %.1f" floating.Run.p99 partitioned.Run.p99)
    true
    (floating.Run.p99 <= partitioned.Run.p99)

let test_ix_batching_tradeoff () =
  (* §6.2/Fig. 11: batching buys throughput for tiny tasks. *)
  let tiny = Dist.deterministic 1.0 in
  let b1 = point (Run.Ix 1) ~service:tiny ~load:0.35 in
  let b64 = point (Run.Ix 64) ~service:tiny ~load:0.35 in
  Alcotest.(check bool)
    (Printf.sprintf "B=64 tput %.2f >= B=1 tput %.2f" b64.Run.throughput b1.Run.throughput)
    true
    (b64.Run.throughput >= 0.98 *. b1.Run.throughput)

let test_zygos_saturation_close_to_ix () =
  (* Requirement #4 (§4.1): minimally degrade small-task throughput vs a
     shared-nothing dataplane. Accept within 7%. *)
  let at_sat system =
    let p = point system ~service:exp10 ~load:0.98 in
    p.Run.throughput
  in
  let ix = at_sat (Run.Ix 1) and zygos = at_sat Run.Zygos in
  Alcotest.(check bool)
    (Printf.sprintf "zygos sat %.3f within 7%% of ix %.3f" zygos ix)
    true
    (zygos >= 0.93 *. ix)

let test_linux_overhead_larger () =
  (* Linux saturates well below the dataplanes for 10µs tasks. *)
  let lin = point Run.Linux_partitioned ~service:exp10 ~load:0.98 in
  let ix = point (Run.Ix 1) ~service:exp10 ~load:0.98 in
  Alcotest.(check bool)
    (Printf.sprintf "linux sat %.3f < ix sat %.3f" lin.Run.throughput ix.Run.throughput)
    true
    (lin.Run.throughput < ix.Run.throughput)

let test_determinism () =
  let a = point ~seed:7 Run.Zygos ~service:exp10 ~load:0.6 in
  let b = point ~seed:7 Run.Zygos ~service:exp10 ~load:0.6 in
  Alcotest.(check (float 0.)) "identical p99 for identical seed" a.Run.p99 b.Run.p99;
  let c = point ~seed:8 Run.Zygos ~service:exp10 ~load:0.6 in
  Alcotest.(check bool) "different seed differs" true (c.Run.p99 <> a.Run.p99)

let test_params_validation () =
  let p = Systems.Params.default () in
  Alcotest.check_raises "bad batch" (Invalid_argument "Params.with_ix_batch: b < 1") (fun () ->
      ignore (Systems.Params.with_ix_batch p 0 : Systems.Params.t));
  Alcotest.(check bool) "no_interrupts flips flag" false
    (Systems.Params.no_interrupts p).Systems.Params.zy_interrupts

let test_iface_info_lookup () =
  let p = point Run.Zygos ~service:exp10 ~load:0.3 in
  Alcotest.(check bool) "info has steal_fraction" true
    (List.mem_assoc "steal_fraction" p.Run.info)

let () =
  Alcotest.run "systems"
    [
      ( "invariants",
        [
          Alcotest.test_case "ordering + no drops (all systems)" `Slow
            test_invariants_all_systems;
          Alcotest.test_case "zygos work conservation" `Slow test_zygos_work_conserving;
          Alcotest.test_case "steal/ipi counters" `Quick test_zygos_steals_and_ipis;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "params validation" `Quick test_params_validation;
          Alcotest.test_case "iface info" `Quick test_iface_info_lookup;
        ] );
      ( "paper-properties",
        [
          Alcotest.test_case "zygos beats ix tail" `Slow test_zygos_beats_ix_tail;
          Alcotest.test_case "zygos near central model" `Quick test_zygos_approaches_central_model;
          Alcotest.test_case "interrupts help" `Quick test_interrupts_help;
          Alcotest.test_case "floating beats partitioned" `Quick
            test_linux_floating_beats_partitioned_tail;
          Alcotest.test_case "ix batching tradeoff" `Quick test_ix_batching_tradeoff;
          Alcotest.test_case "zygos throughput near ix" `Quick test_zygos_saturation_close_to_ix;
          Alcotest.test_case "linux overheads" `Quick test_linux_overhead_larger;
        ] );
    ]

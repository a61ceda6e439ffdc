(* Tests for the two future-work extensions: the preemptive centralized
   scheduler (§2.3 Observation 2) and the RSS-reprogramming control plane
   (§5), plus the supporting API (dynamic indirection table, skewed load
   generation). *)

module Run = Experiments.Run
module Dist = Engine.Dist
module Rss = Net.Rss

let point ?(requests = 12_000) ?selection system ~service ~load =
  let cfg = Run.config ~system ~service ~requests ?selection () in
  Run.run_point cfg ~load

(* ---- preemptive scheduler ---- *)

let test_preemptive_wins_on_bimodal2 () =
  (* Under extreme dispersion, preemption must beat every FCFS system by a
     wide margin at the tail (Fig. 2d's PS-vs-FCFS gap, with overheads). *)
  let service = Dist.bimodal2 ~mean:10. in
  let pre = point (Run.Preemptive 5.) ~service ~load:0.6 in
  let zygos = point Run.Zygos ~service ~load:0.6 in
  let ix = point (Run.Ix 1) ~service ~load:0.6 in
  Alcotest.(check bool)
    (Printf.sprintf "preempt %.1f << zygos %.1f << ix %.1f" pre.Run.p99 zygos.Run.p99 ix.Run.p99)
    true
    (pre.Run.p99 < 0.5 *. zygos.Run.p99 && zygos.Run.p99 < 0.1 *. ix.Run.p99)

let test_preemptive_overhead_on_fixed () =
  (* On deterministic tasks preemption has nothing to offer: a small
     quantum only adds context switches (more preemptions, higher tail
     than a large quantum). *)
  let service = Dist.deterministic 10. in
  let q1 = point (Run.Preemptive 1.) ~service ~load:0.6 in
  let q20 = point (Run.Preemptive 20.) ~service ~load:0.6 in
  Alcotest.(check bool)
    (Printf.sprintf "q=1 tail %.1f worse than q=20 tail %.1f" q1.Run.p99 q20.Run.p99)
    true
    (q1.Run.p99 > q20.Run.p99);
  let preemptions p = Option.value ~default:0. (List.assoc_opt "preemptions_per_request" p.Run.info) in
  (* Preemption fires only when other work queues behind the running job,
     so the per-request count reflects queueing frequency, not 10/q. *)
  Alcotest.(check bool) "q=1 preempts regularly" true (preemptions q1 > 0.2);
  Alcotest.(check bool) "q=20 never preempts fixed 10us work" true (preemptions q20 = 0.)

let test_preemptive_ordering_and_args () =
  let service = Dist.bimodal2 ~mean:10. in
  let p = point (Run.Preemptive 5.) ~service ~load:0.7 in
  Alcotest.(check int) "per-conn ordering preserved" 0 p.Run.order_violations;
  let sim = Engine.Sim.create () in
  Alcotest.check_raises "quantum <= 0" (Invalid_argument "Preemptive.create: quantum <= 0")
    (fun () ->
      ignore
        (Systems.Preemptive.create sim (Systems.Params.default ()) ~quantum:0.
           ~pool:(Net.Request.create_pool ()) ~conns:1
           ~respond:(fun _ -> ())
           ()
          : Systems.Iface.t))

(* Preemptive slices are not tied to cores, so the model cannot apply a
   per-core straggler window: it refuses one rather than ignore it. *)
let test_preemptive_rejects_stragglers () =
  let stragglers =
    [ { Core.Corefault.core = 0; start = 0.; duration = 1e3; slowdown = infinity } ]
  in
  let cfg =
    Run.config ~system:(Run.Preemptive 5.) ~service:(Dist.exponential 10.) ~cores:4 ~conns:16
      ~requests:500 ~stragglers ()
  in
  Alcotest.check_raises "straggler spec"
    (Invalid_argument "Preemptive.create: straggler windows are not modelled") (fun () ->
      ignore (Run.run_point cfg ~load:0.5 : Run.point))

(* A duplicated packet re-submits the same request handle. The copy
   waits behind the original on its connection and, like any first
   dispatch, pays the receive path again. *)
let test_preemptive_duplicate_pays_rx () =
  let sim = Engine.Sim.create () in
  let p = Systems.Params.default ~cores:1 () in
  let pool = Net.Request.create_pool () in
  let req = Net.Request.alloc pool ~id:0 ~conn:0 ~measured:true [| 0.; 1. |] in
  let responses = ref [] in
  let system =
    Systems.Preemptive.create sim p ~quantum:100. ~pool ~conns:1
      ~respond:(fun _ -> responses := Engine.Sim.now sim :: !responses)
      ()
  in
  system.Systems.Iface.submit req;
  system.Systems.Iface.submit req;
  Engine.Sim.run sim;
  match !responses with
  | [ second; first ] ->
      (* Only the original waits one poll iteration for the idle core. *)
      Alcotest.(check (float 1e-9)) "copy runs the same path" (first -. p.dp_loop)
        (second -. first)
  | l -> Alcotest.failf "expected 2 responses, got %d" (List.length l)

(* ---- RSS dynamic indirection ---- *)

let test_rss_slot_reprogramming () =
  let rss = Rss.create ~queues:4 () in
  Alcotest.(check int) "128 slots" 128 Rss.slots;
  let conn = 7 in
  let slot = Rss.slot_of_conn conn in
  let before = Rss.queue_of_conn rss conn in
  Alcotest.(check int) "slot consistent with queue" before (Rss.queue_of_slot rss slot);
  let target = (before + 1) mod 4 in
  Rss.set_slot rss ~slot ~queue:target;
  Alcotest.(check int) "remap visible" target (Rss.queue_of_conn rss conn);
  Alcotest.(check int) "slot stable across remap" slot (Rss.slot_of_conn conn);
  Alcotest.check_raises "bad slot" (Invalid_argument "Rss.set_slot: slot out of range")
    (fun () -> Rss.set_slot rss ~slot:128 ~queue:0)

(* ---- skewed load generation ---- *)

let test_hot_cold_selection () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:5 in
  let pool = Net.Request.create_pool ~recycle:true () in
  let gen =
    Net.Loadgen.create sim ~rng ~pool ~conns:100 ~rate:1.0
      ~service:(Dist.deterministic 1.)
      ~selection:(Net.Loadgen.Hot_cold { hot_fraction = 0.1; hot_load = 0.6 })
      ()
  in
  let hot_hits = ref 0 and total = ref 0 in
  Net.Loadgen.set_target gen (fun req ->
      incr total;
      if Net.Request.conn pool req < 10 then incr hot_hits;
      Net.Loadgen.complete gen req);
  Net.Loadgen.start gen ~warmup:0. ~measure:20_000.;
  Engine.Sim.run sim;
  let frac = float_of_int !hot_hits /. float_of_int !total in
  Alcotest.(check bool)
    (Printf.sprintf "hot 10%% of conns got %.2f of load (want ~0.6)" frac)
    true
    (abs_float (frac -. 0.6) < 0.03)

let test_hot_cold_validation () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:6 in
  List.iter
    (fun (name, hot_fraction, hot_load) ->
      Alcotest.check_raises name
        (Invalid_argument "Loadgen.create: Hot_cold fractions must be in (0, 1)") (fun () ->
          ignore
            (Net.Loadgen.create sim ~rng ~pool:(Net.Request.create_pool ()) ~conns:10
               ~rate:1.0 ~service:(Dist.deterministic 1.)
               ~selection:(Net.Loadgen.Hot_cold { hot_fraction; hot_load })
               ()
              : Net.Loadgen.t)))
    [ ("bad fractions", 1.5, 0.5); ("NaN hot_fraction", nan, 0.5); ("NaN hot_load", 0.1, nan) ]

(* ---- the control plane ---- *)

let skew = Net.Loadgen.Hot_cold { hot_fraction = 0.05; hot_load = 0.5 }

let test_rebalance_reduces_skewed_tail () =
  let service = Dist.exponential 10. in
  let static = point ~selection:skew (Run.Ix 1) ~service ~load:0.8 in
  let rebalanced = point ~selection:skew Run.Ix_rebalanced ~service ~load:0.8 in
  Alcotest.(check bool)
    (Printf.sprintf "rebalanced p99 %.1f < 0.7 x static %.1f" rebalanced.Run.p99 static.Run.p99)
    true
    (rebalanced.Run.p99 < 0.7 *. static.Run.p99);
  let moves = Option.value ~default:0. (List.assoc_opt "rebalance_moves" rebalanced.Run.info) in
  Alcotest.(check bool) "controller actually moved slots" true (moves > 0.)

let test_zygos_immune_to_skew () =
  (* Work stealing absorbs persistent imbalance with no control plane:
     the skewed tail stays within a small factor of the uniform one. *)
  let service = Dist.exponential 10. in
  let uniform = point Run.Zygos ~service ~load:0.7 in
  let skewed = point ~selection:skew Run.Zygos ~service ~load:0.7 in
  Alcotest.(check bool)
    (Printf.sprintf "skewed p99 %.1f within 1.5x of uniform %.1f" skewed.Run.p99 uniform.Run.p99)
    true
    (skewed.Run.p99 < 1.5 *. uniform.Run.p99);
  Alcotest.(check int) "no order violations" 0 skewed.Run.order_violations

let test_rebalance_idle_terminates () =
  (* The controller must stop re-arming once traffic ends, or simulations
     would never terminate. This run finishing at all is the test; also
     check it observed a bounded number of windows. *)
  let service = Dist.exponential 10. in
  let p = point ~requests:4_000 ~selection:skew Run.Ix_rebalanced ~service ~load:0.4 in
  let windows = Option.value ~default:0. (List.assoc_opt "rebalance_windows" p.Run.info) in
  Alcotest.(check bool) "controller ticked and stopped" true (windows > 2. && windows < 10_000.)

(* ---- consolidation ---- *)

let run_consolidated ~load =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:42 in
  let service = Dist.exponential 10. in
  let rate = load *. 16. /. 10. in
  let pool = Net.Request.create_pool ~recycle:true () in
  let gen =
    Net.Loadgen.create sim ~rng:(Engine.Rng.split rng) ~pool ~conns:512 ~rate ~service ()
  in
  let system =
    Systems.Preemptive.create sim (Systems.Params.default ()) ~quantum:10. ~pool ~conns:512
      ~respond:(fun req -> Net.Loadgen.complete gen req)
      ~consolidate:true ()
  in
  Net.Loadgen.set_target gen system.Systems.Iface.submit;
  let measure = 8_000. /. rate in
  Net.Loadgen.start gen ~warmup:(0.3 *. measure) ~measure;
  Engine.Sim.run sim;
  let avg = Option.get (Systems.Iface.info_value system "avg_active_cores") in
  (avg, Stats.Tally.p99 (Net.Loadgen.tally gen), Net.Loadgen.order_violations gen)

let test_consolidation_parks_at_low_load () =
  let avg, _, violations = run_consolidated ~load:0.1 in
  Alcotest.(check int) "ordering" 0 violations;
  Alcotest.(check bool)
    (Printf.sprintf "avg active cores %.1f well below 16" avg)
    true (avg < 8.)

let test_consolidation_scales_up_at_high_load () =
  let avg, p99, _ = run_consolidated ~load:0.8 in
  Alcotest.(check bool) (Printf.sprintf "avg active %.1f near 16" avg) true (avg > 14.);
  Alcotest.(check bool) (Printf.sprintf "latency sane: %.1f" p99) true (p99 < 500.)

let () =
  Alcotest.run "extensions"
    [
      ( "preemptive",
        [
          Alcotest.test_case "wins on bimodal-2" `Quick test_preemptive_wins_on_bimodal2;
          Alcotest.test_case "overhead on fixed" `Quick test_preemptive_overhead_on_fixed;
          Alcotest.test_case "ordering + validation" `Quick test_preemptive_ordering_and_args;
          Alcotest.test_case "duplicate pays the receive path" `Quick
            test_preemptive_duplicate_pays_rx;
          Alcotest.test_case "rejects straggler windows" `Quick
            test_preemptive_rejects_stragglers;
        ] );
      ( "rss-control",
        [
          Alcotest.test_case "slot reprogramming" `Quick test_rss_slot_reprogramming;
          Alcotest.test_case "hot/cold selection" `Quick test_hot_cold_selection;
          Alcotest.test_case "hot/cold validation" `Quick test_hot_cold_validation;
          Alcotest.test_case "rebalance reduces skewed tail" `Quick
            test_rebalance_reduces_skewed_tail;
          Alcotest.test_case "zygos immune to skew" `Quick test_zygos_immune_to_skew;
          Alcotest.test_case "controller terminates" `Quick test_rebalance_idle_terminates;
        ] );
      ( "consolidation",
        [
          Alcotest.test_case "parks at low load" `Quick test_consolidation_parks_at_low_load;
          Alcotest.test_case "scales up at high load" `Quick
            test_consolidation_scales_up_at_high_load;
        ] );
    ]

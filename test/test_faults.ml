(* Fault-injection & overload-control layer tests (PR 2):

   - Corefault: exact clock arithmetic, stalls, window validation.
   - Faults: plan validation, per-kind counters, delivery semantics, and
     the headline determinism property — an all-zero-rate plan yields a
     byte-identical run (histogram samples compared bit for bit) to no
     plan at all.
   - Loadgen resilience: backoff schedule, retry-budget exhaustion,
     duplicate-response tolerance.
   - Overload: shedding-policy boundaries for both policies.
   - Ring drops: summed across queues and surfaced uniformly by all
     server models.
   - Acceptance: ZygOS degrades strictly less than IX under a straggler;
     shedding keeps goodput alive through a retry storm that collapses
     the unprotected server. *)

module Sim = Engine.Sim
module Rng = Engine.Rng
module Dist = Engine.Dist
module Corefault = Core.Corefault
module Faults = Net.Faults
module Loadgen = Net.Loadgen
module Request = Net.Request
module Overload = Systems.Overload
module Run = Experiments.Run

let check_raises_any name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

(* ---- Corefault ---- *)

let test_corefault_exact_when_clear () =
  (* Outside every window the fault layer must return [now +. work] with
     bit-identical float arithmetic — this is what keeps a fault-free run
     reproducible against the pre-fault goldens. *)
  let f = Corefault.create [ { core = 1; start = 100.; duration = 50.; slowdown = 4. } ] in
  let cases = [ (0.1, 3.7); (17.3, 0.0); (99.9, 0.05); (151.0, 42.0) ] in
  List.iter
    (fun (now, work) ->
      let expected = now +. work in
      let got = Corefault.completion_time f ~core:0 ~now ~work in
      Alcotest.(check bool)
        "other core untouched" true
        (Int64.bits_of_float got = Int64.bits_of_float expected))
    cases;
  (* Same core, but execution entirely before / after the window. *)
  let got = Corefault.completion_time f ~core:1 ~now:10. ~work:5. in
  Alcotest.(check bool) "before window" true (got = 15.);
  let got = Corefault.completion_time f ~core:1 ~now:200. ~work:5. in
  Alcotest.(check bool) "after window" true (got = 205.)

let test_corefault_slowdown_integration () =
  let f = Corefault.create [ { core = 0; start = 10.; duration = 10.; slowdown = 2. } ] in
  (* Start at 5: 5µs at full speed reach the window having done 5µs of
     work; the remaining 5µs run at half speed inside the window (10µs of
     wall clock ends exactly at the window end). *)
  let got = Corefault.completion_time f ~core:0 ~now:5. ~work:10. in
  Alcotest.(check (float 1e-9)) "spans into window" 20. got;
  (* Entirely inside: 2µs of work takes 4µs of wall clock. *)
  let got = Corefault.completion_time f ~core:0 ~now:12. ~work:2. in
  Alcotest.(check (float 1e-9)) "inside window" 16. got;
  (* Crosses out the far side: window holds 5µs of work in its last 10µs
     of wall clock; the last 3µs run at full speed after it. *)
  let got = Corefault.completion_time f ~core:0 ~now:10. ~work:8. in
  Alcotest.(check (float 1e-9)) "spans out of window" 23. got

let test_corefault_stall () =
  let f =
    Corefault.create [ { core = 0; start = 10.; duration = 10.; slowdown = infinity } ]
  in
  (* Work starting inside a full stall resumes at the window end. *)
  let got = Corefault.completion_time f ~core:0 ~now:12. ~work:3. in
  Alcotest.(check (float 1e-9)) "stall defers work" 23. got

let test_corefault_validation () =
  check_raises_any "negative core" (fun () ->
      Corefault.validate_spec { core = -1; start = 0.; duration = 1.; slowdown = 2. });
  check_raises_any "slowdown < 1" (fun () ->
      Corefault.validate_spec { core = 0; start = 0.; duration = 1.; slowdown = 0.5 });
  check_raises_any "nan start" (fun () ->
      Corefault.validate_spec { core = 0; start = Float.nan; duration = 1.; slowdown = 2. });
  check_raises_any "overlapping windows" (fun () ->
      Corefault.create
        [
          { core = 0; start = 0.; duration = 10.; slowdown = 2. };
          { core = 0; start = 5.; duration = 10.; slowdown = 3. };
        ]);
  Alcotest.(check bool) "none is none" true (Corefault.is_none Corefault.none)

(* ---- Faults: plan validation & counters ---- *)

let test_plan_validation () =
  check_raises_any "rate > 1" (fun () -> Faults.plan ~drop:1.5 ());
  check_raises_any "negative rate" (fun () -> Faults.plan ~reorder:(-0.1) ());
  let p = Faults.plan () in
  Faults.validate_plan p;
  Alcotest.(check bool) "default plan is all zero" true
    (p.drop = 0. && p.duplicate = 0. && p.reorder = 0.)

let test_fault_counters () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:99 in
  let n = 10_000 in
  (* Deterministic extremes first. *)
  let delivered = ref 0 in
  let deliver _ = incr delivered in
  let all_drop = Faults.create sim ~rng ~plan:(Faults.plan ~drop:1.0 ()) ~deliver () in
  for pkt = 1 to n do
    Faults.apply all_drop pkt
  done;
  Alcotest.(check int) "all dropped" 0 !delivered;
  Alcotest.(check int) "drop count" n (int_of_float (List.assoc "fault_drops" (Faults.info all_drop)));
  delivered := 0;
  let all_dup = Faults.create sim ~rng ~plan:(Faults.plan ~duplicate:1.0 ()) ~deliver () in
  for pkt = 1 to n do
    Faults.apply all_dup pkt
  done;
  Sim.run sim;
  Alcotest.(check int) "duplicates delivered twice" (2 * n) !delivered;
  (* Mixed plan: counters are consistent with deliveries. *)
  let sim = Sim.create () in
  delivered := 0;
  let mixed =
    Faults.create sim ~rng
      ~plan:(Faults.plan ~drop:0.1 ~duplicate:0.1 ~reorder:0.1 ())
      ~deliver ()
  in
  for pkt = 1 to n do
    Faults.apply mixed pkt
  done;
  Sim.run sim;
  let info = Faults.info mixed in
  let get k = int_of_float (List.assoc k info) in
  Alcotest.(check int) "packet count" n (get "fault_packets");
  Alcotest.(check int) "deliveries = survivors + duplicates" !delivered
    (n - get "fault_drops" + get "fault_duplicates");
  let expect_around name rate got =
    let exp_count = float_of_int n *. rate in
    if Float.abs (float_of_int got -. exp_count) > 5. *. sqrt exp_count then
      Alcotest.failf "%s: got %d, expected ~%.0f" name got exp_count
  in
  expect_around "drops" 0.1 (get "fault_drops");
  Alcotest.(check bool) "injected > 0" true (get "fault_injected" > 0)

(* ---- Zero-rate plan: byte-identical histograms ---- *)

let point_fingerprint (p : Run.point) =
  ( Int64.bits_of_float p.throughput,
    Int64.bits_of_float p.goodput,
    Int64.bits_of_float p.mean,
    Int64.bits_of_float p.p99,
    p.completed )

let test_zero_plan_identical () =
  QCheck.Test.make ~name:"zero-rate plan is byte-identical to no plan" ~count:8
    QCheck.(triple (int_range 1 1000) (int_range 0 2) (int_range 3 9))
    (fun (seed, sys_idx, load10) ->
      let system = List.nth [ Run.Linux_floating; Run.Ix 1; Run.Zygos ] sys_idx in
      let load = float_of_int load10 /. 10. in
      let cfg ?faults () =
        Run.config ~system ~service:(Dist.exponential 10.) ~cores:4 ~conns:64
          ~requests:800 ~seed ?faults ()
      in
      let base = Run.run_point (cfg ()) ~load in
      let zeroed = Run.run_point (cfg ~faults:(Faults.plan ()) ()) ~load in
      if point_fingerprint base <> point_fingerprint zeroed then
        QCheck.Test.fail_report "summary stats differ under zero-rate plan";
      true)

(* Bitwise histogram comparison needs the tallies themselves; run the
   loadgen pipeline directly for one system so the samples arrays can be
   compared element by element. *)
let test_zero_plan_samples_bitwise () =
  let run ~with_plan =
    let sim = Sim.create () in
    let rng = Rng.create ~seed:4242 in
    let loadgen_rng = Rng.split rng in
    let system_rng = Rng.split rng in
    let pool = Request.create_pool ~recycle:true () in
    let gen =
      Loadgen.create sim ~rng:loadgen_rng ~pool ~conns:64 ~rate:0.3
        ~service:(Dist.exponential 10.) ()
    in
    let params = Systems.Params.default ~cores:4 () in
    let system =
      Systems.Zygos.create sim params ~rng:system_rng ~pool ~conns:64
        ~respond:(fun req -> Loadgen.complete gen req)
        ()
    in
    let submit req = system.Systems.Iface.submit req in
    (if with_plan then begin
       let frng = Rng.split rng in
       let f = Faults.create sim ~rng:frng ~plan:(Faults.plan ()) ~deliver:submit () in
       Loadgen.set_target gen (Faults.apply f)
     end
     else Loadgen.set_target gen submit);
    Loadgen.start gen ~warmup:200. ~measure:2000.;
    Sim.run sim;
    Stats.Tally.samples (Loadgen.tally gen)
  in
  let a = run ~with_plan:false in
  let b = run ~with_plan:true in
  Alcotest.(check int) "sample counts equal" (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then
        Alcotest.failf "sample %d differs: %h vs %h" i x b.(i))
    a

(* ---- Loadgen resilience ---- *)

(* 50 µs doubling to an 800 µs cap, stretched by a jitter in [1, 1.2). *)
let test_backoff_schedule () =
  let rng = Rng.create ~seed:8 in
  List.iteri
    (fun i nominal ->
      let attempt = i + 1 in
      for _ = 1 to 100 do
        let d = Loadgen.backoff rng ~attempt in
        if not (d >= nominal && d < 1.2 *. nominal) then
          Alcotest.failf "attempt %d: %g outside [%g, %g)" attempt d nominal (1.2 *. nominal)
      done)
    [ 50.; 100.; 200.; 400.; 800.; 800.; 800. ];
  check_raises_any "attempt 0" (fun () -> Loadgen.backoff rng ~attempt:0);
  check_raises_any "bad timeout" (fun () -> Loadgen.retry ~timeout:0. ());
  check_raises_any "negative budget" (fun () -> Loadgen.retry ~max_retries:(-1) ())

let test_retry_budget_exhaustion () =
  (* A server that never answers: every logical request must burn its
     full budget (1 original + max_retries sends, each timing out) and
     then be abandoned. *)
  let sim = Sim.create () in
  let rng = Rng.create ~seed:5 in
  let max_retries = 3 in
  let retry = Loadgen.retry ~timeout:50. ~max_retries () in
  let gen =
    (* Retries keep handles alive past their timeouts: no recycling. *)
    Loadgen.create sim ~rng ~pool:(Request.create_pool ()) ~conns:4 ~rate:0.05
      ~service:(Dist.deterministic 1.) ~retry ()
  in
  let sent = ref 0 in
  Loadgen.set_target gen (fun _ -> incr sent);
  Loadgen.start gen ~warmup:0. ~measure:400.;
  Sim.run sim;
  let n = Loadgen.generated gen in
  Alcotest.(check bool) "generated some" true (n > 0);
  Alcotest.(check int) "every request abandoned" n (Loadgen.retry_exhausted gen);
  Alcotest.(check int) "retransmissions" (n * max_retries) (Loadgen.retries gen);
  Alcotest.(check int) "timeouts per attempt" (n * (max_retries + 1)) (Loadgen.timeouts gen);
  Alcotest.(check int) "sends observed" (n * (max_retries + 1)) !sent;
  Alcotest.(check int) "nothing completed" 0 (Stats.Tally.count (Loadgen.tally gen))

let test_retry_recovers_loss () =
  (* Drop the first transmission of every request; the retransmission
     must complete every logical request exactly once. *)
  let sim = Sim.create () in
  let rng = Rng.create ~seed:6 in
  let retry = Loadgen.retry ~timeout:30. ~max_retries:2 () in
  let pool = Request.create_pool () in
  let gen =
    Loadgen.create sim ~rng ~pool ~conns:4 ~rate:0.05 ~service:(Dist.deterministic 1.)
      ~retry ()
  in
  (* Retransmissions are marked [measured = false]; serving only those
     deterministically drops every first attempt. *)
  Loadgen.set_target gen (fun req ->
      if not (Request.measured pool req) then
        let _ : Sim.handle = Later.after sim ~delay:1. (fun () -> Loadgen.complete gen req) in
        ());
  Loadgen.start gen ~warmup:0. ~measure:300.;
  Sim.run sim;
  let n = Loadgen.generated gen in
  Alcotest.(check bool) "generated some" true (n > 0);
  Alcotest.(check int) "all logical requests completed" n
    (Stats.Tally.count (Loadgen.tally gen));
  Alcotest.(check int) "one retry each" n (Loadgen.retries gen);
  Alcotest.(check int) "no duplicates" 0 (Loadgen.duplicate_completions gen)

let test_duplicate_responses_tolerated () =
  (* Server answers twice; with retries enabled the duplicate must be
     counted and the latency recorded once. *)
  let sim = Sim.create () in
  let rng = Rng.create ~seed:7 in
  let retry = Loadgen.retry ~timeout:500. () in
  let gen =
    (* recycle:false — the duplicate completion below re-presents the
       handle after its first completion released it. *)
    Loadgen.create sim ~rng ~pool:(Request.create_pool ()) ~conns:2 ~rate:0.05
      ~service:(Dist.deterministic 1.) ~retry ()
  in
  Loadgen.set_target gen (fun req ->
      let _ : Sim.handle =
        Later.after sim ~delay:2. (fun () ->
            Loadgen.complete gen req;
            Loadgen.complete gen req)
      in
      ());
  Loadgen.start gen ~warmup:0. ~measure:200.;
  Sim.run sim;
  let n = Loadgen.generated gen in
  Alcotest.(check int) "completed once each" n (Stats.Tally.count (Loadgen.tally gen));
  Alcotest.(check int) "duplicates counted" n (Loadgen.duplicate_completions gen);
  Alcotest.(check int) "no retries needed" 0 (Loadgen.retries gen)

(* ---- Overload policies ---- *)

let mk_req pool id = Request.alloc pool ~id ~conn:0 ~measured:true [| 0.; 1. |]

let test_queue_length_boundary () =
  let pool = Request.create_pool () in
  let mk_req = mk_req pool in
  let g = Overload.create ~pool ~bound:2 in
  let forwarded = ref [] in
  let fwd req = forwarded := req :: !forwarded in
  let r1 = mk_req 1 and r2 = mk_req 2 and r3 = mk_req 3 in
  Overload.admit g r1 ~forward:fwd;
  Overload.admit g r2 ~forward:fwd;
  Overload.admit g r3 ~forward:fwd;
  Alcotest.(check int) "two admitted" 2 (List.length !forwarded);
  let info = Overload.info g in
  Alcotest.(check int) "peak at bound" 2 (int_of_float (List.assoc "inflight_peak" info));
  Alcotest.(check int) "one shed" 1 (int_of_float (List.assoc "shed" info));
  (* Retiring one opens a slot. *)
  Overload.note_response g r1;
  Overload.admit g (mk_req 4) ~forward:fwd;
  Alcotest.(check int) "slot reopened" 3 (List.length !forwarded);
  check_raises_any "bound 0 rejected" (fun () -> Overload.validate_bound 0)

(* ---- Ring drops summed across queues, all systems ---- *)

let test_ring_drops_sum () =
  let burst_into pool iface n =
    for i = 1 to n do
      iface.Systems.Iface.submit
        (Request.alloc pool ~id:i ~conn:(i mod 8) ~measured:true [| 0.; 1. |])
    done
  in
  let check_system name make =
    let sim = Sim.create () in
    let pool = Request.create_pool () in
    let completed = ref 0 in
    let iface = make sim ~pool ~respond:(fun _ -> incr completed) in
    let n = 400 in
    burst_into pool iface n;
    Sim.run sim;
    let drops =
      match Systems.Iface.info_value iface "ring_drops" with
      | Some d -> int_of_float d
      | None -> Alcotest.failf "%s: no ring_drops counter" name
    in
    Alcotest.(check bool) (name ^ ": burst overflows rings") true (drops > 0);
    Alcotest.(check int)
      (name ^ ": drops + completions = submissions")
      n (drops + !completed)
  in
  let params =
    { (Systems.Params.default ~cores:2 ()) with ring_capacity = 4 }
  in
  check_system "ix" (fun sim ~pool ~respond ->
      Systems.Ix.create sim params ~pool ~conns:8 ~respond);
  check_system "linux-partitioned" (fun sim ~pool ~respond ->
      Systems.Linux.partitioned sim params ~pool ~conns:8 ~respond);
  check_system "linux-floating" (fun sim ~pool ~respond ->
      Systems.Linux.floating sim params ~pool ~conns:8 ~respond);
  check_system "zygos" (fun sim ~pool ~respond ->
      Systems.Zygos.create sim params ~rng:(Rng.create ~seed:3) ~pool ~conns:8 ~respond ())

(* ---- Acceptance: straggler degradation, ZygOS < IX ---- *)

let test_straggler_degradation () =
  let service = Dist.exponential 10. in
  let cores = 16 in
  let requests = 6_000 in
  let load = 0.7 in
  let p99 system stragglers =
    let cfg = Run.config ~system ~service ~cores ~requests ~seed:11 ~stragglers () in
    (Run.run_point cfg ~load).Run.p99
  in
  let rate = load *. float_of_int cores /. Dist.mean service in
  let measure = float_of_int requests /. rate in
  let stragglers =
    [
      Corefault.
        { core = 0; start = 0.2 *. measure; duration = 0.25 *. measure; slowdown = 10. };
    ]
  in
  let ix_ratio = p99 (Run.Ix 1) stragglers /. p99 (Run.Ix 1) [] in
  let zy_ratio = p99 Run.Zygos stragglers /. p99 Run.Zygos [] in
  if not (zy_ratio < ix_ratio) then
    Alcotest.failf "ZygOS degraded more than IX: %.2fx vs %.2fx" zy_ratio ix_ratio;
  Alcotest.(check bool)
    (Printf.sprintf "IX hurt by straggler (%.2fx)" ix_ratio)
    true (ix_ratio > 2.);
  Alcotest.(check bool)
    (Printf.sprintf "ZygOS steals around it (%.2fx)" zy_ratio)
    true (zy_ratio < 2.)

(* ---- Acceptance: shedding prevents retry-storm goodput collapse ---- *)

let test_shedding_prevents_collapse () =
  let service = Dist.exponential 10. in
  let cores = 16 in
  let requests = 6_000 in
  let retry = Loadgen.retry ~timeout:200. ~max_retries:4 () in
  let goodput shed load =
    let cfg =
      Run.config ~system:(Run.Ix 1) ~service ~cores ~requests ~seed:13 ~retry ~slo:100.
        ?shed ()
    in
    (Run.run_point cfg ~load).Run.goodput
  in
  let bound = Some (2 * cores) in
  let unprotected_sat = goodput None 0.8 in
  let unprotected_over = goodput None 1.2 in
  let protected_sat = goodput bound 0.8 in
  let protected_over = goodput bound 1.2 in
  (* Without shedding, the retry storm collapses goodput past saturation. *)
  if not (unprotected_over < 0.2 *. unprotected_sat) then
    Alcotest.failf "expected collapse without shedding: %.3f -> %.3f" unprotected_sat
      unprotected_over;
  (* With shedding, goodput holds (within 40%) instead of collapsing. *)
  if not (protected_over > 0.6 *. protected_sat) then
    Alcotest.failf "shedding failed to hold goodput: %.3f -> %.3f" protected_sat
      protected_over;
  if not (protected_over > 3. *. unprotected_over) then
    Alcotest.failf "shedding not better than collapse: %.3f vs %.3f" protected_over
      unprotected_over

let () =
  Alcotest.run "faults"
    [
      ( "corefault",
        [
          Alcotest.test_case "exact outside windows" `Quick test_corefault_exact_when_clear;
          Alcotest.test_case "slowdown integration" `Quick test_corefault_slowdown_integration;
          Alcotest.test_case "stall" `Quick test_corefault_stall;
          Alcotest.test_case "validation" `Quick test_corefault_validation;
        ] );
      ( "net-faults",
        [
          Alcotest.test_case "plan validation" `Quick test_plan_validation;
          Alcotest.test_case "counters" `Quick test_fault_counters;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest (test_zero_plan_identical ());
          Alcotest.test_case "zero plan, bitwise samples" `Quick
            test_zero_plan_samples_bitwise;
        ] );
      ( "retries",
        [
          Alcotest.test_case "backoff schedule" `Quick test_backoff_schedule;
          Alcotest.test_case "budget exhaustion" `Quick test_retry_budget_exhaustion;
          Alcotest.test_case "loss recovery" `Quick test_retry_recovers_loss;
          Alcotest.test_case "duplicate responses" `Quick test_duplicate_responses_tolerated;
        ] );
      ( "overload",
        [
          Alcotest.test_case "queue-length boundary" `Quick test_queue_length_boundary;
        ] );
      ( "rings",
        [ Alcotest.test_case "drops sum across queues" `Quick test_ring_drops_sum ] );
      ( "acceptance",
        [
          Alcotest.test_case "straggler: zygos < ix" `Slow test_straggler_degradation;
          Alcotest.test_case "shedding prevents collapse" `Slow
            test_shedding_prevents_collapse;
        ] );
    ]

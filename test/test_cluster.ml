(* Rack tier tests (PR 7):

   - Policy: selection semantics per policy, routable masking, the
     no-draw guarantee on a 1-server rack, and agreement with a
     closure-based reference on seeded random cases.
   - Estimate: zero-delay exactness, staleness under a feedback delay,
     forced resync, refresh horizon.
   - Health: timeout thresholding, probe-slot gating, recovery counters.
   - Failplan: validation, window queries, link/straggler lowering.
   - Dispatch/Rack with scripted fake servers: the JBSQ bound invariant,
     timeout detection + failover recovery, hedged requests with
     first-response-wins dedupe.
   - Degeneracy: a 1-server rack under every policy, zero failure plan,
     zero feedback delay is bitwise identical (per-sample latencies) to
     the bare single-server pipeline at the same seed.
   - Determinism: rack points are byte-identical across heap/wheel event
     queues and across Sweep jobs counts.
   - Acceptance: queue-aware policies track the rack-wide centralized
     bound where static hashing collapses, and bound the p99 damage of a
     degraded server. *)

module Sim = Engine.Sim
module Rng = Engine.Rng
module Dist = Engine.Dist
module Policy = Cluster.Policy
module Estimate = Cluster.Estimate
module Health = Cluster.Health
module Failplan = Cluster.Failplan
module Dispatch = Cluster.Dispatch
module Rack = Cluster.Rack
module Request = Net.Request
module Loadgen = Net.Loadgen
module Run = Experiments.Run
module Rackrun = Experiments.Rackrun

let check_raises_any name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let all_policies = Policy.[ Static_hash; Random; Po2; Jsq; Jbsq 32 ]

(* ---- Policy ---- *)

let test_policy_basics () =
  check_raises_any "jbsq bound 0" (fun () -> Policy.validate (Policy.Jbsq 0));
  List.iter Policy.validate all_policies;
  Alcotest.(check string) "jbsq name" "jbsq-32" (Policy.name (Policy.Jbsq 32));
  Alcotest.(check int) "jbsq bound" 32 (Policy.bound (Policy.Jbsq 32));
  Alcotest.(check int) "jsq bound" max_int (Policy.bound Policy.Jsq)

(* [routable] is a bit set: bit i = server i may take the request. *)
let choose ?(n = 4) ?(estimates = [| 0.; 0.; 0.; 0. |]) ?routable ?(seed = 1) ?(conn = 7)
    policy =
  let routable = Option.value routable ~default:((1 lsl n) - 1) in
  let rss = Net.Rss.create ~queues:n () in
  let rng = Rng.create ~seed in
  Policy.choose policy ~rss ~rng ~estimates ~routable ~n ~conn

let test_policy_jsq () =
  Alcotest.(check int) "argmin" 2 (choose ~estimates:[| 3.; 2.; 1.; 2. |] Policy.Jsq);
  Alcotest.(check int) "tie -> lowest index" 1
    (choose ~estimates:[| 3.; 1.; 1.; 2. |] Policy.Jsq);
  Alcotest.(check int) "mask wins over estimate" 3
    (choose ~estimates:[| 0.; 0.; 0.; 9. |] ~routable:(1 lsl 3) Policy.Jsq);
  Alcotest.(check int) "nothing routable" (-1) (choose ~routable:0 Policy.Jsq)

let test_policy_hash () =
  let n = 4 in
  let rss = Net.Rss.create ~queues:n () in
  let home = Net.Rss.queue_of_conn rss 7 in
  Alcotest.(check int) "home server" home (choose ~n Policy.Static_hash);
  (* Masking the home server probes linearly to the next index. *)
  Alcotest.(check int) "rehash past masked home"
    ((home + 1) mod n)
    (choose ~n ~routable:(((1 lsl n) - 1) land lnot (1 lsl home)) Policy.Static_hash);
  (* Flow consistency: same conn, same answer, rng untouched. *)
  Alcotest.(check int) "stable" (choose ~n Policy.Static_hash) (choose ~n Policy.Static_hash)

let test_policy_po2 () =
  (* Both candidates exist (n = 2 means po2 samples both): the smaller
     estimate must win regardless of draw order. *)
  for seed = 1 to 20 do
    Alcotest.(check int) "po2 picks the shorter queue" 1
      (choose ~n:2 ~estimates:[| 5.; 0. |] ~seed Policy.Po2)
  done;
  let s = choose ~n:4 ~estimates:[| 1.; 1.; 1.; 1. |] Policy.Po2 in
  Alcotest.(check bool) "in range" true (s >= 0 && s < 4)

let test_policy_single_server_no_draws () =
  (* A 1-server rack must consume no randomness whatever the policy: this
     is what keeps the degenerate rack bit-identical to the bare system. *)
  List.iter
    (fun policy ->
      let rng = Rng.create ~seed:9 in
      let witness = Rng.copy rng in
      let s =
        Policy.choose policy ~rss:(Net.Rss.create ~queues:1 ()) ~rng ~estimates:[| 0. |]
          ~routable:1 ~n:1 ~conn:3
      in
      Alcotest.(check int) (Policy.name policy ^ " picks 0") 0 s;
      Alcotest.(check int64)
        (Policy.name policy ^ " drew nothing")
        (Rng.next_int64 witness) (Rng.next_int64 rng))
    all_policies

(* The closure-based policy the bit-set [Policy.choose] replaced, kept as
   the reference it must match: a server index in [routable], the same
   draws in the same order, the same tie-breaks. *)
module Closure_reference = struct
  let nth_routable ~routable ~n j =
    let rec go i remaining =
      if i >= n then invalid_arg "nth_routable: too few routable servers"
      else if routable i then if remaining = 0 then i else go (i + 1) (remaining - 1)
      else go (i + 1) remaining
    in
    go 0 j

  let count_routable ~routable ~n =
    let k = ref 0 in
    for i = 0 to n - 1 do
      if routable i then incr k
    done;
    !k

  let argmin_estimate ~estimate ~routable ~n =
    let best = ref (-1) in
    let best_e = ref infinity in
    for i = 0 to n - 1 do
      if routable i then begin
        let e = estimate i in
        if !best < 0 || e < !best_e then begin
          best := i;
          best_e := e
        end
      end
    done;
    !best

  let choose (t : Policy.t) ~rss ~rng ~estimate ~routable ~n ~conn =
    if n = 1 then if routable 0 then 0 else -1
    else
      match t with
      | Static_hash ->
          let home = Net.Rss.queue_of_conn rss conn in
          let rec probe k =
            if k >= n then -1
            else
              let i = (home + k) mod n in
              if routable i then i else probe (k + 1)
          in
          probe 0
      | Random ->
          let k = count_routable ~routable ~n in
          if k = 0 then -1 else nth_routable ~routable ~n (Rng.int rng k)
      | Po2 ->
          let k = count_routable ~routable ~n in
          if k = 0 then -1
          else if k = 1 then nth_routable ~routable ~n 0
          else begin
            let a = Rng.int rng k in
            let b =
              let b = Rng.int rng (k - 1) in
              if b >= a then b + 1 else b
            in
            let ia = nth_routable ~routable ~n a in
            let ib = nth_routable ~routable ~n b in
            if estimate ib < estimate ia then ib else ia
          end
      | Jsq | Jbsq _ -> argmin_estimate ~estimate ~routable ~n
end

(* Seeded random cases over every policy: rack sizes 1..8, any routable
   mask (empty and single-server ones forced often), estimates from three
   values so ties are common, and any connection. Both versions must pick
   the same server and leave their RNG copies in the same state. *)
let test_policy_matches_closure_reference () =
  let gen = Rng.create ~seed:2024 in
  let rss = Array.init 8 (fun i -> Net.Rss.create ~queues:(i + 1) ()) in
  for case = 1 to 4_000 do
    let n = 1 + Rng.int gen 8 in
    let routable =
      match Rng.int gen 4 with
      | 0 -> 0
      | 1 -> 1 lsl Rng.int gen n
      | _ -> Rng.int gen (1 lsl n)
    in
    let estimates = Array.init n (fun _ -> float_of_int (Rng.int gen 3)) in
    let conn = Rng.int gen 100_000 in
    let seed = Rng.int gen 1_000_000 in
    List.iter
      (fun policy ->
        let rng = Rng.create ~seed and ref_rng = Rng.create ~seed in
        let got =
          Policy.choose policy ~rss:rss.(n - 1) ~rng ~estimates ~routable ~n ~conn
        in
        let want =
          Closure_reference.choose policy ~rss:rss.(n - 1) ~rng:ref_rng
            ~estimate:(fun i -> estimates.(i))
            ~routable:(fun i -> routable land (1 lsl i) <> 0)
            ~n ~conn
        in
        if got <> want then
          Alcotest.failf "case %d, %s, n=%d, mask=%#x, conn=%d: picked %d, reference %d" case
            (Policy.name policy) n routable conn got want;
        if not (Int64.equal (Rng.next_int64 rng) (Rng.next_int64 ref_rng)) then
          Alcotest.failf "case %d, %s, n=%d, mask=%#x: RNG state diverged" case
            (Policy.name policy) n routable)
      all_policies
  done

(* ---- Estimate ---- *)

let test_estimate_zero_delay_exact () =
  let sim = Sim.create () in
  let live = [| 1.; 2. |] in
  let e = Estimate.create sim ~live ~delay:0. ~until:1000. () in
  live.(0) <- 7.;
  Alcotest.(check bool) "view is the live array" true (Estimate.visible e == live);
  Alcotest.(check (float 0.)) "read is live" 7. (Estimate.visible e).(0);
  Sim.run sim;
  Alcotest.(check int) "no refresh events" 0 (Estimate.refreshes e)

let test_estimate_staleness () =
  let sim = Sim.create () in
  let live = [| 0. |] in
  let e = Estimate.create sim ~live ~delay:10. ~until:100. () in
  (* One snapshot array for the estimator's whole life, apart from live. *)
  let view = Estimate.visible e in
  Alcotest.(check bool) "snapshot is its own array" true (view != live);
  live.(0) <- 4.;
  Alcotest.(check (float 0.)) "stale before refresh" 0. view.(0);
  Alcotest.(check (float 0.)) "exact sees it" 4. live.(0);
  (* Step up to the first refresh, at 10 µs. *)
  while Sim.now sim < 10. && Sim.step sim do
    ()
  done;
  Alcotest.(check (float 0.)) "refreshed" 4. view.(0);
  live.(0) <- 9.;
  Estimate.force e 0;
  Alcotest.(check (float 0.)) "forced resync" 9. view.(0);
  (* The refresh loop stops at [until] so the simulation can drain. *)
  Sim.run sim;
  live.(0) <- 13.;
  Alcotest.(check (float 0.)) "frozen after horizon" 9. view.(0);
  Alcotest.(check bool) "same array throughout" true (Estimate.visible e == view);
  Alcotest.(check bool) "bounded refreshes" true (Estimate.refreshes e <= 11)

(* ---- Health ---- *)

(* Three timeouts mark a server down; a down server gets one probe per
   500 µs. *)
let test_health_detection_cycle () =
  let h = Health.create ~n:2 in
  Alcotest.(check bool) "up routable" true (Health.routable h 0 ~now:0.);
  Health.note_timeout h 0 ~now:10.;
  Alcotest.(check bool) "one timeout: still routable" true (Health.routable h 0 ~now:10.);
  Health.note_timeout h 0 ~now:20.;
  Alcotest.(check bool) "two timeouts: not down" false (Health.is_down h 0);
  Health.note_timeout h 0 ~now:30.;
  Alcotest.(check bool) "down after 3 timeouts" true (Health.is_down h 0);
  Alcotest.(check int) "one detection" 1 (Health.down_count h);
  (* Down: no probe slot until a full interval after detection. *)
  Alcotest.(check bool) "no probe yet" false (Health.routable h 0 ~now:50.);
  Alcotest.(check bool) "no probe before the interval" false (Health.routable h 0 ~now:529.);
  Alcotest.(check bool) "probe slot opens" true (Health.routable h 0 ~now:530.);
  (* routable is pure: asking twice must not consume the slot. *)
  Alcotest.(check bool) "still open" true (Health.routable h 0 ~now:530.);
  Health.note_probe h 0 ~now:530.;
  Alcotest.(check bool) "slot consumed" false (Health.routable h 0 ~now:550.);
  Health.note_response h 0 ~now:560.;
  Alcotest.(check bool) "recovered" false (Health.is_down h 0);
  let get k = List.assoc k (Health.info h) in
  Alcotest.(check (float 0.)) "recoveries" 1. (get "health_recoveries");
  Alcotest.(check (float 0.)) "probes" 1. (get "health_probes");
  Alcotest.(check (float 0.)) "down time" 530. (get "health_down_time");
  (* An intervening response resets the consecutive count. *)
  Health.note_timeout h 1 ~now:0.;
  Health.note_timeout h 1 ~now:1.;
  Health.note_response h 1 ~now:2.;
  Health.note_timeout h 1 ~now:3.;
  Health.note_timeout h 1 ~now:4.;
  Alcotest.(check bool) "reset count keeps server 1 up" false (Health.is_down h 1)

(* ---- Failplan ---- *)

let test_failplan_validation () =
  check_raises_any "server out of range" (fun () ->
      Failplan.validate ~servers:2
        [ Failplan.Crash { server = 2; start = 0.; duration = 1. } ]);
  check_raises_any "empty window" (fun () ->
      Failplan.validate ~servers:2 [ Failplan.Crash { server = 0; start = 5.; duration = 0. } ]);
  check_raises_any "slowdown < 1" (fun () ->
      Failplan.validate ~servers:2
        [ Failplan.Degraded { server = 0; slowdown = 0.5; start = 0.; duration = 1. } ]);
  Failplan.validate ~servers:1 Failplan.none

let test_failplan_lowering () =
  let plan =
    [
      Failplan.Crash { server = 0; start = 10.; duration = 5. };
      Failplan.Degraded { server = 2; slowdown = 4.; start = 0.; duration = 50. };
    ]
  in
  Failplan.validate ~servers:3 plan;
  Alcotest.(check bool) "crashed inside" true (Failplan.crashed plan ~server:0 ~now:12.);
  Alcotest.(check bool) "window end exclusive" false
    (Failplan.crashed plan ~server:0 ~now:15.);
  Alcotest.(check bool) "other server clean" false (Failplan.crashed plan ~server:1 ~now:12.);
  Alcotest.(check bool) "has_crash" true (Failplan.has_crash plan ~server:0);
  let specs = Failplan.stragglers plan ~server:2 ~cores:4 in
  Alcotest.(check int) "one spec per core" 4 (List.length specs);
  Alcotest.(check int) "no stragglers elsewhere" 0
    (List.length (Failplan.stragglers plan ~server:0 ~cores:4))

(* ---- Dispatch/Rack with scripted fake servers ---- *)

(* A server that completes each request [delay] µs after submission (or
   never, when [delay] is infinite) and records its peak in-flight count. *)
let fake_server sim ~pool ~delay ~respond =
  let inflight = ref 0 in
  let peak = ref 0 in
  let submit req =
    incr inflight;
    if !inflight > !peak then peak := !inflight;
    if delay < infinity then
      let _ : Sim.handle =
        Later.after sim ~delay (fun () ->
            decr inflight;
            (Request.completions pool).(Request.slot pool req) <- Sim.now sim;
            respond req)
      in
      ()
  in
  let info () = [ ("fake_peak", float_of_int !peak) ] in
  (Systems.Iface.{ submit; info }, peak)

(* Pools here never recycle: the detection and hedging tests' copies
   outlive the first completion of a logical id. *)
let mk_pool () = Request.create_pool ~recycle:false ()

let mk_req pool id = Request.alloc pool ~id ~conn:id ~measured:true [| 0.; 1. |]

let latency pool req =
  let s = Request.slot pool req in
  (Request.completions pool).(s) -. (Request.arrivals pool).(s)

(* Routable sets are int bit sets, so a rack holds at most 62 servers. *)
let test_rack_size_validation () =
  check_raises_any "rack of 0" (fun () -> Rack.config ~servers:0 ~policy:Policy.Po2 ());
  check_raises_any "rack of 63" (fun () -> Rack.config ~servers:63 ~policy:Policy.Po2 ());
  ignore (Rack.config ~servers:62 ~policy:Policy.Po2 () : Rack.config);
  let dispatch n () =
    Dispatch.create (Sim.create ()) ~pool:(mk_pool ()) ~n ~policy:Policy.Po2
      ~rng:(Rng.create ~seed:1) ~respond:ignore ()
  in
  check_raises_any "dispatcher over 0" (dispatch 0);
  check_raises_any "dispatcher over 63" (dispatch 63);
  ignore (dispatch 62 () : Dispatch.t)

let test_jbsq_bound_invariant () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:3 in
  let completed = ref 0 in
  let bound = 2 in
  let peaks = Array.make 3 (ref 0) in
  let cfg = Rack.config ~servers:3 ~policy:(Policy.Jbsq bound) () in
  let pool = mk_pool () in
  let rack =
    Rack.create sim cfg ~rng ~pool
      ~make_server:(fun ~i ~rng:_ ~respond ->
        let iface, peak = fake_server sim ~pool ~delay:10. ~respond in
        peaks.(i) <- peak;
        iface)
      ~respond:(fun _ -> incr completed)
  in
  let iface = Rack.iface rack in
  for id = 1 to 50 do
    iface.Systems.Iface.submit (mk_req pool id)
  done;
  Alcotest.(check bool) "central FIFO holds the overflow" true (Rack.dispatch rack |> Dispatch.tor_depth > 0);
  Sim.run sim;
  Alcotest.(check int) "all complete" 50 !completed;
  Array.iteri
    (fun i peak ->
      if !peak > bound then
        Alcotest.failf "server %d exceeded JBSQ bound: %d > %d" i !peak bound)
    peaks;
  let get k = List.assoc k ((Rack.iface rack).Systems.Iface.info ()) in
  Alcotest.(check bool) "queued at ToR" true (get "rack_tor_queued" > 0.);
  Alcotest.(check (float 0.)) "nothing dropped" 0. (get "rack_no_route_drops")

let test_failover_recovers_dead_server () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:5 in
  let completed = ref 0 in
  let detect = Loadgen.retry ~timeout:50. ~max_retries:2 () in
  let cfg = Rack.config ~servers:2 ~policy:Policy.Static_hash ~detect () in
  let pool = mk_pool () in
  let rack =
    Rack.create sim cfg ~rng ~pool
      ~make_server:(fun ~i ~rng:_ ~respond ->
        (* Server 0 is dead from the start; server 1 answers in 5µs. *)
        fst (fake_server sim ~pool ~delay:(if i = 0 then infinity else 5.) ~respond))
      ~respond:(fun _ -> incr completed)
  in
  let iface = Rack.iface rack in
  (* Arrivals every 10 µs for 1.2 ms: past the first probe slot, 500 µs
     after the dead server is detected. *)
  let n = 120 in
  for id = 1 to n do
    let _ : Sim.handle =
      Later.after sim
        ~delay:(float_of_int id *. 10.)
        (fun () -> iface.Systems.Iface.submit (mk_req pool id))
    in
    ()
  done;
  Sim.run sim;
  (* Hashing sends a share of the flows to the dead server; every one of
     those must be recovered by timeout detection + failover. *)
  let get k = List.assoc k (iface.Systems.Iface.info ()) in
  Alcotest.(check int) "every request completes exactly once" n !completed;
  Alcotest.(check bool) "some failovers happened" true (get "rack_failovers" > 0.);
  Alcotest.(check bool) "dead server detected" true (get "health_detections" >= 1.);
  Alcotest.(check bool) "probes keep checking it" true (get "health_probes" >= 1.);
  Alcotest.(check (float 0.)) "no duplicates (it never answers)" 0.
    (get "rack_duplicates_dropped");
  match Dispatch.health (Rack.dispatch rack) with
  | None -> Alcotest.fail "detect configured: health must exist"
  | Some h -> Alcotest.(check bool) "server 0 ends down" true (Health.is_down h 0)

let test_hedge_first_response_wins () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:6 in
  let latencies = ref [] in
  let cfg = Rack.config ~servers:2 ~policy:Policy.Jsq ~hedge:50. () in
  let pool = mk_pool () in
  let rack =
    Rack.create sim cfg ~rng ~pool
      ~make_server:(fun ~i ~rng:_ ~respond ->
        (* Server 0 is a straggler (500µs); server 1 answers in 5µs. JSQ
           ties break to index 0, so the primary goes to the straggler
           and the hedge must win. *)
        fst (fake_server sim ~pool ~delay:(if i = 0 then 500. else 5.) ~respond))
      ~respond:(fun req -> latencies := latency pool req :: !latencies)
  in
  (Rack.iface rack).Systems.Iface.submit (mk_req pool 1);
  Sim.run sim;
  (match !latencies with
  | [ l ] ->
      if not (l < 100.) then Alcotest.failf "hedge should cut latency to ~55µs, got %g" l
  | ls -> Alcotest.failf "exactly one response expected, got %d" (List.length ls));
  let get k = List.assoc k ((Rack.iface rack).Systems.Iface.info ()) in
  Alcotest.(check (float 0.)) "one hedge" 1. (get "rack_hedges");
  Alcotest.(check (float 0.)) "hedge won" 1. (get "rack_hedge_wins");
  Alcotest.(check (float 0.)) "straggler's late response deduped" 1.
    (get "rack_duplicates_dropped")

(* ---- Degeneracy: 1-server rack == bare system, bitwise ---- *)

let bare_samples () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:4242 in
  let loadgen_rng = Rng.split rng in
  let system_rng = Rng.split rng in
  let pool = mk_pool () in
  let gen =
    Loadgen.create sim ~rng:loadgen_rng ~pool ~conns:64 ~rate:0.3
      ~service:(Dist.exponential 10.) ()
  in
  let system =
    Systems.Zygos.create sim
      (Systems.Params.default ~cores:4 ())
      ~rng:system_rng ~pool ~conns:64
      ~respond:(fun req -> Loadgen.complete gen req)
      ()
  in
  Loadgen.set_target gen system.Systems.Iface.submit;
  Loadgen.start gen ~warmup:200. ~measure:2000.;
  Sim.run sim;
  Stats.Tally.samples (Loadgen.tally gen)

let rack_samples ~policy =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:4242 in
  let loadgen_rng = Rng.split rng in
  let pool = mk_pool () in
  let gen =
    Loadgen.create sim ~rng:loadgen_rng ~pool ~conns:64 ~rate:0.3
      ~service:(Dist.exponential 10.) ()
  in
  let cfg = Rack.config ~servers:1 ~policy () in
  let rack =
    Rack.create sim cfg ~rng ~pool
      ~make_server:(fun ~i:_ ~rng ~respond ->
        Systems.Zygos.create sim
          (Systems.Params.default ~cores:4 ())
          ~rng ~pool ~conns:64 ~respond ())
      ~respond:(fun req -> Loadgen.complete gen req)
  in
  Loadgen.set_target gen (Rack.iface rack).Systems.Iface.submit;
  Loadgen.start gen ~warmup:200. ~measure:2000.;
  Sim.run sim;
  Stats.Tally.samples (Loadgen.tally gen)

let test_one_server_rack_bitwise () =
  let base = bare_samples () in
  Alcotest.(check bool) "bare run produced samples" true (Array.length base > 100);
  List.iter
    (fun policy ->
      let got = rack_samples ~policy in
      Alcotest.(check int)
        (Policy.name policy ^ ": sample count")
        (Array.length base) (Array.length got);
      Array.iteri
        (fun i x ->
          if Int64.bits_of_float x <> Int64.bits_of_float got.(i) then
            Alcotest.failf "%s: sample %d differs: %h vs %h" (Policy.name policy) i x
              got.(i))
        base)
    (* Jbsq with a bound the run never reaches: the credit gate must not
       perturb the degenerate rack either. *)
    Policy.[ Static_hash; Random; Po2; Jsq; Jbsq 1_000_000 ]

(* The full Rackrun pipeline degenerates too (rate scaling, warmup,
   estimator horizon included). *)
let point_fingerprint (p : Run.point) =
  ( Int64.bits_of_float p.Run.throughput,
    Int64.bits_of_float p.Run.goodput,
    Int64.bits_of_float p.Run.mean,
    Int64.bits_of_float p.Run.p50,
    Int64.bits_of_float p.Run.p99,
    Int64.bits_of_float p.Run.p999,
    p.Run.completed,
    p.Run.order_violations )

let test_rackrun_degenerates () =
  let service = Dist.exponential 10. in
  let bare =
    Run.run_point
      (Run.config ~system:Run.Zygos ~service ~cores:8 ~conns:128 ~requests:4_000 ~seed:17 ())
      ~load:0.7
  in
  List.iter
    (fun policy ->
      let cfg =
        Rackrun.config ~servers:1 ~system:Run.Zygos ~cores:8 ~conns:128 ~requests:4_000
          ~seed:17 ~policy ~service ()
      in
      let p = Rackrun.run cfg ~load:0.7 in
      if point_fingerprint p <> point_fingerprint bare then
        Alcotest.failf "rackrun(%s) diverges from bare run" (Policy.name policy))
    Policy.[ Static_hash; Random; Po2; Jsq; Jbsq 1_000_000 ]

(* The rack's [steal_fraction] is its stolen events over its local plus
   stolen events, not the sum of its servers' fractions (1.30 for the JSQ
   point). *)
let test_rack_steal_fraction () =
  List.iter
    (fun (policy, load) ->
      let cfg =
        Rackrun.config ~servers:4 ~system:Run.Zygos ~cores:16 ~requests:4_000 ~seed:7
          ~feedback_delay:5. ~policy ~service:(Dist.exponential 10.) ()
      in
      let p = Rackrun.run cfg ~load in
      let value key = Option.get (Run.info_value p key) in
      let local = value "local_events" and stolen = value "stolen_events" in
      let fraction = value "steal_fraction" in
      let name = Printf.sprintf "%s at %g" (Policy.name policy) load in
      if not (fraction >= 0. && fraction <= 1.) then
        Alcotest.failf "%s: steal_fraction %g outside [0, 1]" name fraction;
      Alcotest.(check (float 0.))
        (name ^ ": stolen / (local + stolen)")
        (stolen /. (local +. stolen))
        fraction)
    [ (Policy.Jsq, 0.3); (Policy.Static_hash, 0.85) ]

(* ---- Determinism: Sweep jobs ---- *)

let rack_point ~policy ~seed =
  let cfg =
    Rackrun.config ~servers:2 ~system:Run.Zygos ~cores:4 ~conns:64 ~requests:2_000 ~seed
      ~feedback_delay:5. ~policy ~service:(Dist.exponential 10.) ()
  in
  Rackrun.run cfg ~load:0.8

let test_rack_sweep_jobs_parity () =
  let points =
    List.map
      (fun policy ->
        Experiments.Sweep.point
          ~key:("test-rack/" ^ Policy.name policy)
          (fun ~seed -> point_fingerprint (rack_point ~policy ~seed)))
      all_policies
  in
  let seq = Experiments.Sweep.run ~jobs:1 ~seed:42 points in
  let par = Experiments.Sweep.run ~jobs:4 ~seed:42 points in
  if seq <> par then Alcotest.fail "rack sweep points differ between -j1 and -j4"

(* ---- Acceptance: two-level scheduling & robustness ---- *)

let acceptance_cfg ?feedback_delay ?failplan ~policy () =
  Rackrun.config ~servers:4 ~system:Run.Zygos ~cores:16 ~requests:5_000 ~seed:29
    ?feedback_delay ?failplan ~policy ~service:(Dist.exponential 10.) ()

let test_policy_vs_bound () =
  let load = 0.85 in
  let p99 policy =
    (Rackrun.run (acceptance_cfg ~feedback_delay:5. ~policy ()) ~load).Run.p99
  in
  let bound =
    (Rackrun.central_bound (acceptance_cfg ~policy:Policy.Jsq ()) ~load).Run.p99
  in
  let hash = p99 Policy.Static_hash in
  let po2 = p99 Policy.Po2 in
  let jbsq = p99 (Policy.Jbsq 32) in
  (* Queue-aware policies approximate the rack-wide centralized bound;
     static hashing is far from it. *)
  if not (po2 < 3. *. bound) then
    Alcotest.failf "po2 should track the bound: %.1f vs %.1f" po2 bound;
  if not (jbsq < 3. *. bound) then
    Alcotest.failf "jbsq should track the bound: %.1f vs %.1f" jbsq bound;
  if not (hash > 1.8 *. jbsq) then
    Alcotest.failf "hashing should be clearly worse: %.1f vs jbsq %.1f" hash jbsq

let test_degraded_server_bounded () =
  let load = 0.6 in
  let service_mean = 10. in
  let rate = load *. 64. /. service_mean in
  let measure = 5_000. /. rate in
  let failplan =
    [
      Cluster.Failplan.Degraded
        { server = 0; slowdown = 10.; start = 0.2 *. measure; duration = 0.25 *. measure };
    ]
  in
  let ratio policy =
    let clean = Rackrun.run (acceptance_cfg ~feedback_delay:5. ~policy ()) ~load in
    let deg = Rackrun.run (acceptance_cfg ~feedback_delay:5. ~failplan ~policy ()) ~load in
    deg.Run.p99 /. Float.max 1e-9 clean.Run.p99
  in
  let hash = ratio Policy.Static_hash in
  let po2 = ratio Policy.Po2 in
  let jbsq = ratio (Policy.Jbsq 32) in
  (* One 10x-degraded server: hashing keeps feeding it and collapses;
     queue-aware policies route around it and bound the damage. *)
  if not (hash > 2.5) then Alcotest.failf "hash should collapse: %.2fx" hash;
  if not (po2 < 1.8) then Alcotest.failf "po2 degradation unbounded: %.2fx" po2;
  if not (jbsq < 1.8) then Alcotest.failf "jbsq degradation unbounded: %.2fx" jbsq;
  if not (po2 < hash /. 1.5 && jbsq < hash /. 1.5) then
    Alcotest.failf "queue-aware not clearly better: po2 %.2fx jbsq %.2fx hash %.2fx" po2
      jbsq hash

let () =
  Alcotest.run "cluster"
    [
      ( "policy",
        [
          Alcotest.test_case "basics" `Quick test_policy_basics;
          Alcotest.test_case "jsq argmin" `Quick test_policy_jsq;
          Alcotest.test_case "hash + rehash" `Quick test_policy_hash;
          Alcotest.test_case "po2" `Quick test_policy_po2;
          Alcotest.test_case "1-server: no draws" `Quick test_policy_single_server_no_draws;
          Alcotest.test_case "bit set == closure reference" `Quick
            test_policy_matches_closure_reference;
        ] );
      ( "estimate",
        [
          Alcotest.test_case "zero delay is exact" `Quick test_estimate_zero_delay_exact;
          Alcotest.test_case "staleness + force" `Quick test_estimate_staleness;
        ] );
      ( "health",
        [ Alcotest.test_case "detect/probe/recover" `Quick test_health_detection_cycle ] );
      ( "failplan",
        [
          Alcotest.test_case "validation" `Quick test_failplan_validation;
          Alcotest.test_case "lowering" `Quick test_failplan_lowering;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "validation" `Quick test_rack_size_validation;
          Alcotest.test_case "jbsq bound invariant" `Quick test_jbsq_bound_invariant;
          Alcotest.test_case "failover recovers dead server" `Quick
            test_failover_recovers_dead_server;
          Alcotest.test_case "hedge: first response wins" `Quick
            test_hedge_first_response_wins;
          Alcotest.test_case "steal_fraction of summed counts" `Quick test_rack_steal_fraction;
        ] );
      ( "degeneracy",
        [
          Alcotest.test_case "1-server rack bitwise" `Slow test_one_server_rack_bitwise;
          Alcotest.test_case "rackrun degenerates" `Slow test_rackrun_degenerates;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "-j1 == -j4 sweep" `Slow test_rack_sweep_jobs_parity;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "policies vs centralized bound" `Slow test_policy_vs_bound;
          Alcotest.test_case "degraded server bounded" `Slow test_degraded_server_bounded;
        ] );
    ]

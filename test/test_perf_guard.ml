(* Perf-regression guard for the allocation-free engine hot path.

   Two invariants, asserted on a warmed-up steady-state window so pool
   growth is excluded:

   - the engine's schedule/fire cycle allocates nothing on the minor
     heap: every event is a long-lived [int -> unit] handler plus an
     int payload, and event times travel through flat one-element float
     arrays in both directions ([Sim.key_buffer] in, [Sim.clock_buffer]
     out) and sit in the event pool's flat [times] array in between, so
     no float is boxed either;
   - the event pool recycles its nodes: [reused / scheduled] approaches 1
     and [pool_slots] stays at the high-water mark of concurrently
     pending events.

   If either drifts, the pooled-event engine has silently regressed into
   an allocating path. *)

let fn_words_per_event_bound = 0.5

module Sim = Engine.Sim

(* One self-rescheduling handler, at depth 1 here and 512 below, so a
   regression in the wheel's placement path can't hide behind a depth-1
   run. Delays 0 and 0.3 land in the wheel's current 1 µs tick (its
   ready run), which is where most ZygOS events go (polls, wakes, IPIs);
   the 1 µs delay does not. *)
let test_fn_minor_words_per_event ~delay () =
  let sim = Sim.create () in
  let clk = Sim.clock_buffer sim and kbuf = Sim.key_buffer sim in
  let rec tick _ =
    kbuf.(0) <- clk.(0) +. delay;
    ignore (Sim.schedule_fn_keyed sim tick 0 : Sim.handle)
  in
  tick 0;
  for _ = 1 to 1_000 do
    ignore (Sim.step sim : bool)
  done;
  let events = 50_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to events do
    ignore (Sim.step sim : bool)
  done;
  let per_event = (Gc.minor_words () -. w0) /. float_of_int events in
  if per_event > fn_words_per_event_bound then
    Alcotest.failf
      "schedule_fn steady state at delay %g allocates %.2f minor words/event (want <= %g)" delay
      per_event fn_words_per_event_bound

let test_fn_deep_minor_words () =
  let sim = Sim.create () in
  let clk = Sim.clock_buffer sim and kbuf = Sim.key_buffer sim in
  let rec tick _ =
    kbuf.(0) <- clk.(0) +. 512.0;
    ignore (Sim.schedule_fn_keyed sim tick 0 : Sim.handle)
  in
  for _ = 1 to 512 do
    tick 0
  done;
  for _ = 1 to 2_048 do
    ignore (Sim.step sim : bool)
  done;
  let events = 50_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to events do
    ignore (Sim.step sim : bool)
  done;
  let per_event = (Gc.minor_words () -. w0) /. float_of_int events in
  if per_event > fn_words_per_event_bound then
    Alcotest.failf "deep schedule_fn loop allocates %.2f minor words/event (want <= %g)"
      per_event fn_words_per_event_bound

(* 64 self-rescheduling handlers spread inside one 1 µs tick (offsets
   k/64 µs, delay 1 µs): every tick the wheel drains holds 64 events,
   about the most any figure or perfbench run puts in one (67, on the
   4-server rack). Sorting a drained tick must allocate nothing, whatever
   its size: a heapsort fallback above 32 events that allocated its sift
   closure per tick cost 0.125 words per event here. *)
let full_tick_words_per_event_bound = 0.01

let test_full_tick_minor_words () =
  let sim = Sim.create () in
  let clk = Sim.clock_buffer sim and kbuf = Sim.key_buffer sim in
  let rec tick _ =
    kbuf.(0) <- clk.(0) +. 1.0;
    ignore (Sim.schedule_fn_keyed sim tick 0 : Sim.handle)
  in
  for k = 0 to 63 do
    kbuf.(0) <- float_of_int k /. 64.;
    ignore (Sim.schedule_fn_keyed sim tick 0 : Sim.handle)
  done;
  for _ = 1 to 6_400 do
    ignore (Sim.step sim : bool)
  done;
  let events = 64_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to events do
    ignore (Sim.step sim : bool)
  done;
  let per_event = (Gc.minor_words () -. w0) /. float_of_int events in
  if per_event > full_tick_words_per_event_bound then
    Alcotest.failf "64 events per tick allocate %.3f minor words/event (want <= %g)" per_event
      full_tick_words_per_event_bound

let test_pool_reuse_ratio () =
  let sim = Sim.create () in
  let clk = Sim.clock_buffer sim and kbuf = Sim.key_buffer sim in
  let rec tick _ =
    kbuf.(0) <- clk.(0) +. 1.0;
    ignore (Sim.schedule_fn_keyed sim tick 0 : Sim.handle)
  in
  for _ = 1 to 64 do
    tick 0
  done;
  for _ = 1 to 100_000 do
    ignore (Sim.step sim : bool)
  done;
  let s = Sim.stats sim in
  let ratio = float_of_int s.Sim.reused /. float_of_int s.Sim.scheduled in
  if ratio < 0.99 then
    Alcotest.failf "pool reuse ratio %.4f (reused %d / scheduled %d), want >= 0.99" ratio
      s.Sim.reused s.Sim.scheduled;
  if s.Sim.pool_slots > 128 then
    Alcotest.failf "pool grew to %d slots for 64 concurrent events" s.Sim.pool_slots

(* The processor-sharing models of Fig. 2 are flat recursions over the
   job stream, like the FCFS ones: per job they allocate nothing but
   their stations' occasional growth. Run on the event engine, with a
   closure per event and a record and list cells per job, they took 283
   (M/G/16/PS) and 158 (16xM/G/1/PS) minor words per job on this
   config; now they take 0.04 and 0.19 (16 stations grow more often). A boxed float
   per job (2 words) trips the bound. *)
let ps_words_per_job_bound = 0.5

let test_ps_model_minor_words () =
  List.iter
    (fun topology ->
      let spec = { Models.Queueing.servers = 16; policy = Ps; topology } in
      let requests = 20_000 in
      let run () =
        ignore
          (Models.Queueing.simulate spec ~service:(Engine.Dist.exponential 1.) ~load:0.9
             ~requests ~seed:7
            : Models.Queueing.result)
      in
      run ();
      let w0 = Gc.minor_words () in
      run ();
      let per_job = (Gc.minor_words () -. w0) /. float_of_int (requests + (requests / 5)) in
      if per_job > ps_words_per_job_bound then
        Alcotest.failf "%s allocates %.2f minor words/job (want <= %g)"
          (Models.Queueing.name spec) per_job ps_words_per_job_bound)
    [ Models.Queueing.Central; Partitioned ]

(* The guard extends from the bare engine cycle to the whole request
   path: one fig6-style point (the bench's "experiments: ns per simulated
   request" config) must stay within a fixed minor-words-per-simulated-
   request budget, point setup and tally collection included. Every
   pooled structure on the path (requests, events, parser, RSS) is
   allocation-free, and every float on it travels through flat float
   slots: the arrival gap and service draws ([Dist.sample_into]), the
   request's time columns, the tally ([Tally.record_from]), event times
   ([Sim.key_buffer]) and each core's clock. A float passed to or
   returned from a function of another module is boxed at the call
   unless the call is inlined (never under [--profile dev], which passes
   [-opaque]): one such float per request costs 2 words. What remains is point setup (the system,
   the pools, the reservoir) spread over the requests. Measured on ZygOS:
   67.7 words/request while stolen batches were copied into fresh arrays
   and the timing wheel boxed current-tick event times, 49.2 with boxed
   draws, request times and latencies, 6.24 with a heap-allocated PCB
   per connection, 3.71 now; IX 60.9 → 3.92 → 2.96, Linux-partitioned
   43.4 → 3.90 → 3.37, Linux-floating 3.03. One bound serves all four:
   a new boxed float per request (2 words) or closure (3+ words) trips
   it on every system. *)
let request_path_words_bound = 5.

let slice_config ?(requests = 1_500) system =
  Experiments.Run.config ~cores:4 ~conns:128 ~requests ~seed:1 ~system
    ~service:(Engine.Dist.exponential 10.) ()

let point_words_per_request ?requests system =
  let cfg = slice_config ?requests system in
  let point () = ignore (Experiments.Run.run_point cfg ~load:0.5 : Experiments.Run.point) in
  point ();
  let iters = 2 in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    point ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int (iters * cfg.Experiments.Run.requests)

let test_request_path_minor_words system () =
  let per_req = point_words_per_request system in
  if per_req > request_path_words_bound then
    Alcotest.failf "%s request path allocates %.2f minor words/request (want <= %g)"
      (Experiments.Run.system_name system) per_req request_path_words_bound

(* On the slice above, setup is ~2.8 words per request, so the 5-word
   bound lets a boxed float per request (2 words) through. What a
   request adds once setup is paid, the words of a 6,000-request point
   less those of a 1,500-request one per extra request, does not:
   Preemptive, which boxed its busy-time accumulators on every slice,
   read 8.4 there. *)
let steady_words_bound = 0.5

let test_steady_request_words system () =
  let words requests = float_of_int requests *. point_words_per_request ~requests system in
  let per_req = (words 6_000 -. words 1_500) /. 4_500. in
  if per_req > steady_words_bound then
    Alcotest.failf "%s allocates %.2f minor words per extra request (want <= %g)"
      (Experiments.Run.system_name system) per_req steady_words_bound

(* The path every system shares, measured over [Sim.run] alone: the
   load generator's arrivals and completions, the request pool, the
   engine and the tally, behind a null server that answers each request
   with one keyed event 1 µs later. It allocates nothing per request
   (was 18.0 words: the arrival gap 6, the service draw 4, and 2 each
   for the arrival handed to [Request.alloc], the completion time, the
   returned latency and the clock handed to the completion record);
   setup happens before [Sim.run]. *)
let shared_path_words_bound = 0.5

let test_shared_request_path_minor_words () =
  let cores = 16 and conns = 2752 and load = 0.5 and requests = 20_000 in
  let service = Engine.Dist.exponential 10. in
  let sim = Sim.create () in
  let rng = Engine.Rng.create ~seed:1 in
  let rate = load *. float_of_int cores /. Engine.Dist.mean service in
  let pool = Net.Request.create_pool ~recycle:true () in
  let gen = Net.Loadgen.create sim ~rng ~pool ~conns ~rate ~service () in
  let kbuf = Sim.key_buffer sim and clk = Sim.clock_buffer sim in
  let respond = Net.Loadgen.complete gen in
  Net.Loadgen.set_target gen (fun req ->
      kbuf.(0) <- clk.(0) +. 1.;
      ignore (Sim.schedule_fn_keyed sim respond req : Sim.handle));
  let measure = float_of_int requests /. rate in
  Net.Loadgen.start gen ~warmup:(0.2 *. measure) ~measure;
  let w0 = Gc.minor_words () in
  Sim.run sim;
  let per_req = (Gc.minor_words () -. w0) /. float_of_int (Net.Loadgen.generated gen) in
  if per_req > shared_path_words_bound then
    Alcotest.failf "shared request path allocates %.2f minor words/request (want <= %g)"
      per_req shared_path_words_bound

(* Deterministic event budget for ZygOS's idle path. At load 0.1 on 16
   cores nearly every packet finds the other 15 cores idle, so how idle
   cores are woken decides the event count. One event per idle core per
   rx or release cost 20.8 events per generated request on this config
   (20.7 at the benchmark's 30k-request point); one wake-sweep event per
   rx or release costs 6.44, and 6.33 once a stolen batch's release
   event also delivers its last response. The count is exact for a fixed
   seed, so the bound needs no room for noise: 6.5 leaves ~3% for model
   changes that move the RNG stream, while a single extra event per
   request (7.3) or a return to per-core wake events trips it. The point
   is wired by hand like [Run.run_real_point] because the guard divides
   by [Loadgen.generated], which a point does not report. *)
let zygos_low_load_events_bound = 6.5

(* On the same point, randomized victim orders drawn per generated
   request. Drawing one for every poll, whether or not a steal or an IPI
   could follow, cost 34.8; drawing only when a steal attempt meets
   queued work or an IPI scan will send costs ~0.25. Exact for a fixed
   seed, like the event count. *)
let zygos_low_load_orders_bound = 1.0

let test_zygos_low_load_events_per_request () =
  let cores = 16 and conns = 2752 and load = 0.1 and requests = 6_000 in
  let service = Engine.Dist.exponential 10. in
  let sim = Sim.create () in
  let rng = Engine.Rng.create ~seed:1 in
  let loadgen_rng = Engine.Rng.split rng in
  let system_rng = Engine.Rng.split rng in
  let rate = load *. float_of_int cores /. Engine.Dist.mean service in
  let pool = Net.Request.create_pool ~recycle:true () in
  let gen = Net.Loadgen.create sim ~rng:loadgen_rng ~pool ~conns ~rate ~service () in
  let system =
    Systems.Zygos.create sim (Systems.Params.default ~cores ()) ~rng:system_rng ~pool ~conns
      ~respond:(Net.Loadgen.complete gen) ()
  in
  Net.Loadgen.set_target gen system.Systems.Iface.submit;
  let measure = float_of_int requests /. rate in
  Net.Loadgen.start gen ~warmup:(0.2 *. measure) ~measure;
  Sim.run sim;
  let fired = (Sim.stats sim).Sim.fired and generated = Net.Loadgen.generated gen in
  let per_req = float_of_int fired /. float_of_int generated in
  if per_req > zygos_low_load_events_bound then
    Alcotest.failf "zygos at load 0.1 fires %.2f events/request (%d / %d), want <= %g" per_req
      fired generated zygos_low_load_events_bound;
  let orders =
    Option.value ~default:nan (Systems.Iface.info_value system "victim_orders")
  in
  let orders_per_req = orders /. float_of_int generated in
  if not (orders_per_req <= zygos_low_load_orders_bound) then
    Alcotest.failf "zygos at load 0.1 draws %.3f victim orders/request (%g / %d), want <= %g"
      orders_per_req orders generated zygos_low_load_orders_bound

(* The rack's request path over [Sim.run] alone: 4 ZygOS servers of 16
   cores behind the ToR dispatcher with 5 µs-stale estimates, 2752
   connections, a recycling pool. The dispatcher picks from an int bit
   set over the estimator's flat array and reads the clock only with
   detection on, so it allocates nothing per request, and a PCB is an int
   with its events in one shared node pool. What is left is the growth
   of pools and queues to their high-water marks: 0.03 words/request at
   load 0.3 and 0.48 to 0.52 at 0.8, against 3.7 to 4.2 while every PCB
   allocated an event buffer on its first delivery and 34.7 to 40.2
   while the policy took closures and the dispatcher boxed the clock on
   every request and response. One closure or one boxed float per
   request trips the bound. Exact for the seed. *)
let rack_path_words_bound = 1.

let rack_words_per_request policy ~load =
  let servers = 4 and cores = 16 and conns = 2752 and requests = 20_000 in
  let service = Engine.Dist.exponential 10. in
  let sim = Sim.create () in
  let rng = Engine.Rng.create ~seed:5 in
  let loadgen_rng = Engine.Rng.split rng in
  let rate = load *. float_of_int (servers * cores) /. Engine.Dist.mean service in
  let pool = Net.Request.create_pool ~recycle:true () in
  let gen = Net.Loadgen.create sim ~rng:loadgen_rng ~pool ~conns ~rate ~service () in
  let measure = float_of_int requests /. rate in
  let warmup = 0.2 *. measure in
  let cfg =
    Cluster.Rack.config ~servers ~policy ~feedback_delay:5. ~feedback_until:(warmup +. measure)
      ()
  in
  let rack =
    Cluster.Rack.create sim cfg ~rng ~pool
      ~make_server:(fun ~i:_ ~rng ~respond ->
        Systems.Zygos.create sim (Systems.Params.default ~cores ()) ~rng ~pool ~conns ~respond
          ())
      ~respond:(Net.Loadgen.complete gen)
  in
  Net.Loadgen.set_target gen (Cluster.Rack.iface rack).Systems.Iface.submit;
  Net.Loadgen.start gen ~warmup ~measure;
  let w0 = Gc.minor_words () in
  Sim.run sim;
  (Gc.minor_words () -. w0) /. float_of_int (Net.Loadgen.generated gen)

let test_rack_path_minor_words () =
  List.iter
    (fun policy ->
      List.iter
        (fun load ->
          let per_req = rack_words_per_request policy ~load in
          if per_req > rack_path_words_bound then
            Alcotest.failf "rack (%s) at load %g allocates %.2f minor words/request (want <= %g)"
              (Cluster.Policy.name policy) load per_req rack_path_words_bound)
        [ 0.3; 0.8 ])
    Cluster.Policy.[ Jbsq 32; Po2 ]

(* A rack point recycles its request slots unless detection, hedging or
   client retries can put a second copy of a request in flight. Pool
   growth shows up in major words (its columns are allocated directly on
   the major heap): this JBSQ(32) point reads 18.3 major words per
   measured request with recycling when run alone (21.0 after the cases
   above) and 60.7 with a pool that grows to one slot per generated
   request. *)
let rack_point_major_words_bound = 35.

let rack_point ?detect ?hedge ?retry ?failplan ~requests ~load () =
  let cfg =
    Experiments.Rackrun.config ~requests ~seed:5 ~policy:(Cluster.Policy.Jbsq 32)
      ~feedback_delay:5. ?detect ?hedge ?retry ?failplan
      ~service:(Engine.Dist.exponential 10.) ()
  in
  Experiments.Rackrun.run cfg ~load

let test_rack_point_recycles () =
  let requests = 30_000 in
  let _, _, major0 = Gc.counters () in
  ignore (rack_point ~requests ~load:0.5 () : Experiments.Run.point);
  let _, _, major1 = Gc.counters () in
  let per_req = (major1 -. major0) /. float_of_int requests in
  if per_req > rack_point_major_words_bound then
    Alcotest.failf "clean rack point allocates %.1f major words/request (want <= %g)" per_req
      rack_point_major_words_bound

(* The other side of the rule: racks that can copy a request (failover
   under detection, hedging, client retries) keep every slot. Each such
   point must complete, with no stale-handle raise, and really make
   copies, so the copying paths stay exercised. *)
let test_copying_racks_keep_slots () =
  let requests = 4_000 in
  let count p key =
    Option.value ~default:0. (List.assoc_opt key p.Experiments.Run.info)
  in
  let expect_copies name key p =
    if not (count p key > 0.) then Alcotest.failf "%s point made no copies (%s = 0)" name key
  in
  let crash = [ Cluster.Failplan.Crash { server = 0; start = 100.; duration = 300. } ] in
  let detect = Net.Loadgen.retry ~timeout:50. () in
  expect_copies "detect" "rack_failovers"
    (rack_point ~detect ~failplan:crash ~requests ~load:0.5 ());
  expect_copies "hedge" "rack_hedges" (rack_point ~hedge:15. ~requests ~load:0.5 ());
  expect_copies "retry" "client_retries"
    (rack_point ~retry:(Net.Loadgen.retry ~timeout:50. ()) ~failplan:crash ~requests ~load:0.5
       ())

(* Point setup, from [Sim.create] through the system's [create] and the
   rack's, in words per connection at the paper's 16 cores and 2,752
   connections. [Loadgen.start] is left out: its tally reservation
   grows with the request count, not the connections. Words are minor
   words from [Gc.minor_words] plus major words allocated directly
   (major minus promoted) from [Gc.counters]; [Gc.counters]' own minor
   count lags on OCaml 5.1. With every per-connection FIFO in one
   [Intqs], PCBs as int ids and rings that grow on demand, what scales
   with connections is a handful of flat int arrays: the RSS memo and
   home array, the client's and each server's queue heads, the ZygOS
   state array. With a heap block or two per connection and NIC rings
   allocated whole (4,097 words each, 16 per server), setup cost 20.6
   (Linux-partitioned), 30.5 (Linux-floating), 20.7 (IX), 33.7 (ZygOS),
   21.6 (Preemptive) and 89.6 (the 4-server rack) words per connection;
   now 6.6, 4.6, 6.7, 9.8, 4.7 and 32.0. *)
let setup_words_bound = 12.

let rack_setup_words_bound = 45.

let words_allocated () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let setup_cores = 16

let setup_conns = 2752

let setup_client () =
  let sim = Sim.create () in
  let rng = Engine.Rng.create ~seed:1 in
  let pool = Net.Request.create_pool ~recycle:true () in
  let gen =
    Net.Loadgen.create sim ~rng:(Engine.Rng.split rng) ~pool ~conns:setup_conns ~rate:1.
      ~service:(Engine.Dist.exponential 10.) ()
  in
  (sim, rng, pool, gen)

let single_setup system () =
  let sim, rng, pool, gen = setup_client () in
  Experiments.Run.make_system system sim ~cores:setup_cores ~rpc_packets:1 ~stragglers:[] ~rng
    ~pool ~conns:setup_conns ~respond:(Net.Loadgen.complete gen)

let rack_setup () =
  let sim, rng, pool, gen = setup_client () in
  let cfg = Cluster.Rack.config ~servers:4 ~policy:(Cluster.Policy.Jbsq 32) () in
  Cluster.Rack.iface
    (Cluster.Rack.create sim cfg ~rng ~pool
       ~make_server:(fun ~i:_ ~rng ~respond ->
         Experiments.Run.make_system Experiments.Run.Zygos sim ~cores:setup_cores
           ~rpc_packets:1 ~stragglers:[] ~rng ~pool ~conns:setup_conns ~respond)
       ~respond:(Net.Loadgen.complete gen))

let setup_words_per_conn setup =
  ignore (setup () : Systems.Iface.t);
  let w0 = words_allocated () in
  let iface = setup () in
  let words = words_allocated () -. w0 in
  ignore (Sys.opaque_identity iface : Systems.Iface.t);
  words /. float_of_int setup_conns

let test_setup_words () =
  let check name setup bound =
    let per_conn = setup_words_per_conn setup in
    if per_conn > bound then
      Alcotest.failf "%s point setup allocates %.2f words/connection (want <= %g)" name
        per_conn bound
  in
  List.iter
    (fun system ->
      check (Experiments.Run.system_name system) (single_setup system) setup_words_bound)
    Experiments.Run.
      [ Linux_partitioned; Linux_floating; Ix 1; Zygos; Preemptive 5. ];
  check "4-server zygos rack" rack_setup rack_setup_words_bound

(* A float returned by a function of another module is boxed (2 minor
   words) unless the call is inlined. The default and checked profiles
   inline across modules; dev compiles every module with -opaque, which
   stops that, so this guard fails under [--profile dev]. *)
let now_words_per_call_bound = 0.01

let test_now_inlined () =
  let sim = Sim.create () in
  let calls = 10_000 in
  let sum = ref 0. in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    sum := !sum +. Sim.now sim
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int calls in
  ignore (Sys.opaque_identity !sum : float);
  if per_call > now_words_per_call_bound then
    Alcotest.failf
      "Sim.now allocates %.3f minor words/call (want <= %g): calls across modules are not \
       inlined, as under a profile that passes -opaque (--profile dev)"
      per_call now_words_per_call_bound

let test_end_to_end_reuse_ratio () =
  (* The same invariant through the full stack: a ZygOS point's event
     pool must serve almost every schedule from the free list. *)
  let cfg =
    Experiments.Run.config ~cores:4 ~conns:64 ~requests:4_000 ~seed:11
      ~system:Experiments.Run.Zygos ~service:(Engine.Dist.exponential 10.) ()
  in
  let p = Experiments.Run.run_point cfg ~load:0.7 in
  let get key = Option.value ~default:0. (List.assoc_opt key p.Experiments.Run.info) in
  let scheduled = get "sim_events_scheduled" and reused = get "sim_events_reused" in
  if scheduled <= 0. then Alcotest.fail "no events scheduled";
  let ratio = reused /. scheduled in
  if ratio < 0.9 then
    Alcotest.failf "end-to-end reuse ratio %.4f (reused %g / scheduled %g), want >= 0.9"
      ratio reused scheduled

(* IX(B=1) on the same slice: events fired per completed request. A
   batch's last response and the next poll were two events at one
   instant (4.04 per request); one event answers and polls (2.86). Exact
   for a fixed seed. *)
let ix_events_bound = 2.9

let test_ix_events_per_request () =
  let p = Experiments.Run.run_point (slice_config (Experiments.Run.Ix 1)) ~load:0.5 in
  let fired = Option.value ~default:nan (Experiments.Run.info_value p "sim_events_fired") in
  let per_req = fired /. float_of_int p.Experiments.Run.completed in
  if not (per_req <= ix_events_bound) then
    Alcotest.failf "ix fires %.3f events per completed request (%g / %d), want <= %g" per_req
      fired p.Experiments.Run.completed ix_events_bound

let () =
  Alcotest.run "perf-guard"
    [
      ( "allocation-free hot path",
        [
          Alcotest.test_case "schedule_fn minor words/event = 0" `Quick
            (test_fn_minor_words_per_event ~delay:1.0);
          Alcotest.test_case "schedule_fn delay-0 minor words/event = 0" `Quick
            (test_fn_minor_words_per_event ~delay:0.);
          Alcotest.test_case "schedule_fn delay-0.3 minor words/event = 0" `Quick
            (test_fn_minor_words_per_event ~delay:0.3);
          Alcotest.test_case "deep schedule_fn minor words/event = 0" `Quick
            test_fn_deep_minor_words;
          Alcotest.test_case "64 events per tick minor words/event = 0" `Quick
            test_full_tick_minor_words;
          Alcotest.test_case "event-pool reuse ratio ~ 1" `Quick test_pool_reuse_ratio;
          Alcotest.test_case "zygos point reuse ratio >= 0.9" `Quick
            test_end_to_end_reuse_ratio;
          Alcotest.test_case "request path minor words/request bounded" `Quick
            (test_request_path_minor_words Experiments.Run.Zygos);
          Alcotest.test_case "ix request path minor words/request bounded" `Quick
            (test_request_path_minor_words (Experiments.Run.Ix 1));
          Alcotest.test_case "linux-partitioned request path minor words/request bounded" `Quick
            (test_request_path_minor_words Experiments.Run.Linux_partitioned);
          Alcotest.test_case "linux-floating request path minor words/request bounded" `Quick
            (test_request_path_minor_words Experiments.Run.Linux_floating);
          Alcotest.test_case "preemptive request path minor words/request bounded" `Quick
            (test_request_path_minor_words (Experiments.Run.Preemptive 5.));
          Alcotest.test_case "preemptive-consolidated request path minor words/request bounded"
            `Quick
            (test_request_path_minor_words (Experiments.Run.Preemptive_consolidated 5.));
          Alcotest.test_case "preemptive steady minor words/request" `Quick
            (test_steady_request_words (Experiments.Run.Preemptive 5.));
          Alcotest.test_case "preemptive-consolidated steady minor words/request" `Quick
            (test_steady_request_words (Experiments.Run.Preemptive_consolidated 5.));
          Alcotest.test_case "shared request path allocates nothing" `Quick
            test_shared_request_path_minor_words;
          Alcotest.test_case "zygos low-load events/request bounded" `Quick
            test_zygos_low_load_events_per_request;
          Alcotest.test_case "ix events/request bounded" `Quick test_ix_events_per_request;
          Alcotest.test_case "rack request path minor words/request bounded" `Quick
            test_rack_path_minor_words;
          Alcotest.test_case "clean rack point recycles request slots" `Quick
            test_rack_point_recycles;
          Alcotest.test_case "copying racks keep request slots" `Quick
            test_copying_racks_keep_slots;
          Alcotest.test_case "point setup words/connection bounded" `Quick test_setup_words;
          Alcotest.test_case "Sim.now inlined across modules" `Quick test_now_inlined;
          Alcotest.test_case "PS models minor words/job bounded" `Quick
            test_ps_model_minor_words;
        ] );
    ]

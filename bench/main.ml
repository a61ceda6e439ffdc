(* Benchmark harness for the simulator itself: a Bechamel
   microbenchmark suite over the core data structures, the heap-vs-wheel
   event-queue comparison, and sequential-vs-pooled sweep execution. The
   paper's figures and tables run through the [zygos] CLI.

   Usage:
     dune exec bench/main.exe                  -- micro, equeue and sweep
     dune exec bench/main.exe -- micro equeue  -- selected targets
     dune exec bench/main.exe -- -j 4 sweep    -- pooled side on 4 domains
     dune exec bench/main.exe -- --json micro  -- also write BENCH_PR8.json
     ZYGOS_BENCH_SCALE=0.2 dune exec bench/main.exe   -- quicker pass *)

(* Driver-level suppressions, file-wide: the harness keys its target and
   result tables by string (poly-compare on CLI tokens is the idiom, not
   a hot-path hazard), and its module-level accumulators (wall_clock,
   last_* rows) are written only from the main domain — sweep workers
   hand results back through [Sweep.run_with_stats]'s return value, so
   the ref cells and captured arrays never race. *)
[@@@zygos.allow "poly-compare domain-safety domain-escape"]

let scale =
  match Sys.getenv_opt "ZYGOS_BENCH_SCALE" with
  | Some s -> (
      match float_of_string_opt s with
      | Some f when f > 0. -> f
      | _ -> invalid_arg "ZYGOS_BENCH_SCALE must be a positive float")
  | None -> 1.0

let default_jobs =
  match Sys.getenv_opt "ZYGOS_JOBS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some j when j >= 1 -> j
      | _ -> invalid_arg "ZYGOS_JOBS must be a positive integer")
  | None -> 1

(* Every stored baseline is stamped with the ZYGOS_BENCH_SCALE it was
   recorded at. BENCH_PR7.json compared a scale-0.05 run against PR 4's
   scale-0.2 rows and recorded uniformly negative "improvements" that
   were really a different machine phase under a different run length —
   so [write_trajectory] now refuses to emit [improvement_vs_*] against
   a baseline whose scale differs from the current run's, and records
   why instead. Comparing against a stored baseline therefore requires
   re-running at its scale (e.g. ZYGOS_BENCH_SCALE=0.2 for PR 4). *)

(* Seed-commit ns/op for the hot-path heap PR 1 rewrote (boxed heap
   entries): median of three Bechamel runs of the seed implementation
   under the exact bench body below (depth-512 heap), 1s quota, same
   machine. BENCH_PR8.json reports current numbers next to it so the
   trajectory is visible without checking out the old commit. *)
let seed_baseline_scale = 0.1
let seed_baseline_ns = [ ("engine: heap push+pop", 221.0) ]

(* PR 3's BENCH_PR3.json numbers for the engine hot-path benches this PR
   (closure-free dispatch + timing wheel) targets, same machine and
   quota (re-verified against a PR-3 checkout on the current machine:
   87.5 / 105.0); BENCH_PR8.json reports the improvement against these.
   The wheel and schedule_fn rows are keyed to the PR-3 numbers of what
   they replace on the hot path: the wheel supersedes the heap as the
   default queue, and the closure-free cycle supersedes the closure
   cycle at every converted call site, so those pairs are the
   before/after of the same simulator operation. *)
let pr3_baseline_scale = 0.2
let pr3_baseline_ns =
  [
    ("engine: heap push+pop", 105.187);
    ("engine: wheel push+pop", 105.187);
    ("sim: schedule+cancel+fire cycle", 88.0986);
    ("sim: schedule_fn+cancel+fire cycle", 88.0986);
  ]

(* PR 4's BENCH_PR4.json numbers on the same machine and quota: the rack
   tier added in this PR routes every request through the engine hot path
   (dispatch timers, estimate refreshes, per-server event streams), so
   these rows guard against the cluster layer taxing the single-server
   fast path it composes over. *)
let pr4_baseline_scale = 0.2
let pr4_baseline_ns =
  [
    ("engine: heap push+pop", 104.287);
    ("engine: wheel push+pop", 31.4413);
    ("sim: schedule+cancel+fire cycle", 75.4381);
    ("sim: schedule_fn+cancel+fire cycle", 60.7865);
    ("experiments: ns per simulated request", 2647.66);
  ]

(* PR 7's BENCH_PR7.json rows for the request path this PR attacks
   (Toeplitz LUT, zero-alloc kvstore parsing, pooled request state,
   keyed schedules). Recorded at scale 0.05: [write_trajectory] will
   only emit [improvement_vs_pr7] from a scale-0.05 run. *)
let pr7_baseline_scale = 0.05
let pr7_baseline_ns =
  [
    ("engine: heap push+pop", 124.693);
    ("engine: wheel push+pop", 39.0151);
    ("sim: schedule+cancel+fire cycle", 87.0269);
    ("sim: schedule_fn+cancel+fire cycle", 74.2401);
    ("experiments: ns per simulated request", 2959.05);
    ("net: toeplitz RSS dispatch", 2153.84);
    ("kvstore: parse+execute GET", 170.174);
  ]

(* ---- Bechamel microbenchmarks ---- *)

(* Some tests measure a block of [n] inner operations per staged call (to
   amortize loop overhead or batch a whole mini-simulation); their ns/op
   estimate is divided by [per_run] before reporting. *)
type micro = { test : Bechamel.Test.t; per_run : float }

let micro_tests () =
  let open Bechamel in
  let one name fn = { test = Test.make ~name (Staged.stage fn); per_run = 1. } in
  let heap_bench =
    (* Steady-state push+pop at depth 512: a sweep point keeps roughly one
       pending event per connection, so the representative cost includes a
       sift of depth ~9, not an empty-heap round trip. The rotating time
       keeps the inserted key landing at varied depths. *)
    let heap = Engine.Heap.create ~dummy:0 () in
    let () =
      for i = 1 to 512 do
        Engine.Heap.add heap ~time:(float_of_int (i * 7 mod 512)) 0
      done
    in
    let counter = ref 0 in
    one "engine: heap push+pop" (fun () ->
        incr counter;
        Engine.Heap.add heap ~time:(float_of_int (!counter * 7 mod 512)) 0;
        ignore (Engine.Heap.min_elt heap : int);
        Engine.Heap.drop_min heap)
  in
  let wheel_bench =
    (* The same steady-state body as the heap bench, on the timing wheel:
       depth 512, rotating key, so the two ns/op numbers are directly
       comparable. *)
    let wheel = Engine.Wheel.create ~dummy:0 () in
    let () =
      for i = 1 to 512 do
        Engine.Wheel.add wheel ~time:(float_of_int (i * 7 mod 512)) 0
      done
    in
    let counter = ref 0 in
    let base = ref 0 in
    one "engine: wheel push+pop" (fun () ->
        incr counter;
        (* The wheel's clock only moves forward; rebase the rotating key on
           the current minimum instead of wrapping to absolute time. *)
        if !counter land 511 = 0 then
          base := int_of_float (Engine.Wheel.min_time wheel);
        Engine.Wheel.add wheel
          ~time:(float_of_int (!base + (!counter * 7 mod 512)))
          0;
        ignore (Engine.Wheel.min_elt wheel : int);
        Engine.Wheel.drop_min wheel)
  in
  let sim_cycle_bench =
    (* Steady-state engine cycle: two schedules, one cancel, one fire (the
       fire also skips the previous iteration's cancelled entry), touching
       the pool free list and the queue without allocating. Runs on the
       default queue (the wheel); PR 3's number for this bench ran the
       heap. *)
    let sim = Engine.Sim.create () in
    let noop () = () in
    one "sim: schedule+cancel+fire cycle" (fun () ->
        let _h1 : Engine.Sim.handle = Engine.Sim.schedule_after sim ~delay:1.0 noop in
        let h2 = Engine.Sim.schedule_after sim ~delay:2.0 noop in
        Engine.Sim.cancel sim h2;
        ignore (Engine.Sim.step sim : bool))
  in
  let sim_fn_cycle_bench =
    (* The same cycle through the closure-free API: no closure built per
       schedule, payload carried in the pool's int array. *)
    let sim = Engine.Sim.create () in
    let clk = Engine.Sim.clock_buffer sim and kbuf = Engine.Sim.key_buffer sim in
    let noop_fn (_ : int) = () in
    one "sim: schedule_fn+cancel+fire cycle" (fun () ->
        kbuf.(0) <- clk.(0) +. 1.0;
        let _h1 : Engine.Sim.handle = Engine.Sim.schedule_fn_keyed sim noop_fn 0 in
        kbuf.(0) <- clk.(0) +. 2.0;
        let h2 = Engine.Sim.schedule_fn_keyed sim noop_fn 0 in
        Engine.Sim.cancel sim h2;
        ignore (Engine.Sim.step sim : bool))
  in
  let sim_deep kind name =
    (* Depth-512 self-rescheduling cohort (every event re-arms itself 512
       µs out): the queue discipline dominates, so this is where heap
       sift-depth and wheel bucketing actually separate. *)
    let sim = Engine.Sim.create ~queue:kind () in
    let clk = Engine.Sim.clock_buffer sim and kbuf = Engine.Sim.key_buffer sim in
    let rec fn _ =
      kbuf.(0) <- clk.(0) +. 512.0;
      ignore (Engine.Sim.schedule_fn_keyed sim fn 0 : Engine.Sim.handle)
    in
    let () =
      for _ = 1 to 512 do
        fn 0
      done
    in
    one name (fun () -> ignore (Engine.Sim.step sim : bool))
  in
  let sim_deep_heap_bench = sim_deep Engine.Equeue.Heap "sim: depth-512 fn step (heap)" in
  let sim_deep_wheel_bench = sim_deep Engine.Equeue.Wheel "sim: depth-512 fn step (wheel)" in
  let experiments_bench =
    (* End-to-end cost per simulated request: a tiny ZygOS point (the
       paper's default sweep config at scale 0.05) amortized over its
       measured request count. *)
    let requests = 1_500 in
    let cfg =
      Experiments.Run.config ~cores:4 ~conns:128 ~requests ~seed:1
        ~system:Experiments.Run.Zygos ~service:(Engine.Dist.exponential 10.) ()
    in
    {
      test =
        Test.make ~name:"experiments: ns per simulated request"
          (Staged.stage (fun () ->
               ignore (Experiments.Run.run_point cfg ~load:0.5 : Experiments.Run.point)));
      per_run = float_of_int requests;
    }
  in
  let rss = Net.Rss.create ~queues:16 () in
  let rss_bench =
    let counter = ref 0 in
    one "net: toeplitz RSS dispatch" (fun () ->
        incr counter;
        ignore (Net.Rss.queue_of_conn rss (!counter land 0x3ff) : int))
  in
  let tally_bench =
    (* Bounded like a point's tally: cleared (capacity kept) every 2^16
       records. Grown for the whole Bechamel run instead, the row timed
       reservoir growth (~1 µs/op) rather than a record (~4 ns). *)
    let tally = Stats.Tally.create () in
    one "stats: tally record" (fun () ->
        if Stats.Tally.count tally = 1 lsl 16 then Stats.Tally.clear tally;
        Stats.Tally.record tally 12.5)
  in
  let sched_bench =
    let module S = Core.Sched.Sim_sched in
    let sched = S.create ~cores:4 in
    let pcb = S.register sched ~conn:0 ~home:0 in
    one "core: shuffle deliver+dispatch+complete" (fun () ->
        S.deliver sched pcb ();
        if S.poll_local sched ~core:0 then S.complete sched (S.batch_pcb sched ~core:0)
        else assert false)
  in
  let victim_order_bench =
    (* The steal-victim order every ZygOS poll draws on the 16-core
       configuration the figures run: a 15-element shuffle. *)
    let policy = Core.Steal_policy.create ~rng:(Engine.Rng.create ~seed:3) ~cores:16 ~self:0 in
    one "core: victim order (16 cores)" (fun () ->
        ignore (Core.Steal_policy.victim_order policy : int array))
  in
  let btree = Silo.Btree.create () in
  let () =
    for i = 0 to 9_999 do
      ignore (Silo.Btree.insert btree (Silo.Key.of_int i) i : [ `Inserted | `Duplicate of int ])
    done
  in
  let btree_get_bench =
    let counter = ref 0 in
    one "silo: btree get (10k keys)" (fun () ->
        incr counter;
        ignore (Silo.Btree.get btree (Silo.Key.of_int (!counter mod 10_000))))
  in
  let btree_churn_bench =
    let counter = ref 0 in
    one "silo: btree insert+remove" (fun () ->
        incr counter;
        let key = Silo.Key.of_int (100_000 + (!counter mod 1024)) in
        ignore (Silo.Btree.insert btree key 0 : [ `Inserted | `Duplicate of int ]);
        ignore (Silo.Btree.remove btree key : int option))
  in
  let tpcc = Silo.Tpcc.load () in
  let worker = Silo.Db.worker (Silo.Tpcc.db tpcc) ~id:0 in
  let tpcc_rng = Engine.Rng.create ~seed:5 in
  let payment_bench =
    one "silo: TPC-C Payment transaction" (fun () ->
        ignore (Silo.Tpcc.execute tpcc worker tpcc_rng Silo.Tpcc.Payment : Silo.Tpcc.outcome))
  in
  let neworder_bench =
    one "silo: TPC-C NewOrder transaction" (fun () ->
        ignore (Silo.Tpcc.execute tpcc worker tpcc_rng Silo.Tpcc.New_order : Silo.Tpcc.outcome))
  in
  let store = Kvstore.Store.create ~capacity:10_000 () in
  let () = Kvstore.Store.set store "bench-key" "bench-value" in
  let kv_bench =
    let parser = Kvstore.Protocol.create_parser () in
    one "kvstore: parse+execute GET" (fun () ->
        match Kvstore.Protocol.feed parser "get bench-key\r\n" with
        | [ Ok cmd ] -> ignore (Kvstore.Protocol.execute store cmd : Kvstore.Protocol.response)
        | _ -> assert false)
  in
  [
    heap_bench;
    wheel_bench;
    sim_cycle_bench;
    sim_fn_cycle_bench;
    sim_deep_heap_bench;
    sim_deep_wheel_bench;
    experiments_bench;
    rss_bench;
    tally_bench;
    sched_bench;
    victim_order_bench;
    btree_get_bench;
    btree_churn_bench;
    payment_bench;
    neworder_bench;
    kv_bench;
  ]

(* Minor-heap allocation of the end-to-end request path, amortized per
   simulated request (point setup and tally collection included). Not a
   Bechamel test — [Gc.minor_words] deltas around whole [run_point]
   calls; the unit is words, not ns, and the row is reported alongside
   the timing rows so the trajectory tracks allocation regressions the
   same way it tracks time regressions. *)
let words_per_request_row () =
  let requests = 1_500 in
  let cfg =
    Experiments.Run.config ~cores:4 ~conns:128 ~requests ~seed:1
      ~system:Experiments.Run.Zygos ~service:(Engine.Dist.exponential 10.) ()
  in
  let point () = ignore (Experiments.Run.run_point cfg ~load:0.5 : Experiments.Run.point) in
  point ();
  let iters = 3 in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    point ()
  done;
  let per_req = (Gc.minor_words () -. w0) /. float_of_int (iters * requests) in
  ("experiments: minor words per simulated request", per_req)

(* ns/op per microbenchmark, one Bechamel run each. *)
let micro_rows ~scale : (string * float) list =
  let open Bechamel in
  (* Floor of 1s per test regardless of sweep scale: the ns/op estimates
     (and the seed baselines they are compared against, measured at a 1s
     quota) need enough samples to be stable; scale only buys more beyond
     that. *)
  let quota = Time.second (Float.max 1.0 (0.5 *. scale)) in
  let cfg = Benchmark.cfg ~limit:1000 ~quota ~kde:None ~stabilize:false () in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  List.concat_map
    (fun { test; per_run } ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.fold
        (fun name bench acc ->
          let est = Analyze.one ols instance bench in
          let ns =
            match Analyze.OLS.estimates est with Some (x :: _) -> x | _ -> nan
          in
          (name, ns /. per_run) :: acc)
        results [])
    (micro_tests ())
  @ [ words_per_request_row () ]

let last_micro_rows : (string * float) list ref = ref []

let micro ~scale =
  Experiments.Output.print_header "Microbenchmarks (Bechamel, ns per operation)";
  let rows = micro_rows ~scale in
  last_micro_rows := rows;
  Experiments.Output.print_table ~columns:[ "operation"; "ns/op (words/req where noted)" ]
    ~rows:
      (List.sort compare
         (List.map (fun (name, ns) -> [ name; Printf.sprintf "%.1f" ns ]) rows))

(* ---- equeue: heap vs wheel at 1e3..1e6 pending events ---- *)

let last_equeue : (string * float) list ref = ref []

let equeue_bench ~jobs ~scale =
  ignore (jobs : int);
  let module E = Engine.Equeue in
  (* 1. Pop-order identity: both back ends must produce the same (time,
     seqno) pop sequence for an adversarial interleaving of adds and pops
     (duplicate times, past adds, far-future cascade targets). *)
  let assert_parity () =
    let rng = Engine.Rng.create ~seed:99 in
    let heap = E.create E.Heap and wheel = E.create E.Wheel in
    let n = 20_000 in
    let clock = ref 0. in
    for i = 0 to n - 1 do
      let t =
        match Engine.Rng.int rng 10 with
        | 0 -> !clock (* tie with the current minimum *)
        | 1 -> !clock +. 1e7 (* far future: multi-level cascade *)
        | 2 -> !clock +. (float_of_int (Engine.Rng.int rng 1000) /. 16.) (* sub-us ties *)
        | _ -> !clock +. float_of_int (Engine.Rng.int rng 4096)
      in
      E.add heap ~time:t i;
      E.add wheel ~time:t i;
      if Engine.Rng.int rng 3 = 0 then begin
        let th = E.min_time heap and tw = E.min_time wheel in
        let vh = E.min_elt heap and vw = E.min_elt wheel in
        if th <> tw || vh <> vw then
          failwith
            (Printf.sprintf "equeue parity: heap (%g, %d) <> wheel (%g, %d)" th vh tw vw);
        E.drop_min heap;
        E.drop_min wheel;
        clock := th
      end
    done;
    while not (E.is_empty heap) do
      let th = E.min_time heap and tw = E.min_time wheel in
      let vh = E.min_elt heap and vw = E.min_elt wheel in
      if th <> tw || vh <> vw then
        failwith (Printf.sprintf "equeue parity: heap (%g, %d) <> wheel (%g, %d)" th vh tw vw);
      E.drop_min heap;
      E.drop_min wheel
    done;
    if not (E.is_empty wheel) then failwith "equeue parity: wheel longer than heap"
  in
  assert_parity ();
  (* 2. Raw push+pop ns/op at growing pending-set sizes: the heap pays
     O(log n) sifts, the wheel O(1) bucket ops. Rotating relative delays
     keep the insert depth varied. *)
  let ops = max 200_000 (int_of_float (2e6 *. scale)) in
  let raw kind n =
    let q = E.create ~capacity:n kind in
    for i = 1 to n do
      E.add q ~time:(float_of_int (i * 7 mod n)) 0
    done;
    let t0 = Unix.gettimeofday () in
    for i = 1 to ops do
      let m = E.min_time q in
      ignore (E.min_elt q : int);
      E.drop_min q;
      E.add q ~time:(m +. float_of_int (i * 7 mod n)) 0
    done;
    let dt = Unix.gettimeofday () -. t0 in
    E.clear q;
    dt /. float_of_int ops *. 1e9
  in
  (* 3. Schedule+cancel+fire through Sim at depth n, per dispatch API:
     the cancel path exercises lazy deletion in both queues. *)
  let sim_cycle kind ~fn_api n =
    let sim = Engine.Sim.create ~queue:kind () in
    let clk = Engine.Sim.clock_buffer sim and kbuf = Engine.Sim.key_buffer sim in
    let noop () = () in
    let noop_fn (_ : int) = () in
    let rec keepalive _ =
      kbuf.(0) <- clk.(0) +. float_of_int n;
      ignore (Engine.Sim.schedule_fn_keyed sim keepalive 0 : Engine.Sim.handle)
    in
    for _ = 1 to n do
      keepalive 0
    done;
    let cycles = max 1 (ops / 4) in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to cycles do
      let h =
        if fn_api then begin
          kbuf.(0) <- clk.(0) +. 2.0;
          Engine.Sim.schedule_fn_keyed sim noop_fn 0
        end
        else Engine.Sim.schedule_after sim ~delay:2.0 noop
      in
      Engine.Sim.cancel sim h;
      ignore (Engine.Sim.step sim : bool)
    done;
    let dt = Unix.gettimeofday () -. t0 in
    dt /. float_of_int cycles *. 1e9
  in
  let sizes =
    if scale >= 0.5 then [ 1_000; 10_000; 100_000; 1_000_000 ]
    else [ 1_000; 10_000; 100_000 ]
  in
  let rows = ref [] in
  let record name v = rows := (name, v) :: !rows in
  List.iter
    (fun n ->
      let h = raw E.Heap n and w = raw E.Wheel n in
      record (Printf.sprintf "heap push+pop @%d" n) h;
      record (Printf.sprintf "wheel push+pop @%d" n) w)
    sizes;
  let d = 512 in
  record "sim closure cycle @512 (heap)" (sim_cycle E.Heap ~fn_api:false d);
  record "sim closure cycle @512 (wheel)" (sim_cycle E.Wheel ~fn_api:false d);
  record "sim schedule_fn cycle @512 (heap)" (sim_cycle E.Heap ~fn_api:true d);
  record "sim schedule_fn cycle @512 (wheel)" (sim_cycle E.Wheel ~fn_api:true d);
  let rows = List.rev !rows in
  last_equeue := rows;
  Experiments.Output.print_header
    "Event queue: heap vs timing wheel (pop-order parity asserted, ns per op)";
  Experiments.Output.print_table
    ~columns:[ "benchmark"; "ns/op" ]
    ~rows:(List.map (fun (name, ns) -> [ name; Printf.sprintf "%.1f" ns ]) rows)

(* ---- sweep: sequential vs pooled wall clock on a fig6 slice ---- *)

let last_sweep_parallel : (string * float) list ref = ref []

let sweep_bench ~jobs ~scale =
  let module Run = Experiments.Run in
  let module Sweep = Experiments.Sweep in
  (* A representative Figure 6 slice: the exp/10µs panel, 5 systems x 9
     loads = 45 mutually independent points. *)
  let service = Engine.Dist.exponential 10. in
  let systems =
    [ Run.Model_central_fcfs; Run.Linux_floating; Run.Ix 1; Run.Zygos; Run.Zygos_no_interrupts ]
  in
  let loads = [ 0.2; 0.35; 0.5; 0.6; 0.7; 0.8; 0.85; 0.9; 0.95 ] in
  let points =
    List.concat_map
      (fun system ->
        List.map
          (fun load ->
            Sweep.point
              ~key:(Printf.sprintf "bench-sweep/%s/%g" (Run.system_name system) load)
              (fun ~seed ->
                let cfg =
                  Run.config ~system ~service ~cores:16
                    ~requests:(max 4_000 (int_of_float (25_000. *. scale)))
                    ~seed ()
                in
                let p = Run.run_point cfg ~load in
                (p.Run.throughput, p.Run.p99)))
          loads)
      systems
  in
  let workers = if jobs > 1 then jobs else Runtime.Pool.recommended_workers () in
  let seq, seq_stats = Sweep.run_with_stats ~jobs:1 ~seed:42 points in
  let par, par_stats = Sweep.run_with_stats ~jobs:workers ~seed:42 points in
  let parity = seq = par in
  let speedup =
    if par_stats.Runtime.Pool.wall_s > 0. then
      seq_stats.Runtime.Pool.wall_s /. par_stats.Runtime.Pool.wall_s
    else 1.
  in
  Experiments.Output.print_header
    "Sweep runner: sequential vs pooled execution (fig6 slice: exp, S = 10us)";
  Experiments.Output.print_table
    ~columns:[ "metric"; "value" ]
    ~rows:
      [
        [ "points"; string_of_int (List.length points) ];
        [ "workers"; string_of_int par_stats.Runtime.Pool.workers ];
        [ "sequential wall (s)"; Printf.sprintf "%.2f" seq_stats.Runtime.Pool.wall_s ];
        [ "pooled wall (s)"; Printf.sprintf "%.2f" par_stats.Runtime.Pool.wall_s ];
        [ "speedup"; Printf.sprintf "%.2fx" speedup ];
        [ "steals"; string_of_int par_stats.Runtime.Pool.steals ];
        [ "output parity"; (if parity then "byte-identical" else "MISMATCH") ];
      ];
  Experiments.Output.print_pool_stats par_stats;
  if not parity then failwith "sweep bench: pooled results differ from sequential";
  last_sweep_parallel :=
    [
      ("points", float_of_int (List.length points));
      ("workers", float_of_int par_stats.Runtime.Pool.workers);
      ("sequential_wall_s", seq_stats.Runtime.Pool.wall_s);
      ("pooled_wall_s", par_stats.Runtime.Pool.wall_s);
      ("speedup", speedup);
      ("steals", float_of_int par_stats.Runtime.Pool.steals);
    ]

(* ---- BENCH_PR8.json: the perf trajectory future PRs regress against ---- *)

let write_trajectory ~path ~scale ~micro ~wall_clock =
  let open Experiments.Output.Json in
  let number_map kvs = obj (List.map (fun (k, v) -> (k, num v)) kvs) in
  let improve_against baseline =
    List.filter_map
      (fun (name, base_ns) ->
        match List.assoc_opt name micro with
        | Some now_ns when Float.is_finite now_ns && now_ns > 0. ->
            Some (name, (base_ns -. now_ns) /. base_ns)
        | _ -> None)
      baseline
  in
  (* Ratios against a baseline recorded at a different ZYGOS_BENCH_SCALE
     are not comparisons of the same measurement (see the note above the
     baseline tables): emit the skip reason instead of the numbers. *)
  let gated key ~baseline_scale baseline =
    if scale = baseline_scale then [ (key, number_map (improve_against baseline)) ]
    else
      [
        ( key ^ "_skipped",
          str
            (Printf.sprintf "run at scale %g, baseline recorded at scale %g; rerun with ZYGOS_BENCH_SCALE=%g to compare"
               scale baseline_scale baseline_scale) );
      ]
  in
  let totals = Experiments.Sweep.read_totals () in
  let pool_totals =
    [
      ("sweeps", float_of_int totals.Experiments.Sweep.sweeps);
      ("points", float_of_int totals.Experiments.Sweep.points);
      ("steals", float_of_int totals.Experiments.Sweep.steals);
      ("busy_s", totals.Experiments.Sweep.busy_s);
      ("wall_s", totals.Experiments.Sweep.wall_s);
      ("workers", float_of_int totals.Experiments.Sweep.workers);
    ]
  in
  let doc =
    obj
      ([
        ("schema", str "zygos-bench/1");
        ("scale", num scale);
        ("micro_ns_per_op", number_map micro);
        ("targets_wall_clock_s", number_map wall_clock);
        ("seed_baseline_ns_per_op", number_map seed_baseline_ns);
        ("pr3_baseline_ns_per_op", number_map pr3_baseline_ns);
        ("pr4_baseline_ns_per_op", number_map pr4_baseline_ns);
        ("pr7_baseline_ns_per_op", number_map pr7_baseline_ns);
      ]
      @ gated "improvement_vs_seed" ~baseline_scale:seed_baseline_scale seed_baseline_ns
      @ gated "improvement_vs_pr3" ~baseline_scale:pr3_baseline_scale pr3_baseline_ns
      @ gated "improvement_vs_pr4" ~baseline_scale:pr4_baseline_scale pr4_baseline_ns
      @ gated "improvement_vs_pr7" ~baseline_scale:pr7_baseline_scale pr7_baseline_ns
      @ [
        ("equeue_ns_per_op", number_map !last_equeue);
        ("sweep_pool", number_map pool_totals);
        ("sweep_parallel", number_map !last_sweep_parallel);
      ])
  in
  let oc = open_out path in
  output_string oc doc;
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s (%d microbenchmarks, %d targets)\n" path (List.length micro)
    (List.length wall_clock)

(* ---- target registry and driver ---- *)

let targets =
  [
    ("micro", fun ~jobs ~scale -> ignore (jobs : int); micro ~scale);
    ("equeue", equeue_bench);
    ("sweep", sweep_bench);
  ]

(* Consume "-j N" / "--jobs N" / "-jN" / "--jobs=N" from the argument
   list; everything else is a target name (or --json). *)
let parse_jobs args =
  let rec go jobs acc = function
    | [] -> (jobs, List.rev acc)
    | ("-j" | "--jobs") :: v :: rest -> (
        match int_of_string_opt v with
        | Some j when j >= 1 -> go j acc rest
        | _ -> invalid_arg "-j expects a positive integer")
    | [ ("-j" | "--jobs") ] -> invalid_arg "-j expects a positive integer"
    | a :: rest when String.length a > 2 && String.sub a 0 2 = "-j" -> (
        match int_of_string_opt (String.sub a 2 (String.length a - 2)) with
        | Some j when j >= 1 -> go j acc rest
        | _ -> invalid_arg "-j expects a positive integer")
    | a :: rest when String.length a > 7 && String.sub a 0 7 = "--jobs=" -> (
        match int_of_string_opt (String.sub a 7 (String.length a - 7)) with
        | Some j when j >= 1 -> go j acc rest
        | _ -> invalid_arg "--jobs expects a positive integer")
    | a :: rest -> go jobs (a :: acc) rest
  in
  go default_jobs [] args

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json_mode = List.mem "--json" args in
  let args = List.filter (fun a -> a <> "--json") args in
  let jobs, args = parse_jobs args in
  let selected =
    match args with
    | [] | [ "all" ] -> List.map fst targets
    | names ->
        List.iter
          (fun n ->
            if not (List.mem_assoc n targets) then begin
              Printf.eprintf "unknown target %S; available: %s\n" n
                (String.concat ", " (List.map fst targets));
              exit 1
            end)
          names;
        names
  in
  (* --json needs the microbench and event-queue tables; run them even
     when only other targets were selected explicitly. *)
  let selected =
    if json_mode && not (List.mem "micro" selected) then selected @ [ "micro" ] else selected
  in
  let selected =
    if json_mode && not (List.mem "equeue" selected) then selected @ [ "equeue" ] else selected
  in
  Printf.printf
    "ZygOS reproduction benchmarks (scale=%g, jobs=%d; ZYGOS_BENCH_SCALE / -j N to change)\n"
    scale jobs;
  Experiments.Sweep.reset_totals ();
  let wall_clock = ref [] in
  List.iter
    (fun name ->
      let t0 = Unix.gettimeofday () in
      (List.assoc name targets) ~jobs ~scale;
      let dt = Unix.gettimeofday () -. t0 in
      if name <> "micro" then wall_clock := (name, dt) :: !wall_clock;
      Printf.printf "\n[%s done in %.1fs]\n%!" name dt)
    selected;
  (let totals = Experiments.Sweep.read_totals () in
   if totals.Experiments.Sweep.points > 0 then
     Printf.eprintf
       "[sweep pool: %d points over %d sweeps, %d steals, busy %.1fs / wall %.1fs, max %d workers]\n"
       totals.Experiments.Sweep.points totals.Experiments.Sweep.sweeps
       totals.Experiments.Sweep.steals totals.Experiments.Sweep.busy_s
       totals.Experiments.Sweep.wall_s totals.Experiments.Sweep.workers);
  if json_mode then
    write_trajectory ~path:"BENCH_PR8.json" ~scale ~micro:!last_micro_rows
      ~wall_clock:(List.rev !wall_clock)

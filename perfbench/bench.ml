(* The simulator benchmark: runs one named workload from a seed, checks
   the simulated outputs, and prints its metrics as one JSON line.

     bench.exe --workload W --seed N --seconds S --trace 0|1
     bench.exe --workload W --seed N --setup-probe

   --trace 0 measures the end-to-end metrics with tracing off: a check
   pass builds every point by hand from the public constructors and
   checks it, then a fixed number of timed passes repeat the calls a
   figure run makes (Run.run_point, Rackrun.run), each followed by
   set-up probes. --trace 1 runs the hand-built points under spans and
   the ZygOS trace hook, checks each one against the library runner at
   the same seed, and reports the per-layer metrics. S caps a run's
   passes; it does not set their number. --setup-probe stops after the
   warm-up point: it is what the set-up probes run.

   Load comes from this one process on one domain. Every point is an
   open-loop Poisson simulation (the paper's §3.1); points of a pass run
   back to back. README.md lists the metrics and what each should move. *)

module Sim = Engine.Sim
module Rng = Engine.Rng
module Dist = Engine.Dist
module Run = Experiments.Run
module Rackrun = Experiments.Rackrun

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ---- spans ---- *)

(* Span kinds, one per layer boundary the traced run wraps. *)
let k_setup = 0 (* sim, rng, pool, loadgen and system construction *)
let k_run = 1 (* Sim.run *)
let k_submit = 2 (* a server system's Iface.submit *)
let k_rack_submit = 3 (* the rack's Iface.submit (dispatcher) *)
let k_complete = 4 (* Loadgen.complete *)
let k_reduce = 5 (* Tally percentiles of a point *)
let k_model = 6 (* a Models.Queueing simulation *)
let kind_names = [| "setup"; "sim_run"; "submit"; "rack_submit"; "complete"; "reduce"; "model" |]
let n_kinds = Array.length kind_names

(* In-memory span recorder. Self time (a span's duration minus the time
   its child spans cover) is summed per kind as spans close; the spans
   themselves are logged while [keep] is set, up to [max_logged], and
   written out at exit. *)
module Spans = struct
  let max_depth = 16
  let max_logged = 200_000

  type t = {
    self_ns : int array;
    calls : int array;
    open_kind : int array;
    open_start : int array;
    open_child : int array;
    open_log : int array;
    mutable depth : int;
    mutable point : int;
    mutable keep : bool;
    mutable log : int array; (* 6 ints a span: kind point start stop parent self *)
    mutable len : int;
  }

  let create () =
    {
      self_ns = Array.make n_kinds 0;
      calls = Array.make n_kinds 0;
      open_kind = Array.make max_depth 0;
      open_start = Array.make max_depth 0;
      open_child = Array.make max_depth 0;
      open_log = Array.make max_depth (-1);
      depth = 0;
      point = 0;
      keep = true;
      log = Array.make (6 * 4096) 0;
      len = 0;
    }

  let reset_totals t =
    Array.fill t.self_ns 0 n_kinds 0;
    Array.fill t.calls 0 n_kinds 0

  let enter t kind =
    let d = t.depth in
    if d >= max_depth then failwith "perfbench: span nesting too deep";
    t.open_kind.(d) <- kind;
    t.open_child.(d) <- 0;
    (if t.keep && t.len < max_logged then begin
       if 6 * (t.len + 1) > Array.length t.log then begin
         let bigger = Array.make (2 * Array.length t.log) 0 in
         Array.blit t.log 0 bigger 0 (6 * t.len);
         t.log <- bigger
       end;
       let i = 6 * t.len in
       t.log.(i) <- kind;
       t.log.(i + 1) <- t.point;
       t.log.(i + 4) <- (if d = 0 then -1 else t.open_log.(d - 1));
       t.open_log.(d) <- t.len;
       t.len <- t.len + 1
     end
     else t.open_log.(d) <- -1);
    t.depth <- d + 1;
    t.open_start.(d) <- now_ns ()

  let leave t =
    let stop = now_ns () in
    let d = t.depth - 1 in
    t.depth <- d;
    let dur = stop - t.open_start.(d) in
    let self = dur - t.open_child.(d) in
    let kind = t.open_kind.(d) in
    t.self_ns.(kind) <- t.self_ns.(kind) + self;
    t.calls.(kind) <- t.calls.(kind) + 1;
    if d > 0 then t.open_child.(d - 1) <- t.open_child.(d - 1) + dur;
    let li = t.open_log.(d) in
    if li >= 0 then begin
      t.log.((6 * li) + 2) <- t.open_start.(d);
      t.log.((6 * li) + 3) <- stop;
      t.log.((6 * li) + 5) <- self
    end

  let write t path =
    let oc = open_out path in
    output_string oc "span,kind,point,start_ns,stop_ns,parent,self_ns\n";
    for s = 0 to t.len - 1 do
      let i = 6 * s in
      Printf.fprintf oc "%d,%s,%d,%d,%d,%d,%d\n" s kind_names.(t.log.(i)) t.log.(i + 1)
        t.log.(i + 2) t.log.(i + 3) t.log.(i + 4) t.log.(i + 5)
    done;
    close_out oc
end

(* Counts from the ZygOS scheduling trace hook (Core.Sched dispatches as
   the system model reports them). *)
type hook_counts = {
  mutable rx : int;
  mutable local : int;
  mutable steals : int;
  mutable local_events : int;
  mutable stolen_events : int;
  mutable ipis : int;
  mutable remote_tx : int;
}

let hook_counts () =
  { rx = 0; local = 0; steals = 0; local_events = 0; stolen_events = 0; ipis = 0; remote_tx = 0 }

type tracer = { spans : Spans.t; hook : hook_counts }

(* Starts a new point: the spans that follow carry its id. *)
let next_point tr =
  match tr with Some tr -> tr.spans.Spans.point <- tr.spans.Spans.point + 1 | None -> ()

(* A failing point raises through its spans; they still close, so the
   next point's spans nest correctly. *)
let span tr kind f =
  match tr with
  | None -> f ()
  | Some tr -> (
      Spans.enter tr.spans kind;
      match f () with
      | r ->
          Spans.leave tr.spans;
          r
      | exception e ->
          Spans.leave tr.spans;
          raise e)

let wrap tr kind (f : int -> unit) =
  match tr with None -> f | Some _ -> fun req -> span tr kind (fun () -> f req)

let trace_hook tr =
  match tr with
  | None -> None
  | Some { hook = c; _ } ->
      Some
        (fun (_ : float) (ev : Systems.Zygos.trace_event) ->
          match ev with
          | Systems.Zygos.Rx _ -> c.rx <- c.rx + 1
          | Dispatch_local { events; _ } ->
              c.local <- c.local + 1;
              c.local_events <- c.local_events + events
          | Steal { events; _ } ->
              c.steals <- c.steals + 1;
              c.stolen_events <- c.stolen_events + events
          | Ipi _ -> c.ipis <- c.ipis + 1
          | Remote_tx _ -> c.remote_tx <- c.remote_tx + 1)

(* ---- hand-built points ---- *)

(* What the public runners return, plus the counters a hand-built point
   can also read. *)
type built = {
  point : Run.point;
  generated : int;
  fired : int;
  scheduled : int;
  slots : int;
  hwm : int;
}

let make_system kind sim params ~rng ~pool ~conns ~respond ~trace =
  match kind with
  | Run.Ix b -> Systems.Ix.create sim (Systems.Params.with_ix_batch params b) ~pool ~conns ~respond
  | Run.Zygos -> Systems.Zygos.create sim params ~rng ~pool ~conns ~respond ?trace ()
  | _ -> invalid_arg "perfbench: no workload uses this system"

let client_info gen =
  [
    ("client_retries", float_of_int (Net.Loadgen.retries gen));
    ("client_timeouts", float_of_int (Net.Loadgen.timeouts gen));
    ("client_retry_exhausted", float_of_int (Net.Loadgen.retry_exhausted gen));
    ("duplicate_completions", float_of_int (Net.Loadgen.duplicate_completions gen));
  ]

(* Run.run_real_point's construction, in its order, for the fault-free,
   retry-free, shed-free configurations the workloads use. *)
let single tr (cfg : Run.config) ~load =
  let sim, gen, pool, rate, system =
    span tr k_setup (fun () ->
        let sim = Sim.create () in
        let rng = Rng.create ~seed:cfg.seed in
        let loadgen_rng = Rng.split rng in
        let system_rng = Rng.split rng in
        let rate = load *. float_of_int cfg.cores /. Dist.mean cfg.service in
        let pool = Net.Request.create_pool ~recycle:true () in
        let gen =
          Net.Loadgen.create sim ~rng:loadgen_rng ~pool ~conns:cfg.conns ~rate
            ~service:cfg.service ~selection:cfg.selection ~slo:cfg.slo ()
        in
        let respond = wrap tr k_complete (fun req -> Net.Loadgen.complete gen req) in
        let params =
          Systems.Params.with_stragglers
            (Systems.Params.with_rpc_packets
               (Systems.Params.default ~cores:cfg.cores ())
               cfg.rpc_packets)
            cfg.stragglers
        in
        let system =
          make_system cfg.system sim params ~rng:system_rng ~pool ~conns:cfg.conns ~respond
            ~trace:(trace_hook tr)
        in
        Net.Loadgen.set_target gen (wrap tr k_submit system.Systems.Iface.submit);
        let measure = float_of_int cfg.requests /. rate in
        Net.Loadgen.start gen ~warmup:(0.2 *. measure) ~measure;
        (sim, gen, pool, rate, system))
  in
  span tr k_run (fun () -> Sim.run sim);
  let s = Sim.stats sim in
  let info =
    system.Systems.Iface.info ()
    @ client_info gen
    @ [
        ("sim_events_scheduled", float_of_int s.Sim.scheduled);
        ("sim_events_fired", float_of_int s.Sim.fired);
        ("sim_events_cancelled", float_of_int s.Sim.cancelled);
        ("sim_events_reused", float_of_int s.Sim.reused);
        ("sim_pool_slots", float_of_int s.Sim.pool_slots);
      ]
  in
  let point =
    span tr k_reduce (fun () ->
        Run.point_of_tally ~load ~offered_rate:rate ~throughput:(Net.Loadgen.throughput gen)
          ~goodput:(Net.Loadgen.goodput gen)
          ~order_violations:(Net.Loadgen.order_violations gen)
          ~info (Net.Loadgen.tally gen))
  in
  {
    point;
    generated = Net.Loadgen.generated gen;
    fired = s.Sim.fired;
    scheduled = s.Sim.scheduled;
    slots = s.Sim.pool_slots;
    hwm = Net.Request.hwm pool;
  }

(* Rackrun.run's construction, in its order. *)
let rack tr (cfg : Rackrun.config) ~load =
  let sim, gen, pool, rate, iface =
    span tr k_setup (fun () ->
        let sim = Sim.create () in
        let rng = Rng.create ~seed:cfg.seed in
        let loadgen_rng = Rng.split rng in
        let rate = load *. float_of_int (cfg.cores * cfg.servers) /. Dist.mean cfg.service in
        let pool = Net.Request.create_pool ~recycle:false () in
        let gen =
          Net.Loadgen.create sim ~rng:loadgen_rng ~pool ~conns:cfg.conns ~rate
            ~service:cfg.service ~slo:cfg.slo ?retry:cfg.retry ()
        in
        let measure = float_of_int cfg.requests /. rate in
        let warmup = 0.2 *. measure in
        let rack_cfg =
          Cluster.Rack.config ~servers:cfg.servers ~policy:cfg.policy
            ~feedback_delay:cfg.feedback_delay ~feedback_until:(warmup +. measure)
            ?detect:cfg.detect ?hedge:cfg.hedge ~failplan:cfg.failplan ()
        in
        let make_server ~i ~rng ~respond =
          let params =
            Systems.Params.with_stragglers
              (Systems.Params.with_rpc_packets
                 (Systems.Params.default ~cores:cfg.cores ())
                 cfg.rpc_packets)
              (Cluster.Failplan.stragglers cfg.failplan ~server:i ~cores:cfg.cores)
          in
          let server =
            make_system cfg.system sim params ~rng ~pool ~conns:cfg.conns ~respond
              ~trace:(trace_hook tr)
          in
          { server with Systems.Iface.submit = wrap tr k_submit server.Systems.Iface.submit }
        in
        let rack =
          Cluster.Rack.create sim rack_cfg ~rng ~pool ~make_server
            ~respond:(wrap tr k_complete (fun req -> Net.Loadgen.complete gen req))
        in
        let iface = Cluster.Rack.iface rack in
        Net.Loadgen.set_target gen (wrap tr k_rack_submit iface.Systems.Iface.submit);
        Net.Loadgen.start gen ~warmup ~measure;
        (sim, gen, pool, rate, iface))
  in
  span tr k_run (fun () -> Sim.run sim);
  let s = Sim.stats sim in
  let point =
    span tr k_reduce (fun () ->
        Run.point_of_tally ~load ~offered_rate:rate ~throughput:(Net.Loadgen.throughput gen)
          ~goodput:(Net.Loadgen.goodput gen)
          ~order_violations:(Net.Loadgen.order_violations gen)
          ~info:(iface.Systems.Iface.info () @ client_info gen)
          (Net.Loadgen.tally gen))
  in
  {
    point;
    generated = Net.Loadgen.generated gen;
    fired = s.Sim.fired;
    scheduled = s.Sim.scheduled;
    slots = s.Sim.pool_slots;
    hwm = Net.Request.hwm pool;
  }

(* ---- workloads ---- *)

type spec = Single of Run.config | Rack of Rackrun.config

type job = { key : string; spec : spec; load : float }

let run_job tr job =
  match job.spec with
  | Single cfg -> single tr cfg ~load:job.load
  | Rack cfg -> rack tr cfg ~load:job.load

(* What a figure run calls for the same point. *)
let library_point job =
  match job.spec with
  | Single cfg -> Run.run_point cfg ~load:job.load
  | Rack cfg -> Rackrun.run cfg ~load:job.load

let job_requests job =
  match job.spec with Single c -> c.Run.requests | Rack c -> c.Rackrun.requests

(* The zero-overhead model point a job is bounded by: the rack's
   Rackrun.central_bound, or M/G/16/FCFS for a single server. *)
let reference_point job =
  match job.spec with
  | Rack cfg -> Rackrun.central_bound cfg ~load:job.load
  | Single cfg -> Run.run_point { cfg with system = Run.Model_central_fcfs } ~load:job.load

(* Jobs a model simulation runs: its measured requests plus the
   requests/5 warm-up Models.Queueing.simulate precedes them with. *)
let jobs_of_model requests = requests + (requests / 5)

let exp10 = Dist.exponential 10.

(* [passes]: timed passes in a --trace 0 run. *)
type workload = { name : string; jobs : job list; warmup : job; passes : int }

(* Request budgets per point. ZygOS points use the figures' default of
   30k requests; IX points are ~15x cheaper per request, so they run
   more. ZygOS spends 3-5x fewer ns per request at load 0.8 than at 0.1
   or 0.3 (fewer idle wakes and IPIs per request), so its 0.8 points,
   alone and in the rack, run more requests: no point is short enough
   for scheduler noise to dominate its time. The pass counts are fixed,
   so that every commit's figures are the same estimator over the same
   number of samples: each is sized to take about two thirds of a 40 s
   run on a 2-vCPU x86 virtual machine, leaving room for the machine's
   slow phases before the --seconds cap cuts a run short. Every count
   gives the point-time tail (the 11th-slowest sample) at least 11
   samples. *)
let by_load ~base ~hi load = if load > 0.5 then hi else base
let zygos_requests = by_load ~base:30_000 ~hi:120_000
let ix_requests _ = 100_000
let rack_requests = by_load ~base:12_000 ~hi:36_000
let warmup_requests = 1_000
(* Set-up probes after each timed pass. *)
let probes_per_pass = 3
(* Passes of a --trace 1 run; its counts are exact and its times are
   not gated. *)
let traced_passes = 5

let loads = [ 0.1; 0.3; 0.8 ]

let single_cfg ~system ~requests ~seed =
  Run.config ~cores:16 ~conns:2752 ~requests ~seed ~system ~service:exp10 ()

let workload name ~seed =
  let pseed key = Experiments.Sweep.point_seed ~seed ~key in
  let fixed system ~requests ~passes =
    let job load =
      let key = Printf.sprintf "%s/%g" name load in
      { key; load; spec = Single (single_cfg ~system ~requests:(requests load) ~seed:(pseed key)) }
    in
    let key = name ^ "/warmup" in
    {
      name;
      jobs = List.map job loads;
      warmup =
        {
          key;
          load = 0.3;
          spec = Single (single_cfg ~system ~requests:warmup_requests ~seed:(pseed key));
        };
      passes;
    }
  in
  match name with
  | "zygos-loads" -> fixed Run.Zygos ~requests:zygos_requests ~passes:20
  | "ix-loads" -> fixed (Run.Ix 1) ~requests:ix_requests ~passes:100
  | "rack" ->
      let rcfg ~policy ~requests ~key =
        Rackrun.config ~servers:4 ~system:Run.Zygos ~cores:16 ~conns:2752 ~requests
          ~seed:(pseed key) ~feedback_delay:5. ~policy ~service:exp10 ()
      in
      let job policy load =
        let key = Printf.sprintf "%s/%s/%g" name (Cluster.Policy.name policy) load in
        { key; load; spec = Rack (rcfg ~policy ~requests:(rack_requests load) ~key) }
      in
      let key = name ^ "/warmup" in
      {
        name;
        jobs =
          List.concat_map
            (fun policy -> List.map (job policy) loads)
            [ Cluster.Policy.Jbsq 32; Cluster.Policy.Po2 ];
        warmup =
          {
            key;
            load = 0.3;
            spec = Rack (rcfg ~policy:(Cluster.Policy.Jbsq 32) ~requests:warmup_requests ~key);
          };
        passes = 22;
      }
  | _ -> invalid_arg (Printf.sprintf "unknown workload %S" name)

(* ---- output checks ---- *)

let attempted = ref 0
let failed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      prerr_endline ("perfbench: FAIL " ^ msg))
    fmt

let info fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* Throughput differs from the offered rate only by Poisson noise over
   the measurement window while the server keeps up, which every system
   does at loads <= 0.3. *)
let throughput_tolerance = 0.1

(* Per-connection response order is a single-server guarantee (§4.3): a
   rack dispatches each request of a connection on its own, so responses
   of one connection may come back from different servers out of order. *)
let check_point job (p : Run.point) =
  let bad = ref [] in
  let need ok what = if not ok then bad := what :: !bad in
  (match job.spec with
  | Single _ ->
      need (p.order_violations = 0) (Printf.sprintf "order_violations=%d" p.order_violations)
  | Rack _ -> ());
  (match Run.info_value p "wc_violations" with
  | Some v -> need (Float.equal v 0.) (Printf.sprintf "wc_violations=%g" v)
  | None -> ());
  need (p.completed > 0) "completed=0";
  need
    (p.p50 <= p.p99 && p.p99 <= p.p999)
    (Printf.sprintf "percentiles out of order p50=%g p99=%g p999=%g" p.p50 p.p99 p.p999);
  if p.load <= 0.3 +. 1e-9 then
    need
      (Float.abs (p.throughput -. p.offered_rate) <= throughput_tolerance *. p.offered_rate)
      (Printf.sprintf "throughput %g vs offered %g" p.throughput p.offered_rate);
  if !bad <> [] then fail "%s: %s" job.key (String.concat ", " (List.rev !bad))

(* Bit-for-bit equality of two points (NaN equal to itself). *)
let same_point (a : Run.point) (b : Run.point) = compare a b = 0

(* Count one unit of work as attempted; it fails when it raises. *)
let attempt key f =
  incr attempted;
  match f () with
  | r -> Some r
  | exception e ->
      fail "%s: raised %s" key (Printexc.to_string e);
      None

let time_ns f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* Times [f] together with the major collection of the garbage it
   leaves, so each point pays for its own heap work, as it does in a
   figure run. Passes start on a collected heap ([start_pass]), so no
   point pays for what came before it either. *)
let time_collected f =
  time_ns (fun () ->
      let r = f () in
      Gc.full_major ();
      r)

let start_pass () = Gc.full_major ()

(* ---- one pass over hand-built points ---- *)

type record = { job : job; ns : int; b : built }

(* Runs every point of the workload by hand, under [tr] when tracing,
   and checks the outputs: each point, and its zero-overhead reference
   point. Returns the records in run order and the jobs the reference
   model simulations ran. *)
let hand_pass tr w =
  start_pass ();
  let model_jobs = ref 0 in
  let pts =
    List.filter_map
      (fun job ->
        next_point tr;
        match attempt job.key (fun () -> time_collected (fun () -> run_job tr job)) with
        | None -> None
        | Some (b, ns) ->
            check_point job b.point;
            (match
               attempt (job.key ^ "/bound") (fun () ->
                   span tr k_model (fun () -> reference_point job))
             with
            | None -> ()
            | Some bound -> (
                model_jobs := !model_jobs + jobs_of_model (job_requests job);
                (* rack: each dispatched point's p99 stays within 3x the
                   rack-wide M/G/64/FCFS bound at the same load and seed. *)
                match job.spec with
                | Rack _ when b.point.p99 > 3. *. bound.p99 ->
                    fail "%s: p99 %g above 3x the central bound %g" job.key b.point.p99
                      bound.p99
                | Rack _ | Single _ -> ()));
            Some { job; ns; b })
      w.jobs
  in
  (pts, !model_jobs)

(* ---- statistics ---- *)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least ten samples beyond it: the
   11th-largest sample, and the percentile it stands at. *)
let tail l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n < 11 then (nan, 0.)
  else (a.(n - 11), float_of_int (100 * (n - 10)) /. float_of_int n)

(* ns_per_req.{lo,mid,hi} buckets by offered load: the 0.1 / 0.3 / 0.8
   points. *)
let bucket load = if load < 0.2 then 0 else if load < 0.55 then 1 else 2

(* Wall ns per simulated request, per load bucket, over (load, ns,
   requests) samples. *)
let ns_per_req samples =
  let ns = Array.make 3 0 and req = Array.make 3 0 in
  List.iter
    (fun (load, t, r) ->
      let i = bucket load in
      ns.(i) <- ns.(i) + t;
      req.(i) <- req.(i) + r)
    samples;
  Array.init 3 (fun i ->
      if req.(i) = 0 then nan else float_of_int ns.(i) /. float_of_int req.(i))

(* ---- output ---- *)

let print_result metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  let correct = !failed = 0 && List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed body

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* ---- --trace 0: end-to-end metrics ---- *)

(* Runs [pass] [passes] times, stopping early only if another pass, as
   long as the last one, would end after [seconds]. *)
let repeat ~passes ~seconds pass =
  let stop = now_ns () + (seconds * 1_000_000_000) in
  let rec go n =
    let t0 = now_ns () in
    pass ();
    let t1 = now_ns () in
    if n + 1 < passes && t1 + (t1 - t0) <= stop then go (n + 1) else n + 1
  in
  go 0

(* One set-up probe: this program started again with --setup-probe, from
   before the start to after the exit, in seconds. *)
let setup_probe w ~seed =
  let argv =
    [| Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int seed; "--setup-probe" |]
  in
  let t0 = now_ns () in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _, _ -> failwith "set-up probe failed"
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  float_of_int (now_ns () - t0) /. 1e9

(* One timed pass of what a figure run calls; every result must equal
   the check pass's. Returns the (load, ns, requests) of each point. *)
let library_pass check =
  start_pass ();
  List.filter_map
    (fun r ->
      match attempt r.job.key (fun () -> time_collected (fun () -> library_point r.job)) with
      | Some (p, ns) ->
          if not (same_point p r.b.point) then
            fail "%s: library point differs from the hand-built one" r.job.key;
          Some (r.job.load, ns, r.b.generated)
      | None -> None)
    check

(* Seconds of a pass's (load, ns, requests) points. *)
let pass_s pts = List.fold_left (fun acc (_, ns, _) -> acc +. (float_of_int ns /. 1e9)) 0. pts

let end_to_end w ~seed ~seconds =
  let check, _ = hand_pass None w in
  let requests = List.fold_left (fun acc r -> acc + r.b.generated) 0 check in
  (* The machine's speed swings by up to 2x over seconds (other tenants),
     so point and set-up times are taken at their fastest: the minimum
     over the run's samples estimates the program's own cost, and a pass
     is its points at their fastest. The tail keeps every sample: it is
     the slow end users see. *)
  let walls = ref [] and words = ref [] and samples = ref [] and setups = ref [] in
  let fastest = ref [||] in
  let passes =
    repeat ~passes:w.passes ~seconds @@ fun () ->
    let w0 = Gc.minor_words () in
    let pts = library_pass check in
    let dw = Gc.minor_words () -. w0 in
    walls := pass_s pts :: !walls;
    words := (dw /. float_of_int requests) :: !words;
    let pts = Array.of_list pts in
    samples := Array.to_list pts @ !samples;
    fastest :=
      if Array.length !fastest = 0 then pts
      else Array.map2 (fun (l, a, g) (_, b, _) -> (l, min a b, g)) !fastest pts;
    for _ = 1 to probes_per_pass do
      Option.iter
        (fun s -> setups := s :: !setups)
        (attempt "setup-probe" (fun () -> setup_probe w ~seed))
    done
  in
  let ms (_, ns, _) = float_of_int ns /. 1e6 in
  let tail_ms, tail_pct = tail (List.map ms !samples) in
  let buckets = ns_per_req (Array.to_list !fastest) in
  let wall_s = pass_s (Array.to_list !fastest) in
  if passes < w.passes then info "--seconds cut the run to %d of %d passes" passes w.passes;
  info "%d timed passes of %d simulated requests: median %.3f s, points at their fastest %.3f s"
    passes requests (median !walls) wall_s;
  info "%d points, %d samples; tail = p%.1f" (Array.length !fastest) (List.length !samples)
    tail_pct;
  info "%d set-up probes, fastest %.4f s, median %.4f s" (List.length !setups)
    (List.fold_left Float.min infinity !setups)
    (median !setups);
  (match List.sort_uniq compare !words with
  | [ _ ] -> ()
  | distinct ->
      info "minor words per request differ between passes: %s"
        (String.concat " " (List.map string_of_float distinct)));
  [
    ("setup_s", "s", List.fold_left Float.min infinity !setups);
    ("wall_s", "s", wall_s);
    ("sim_req_per_s", "1/s", float_of_int requests /. wall_s);
    ("ns_per_req.lo", "ns", buckets.(0));
    ("ns_per_req.mid", "ns", buckets.(1));
    ("ns_per_req.hi", "ns", buckets.(2));
    ("point_ms_p50", "ms", median (Array.to_list (Array.map ms !fastest)));
    ("point_ms_tail", "ms", tail_ms);
    ("minor_words_per_req", "words", median !words);
    ("peak_heap_mb", "MiB", peak_heap_mb ());
  ]

(* ---- --trace 1: per-layer metrics ---- *)

(* The exact counts of a traced pass; every pass must repeat them. *)
type exact = {
  e_generated : int;
  e_fired : int;
  e_scheduled : int;
  e_slots : int;
  e_hwm : int;
  e_drops : float;
  e_hook : hook_counts;
}

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let per_layer w ~seconds ~spans_path =
  let on_rack =
    List.exists (fun j -> match j.spec with Rack _ -> true | Single _ -> false) w.jobs
  in
  let spans = Spans.create () in
  let first = ref None in
  let samples = Hashtbl.create 16 in
  let sample name v =
    Hashtbl.replace samples name (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))
  in
  let passes =
    repeat ~passes:traced_passes ~seconds @@ fun () ->
    Spans.reset_totals spans;
    let hook = hook_counts () in
    let pts, model_jobs = hand_pass (Some { spans; hook }) w in
    spans.Spans.keep <- false;
    (* Parity: the library runner at the same seed gives the same point. *)
    start_pass ();
    let lib =
      List.filter_map
        (fun r ->
          let key = r.job.key ^ "/library" in
          match attempt key (fun () -> time_collected (fun () -> library_point r.job)) with
          | Some (lp, ns) ->
              if not (same_point lp r.b.point) then
                fail "%s: traced point differs from the library point" r.job.key;
              Some (r, ns)
          | None -> None)
        pts
    in
    let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
    let maxi f l = List.fold_left (fun acc x -> max acc (f x)) 0 l in
    let bs = List.map (fun r -> r.b) pts in
    let fired = sum (fun b -> b.fired) bs in
    let e =
      {
        e_generated = sum (fun b -> b.generated) bs;
        e_fired = fired;
        e_scheduled = sum (fun b -> b.scheduled) bs;
        e_slots = maxi (fun b -> b.slots) bs;
        e_hwm = maxi (fun b -> b.hwm) bs;
        e_drops =
          List.fold_left
            (fun acc b -> acc +. Option.value ~default:0. (Run.info_value b.point "ring_drops"))
            0. bs;
        e_hook = hook;
      }
    in
    (match !first with
    | None -> first := Some e
    | Some e0 -> if compare e e0 <> 0 then fail "exact counts differ between traced passes");
    let self k = float_of_int spans.Spans.self_ns.(k) in
    let per_call k = ratio spans.Spans.self_ns.(k) spans.Spans.calls.(k) in
    sample "engine.ns_per_event" (self k_run /. float_of_int fired);
    sample "net.submit_ns" (per_call k_submit);
    sample "net.complete_ns" (per_call k_complete);
    sample "stats.reduce_ms_per_point" (per_call k_reduce /. 1e6);
    sample "experiments.setup_ms_per_point" (per_call k_setup /. 1e6);
    sample "models.ns_per_req" (self k_model /. float_of_int model_jobs);
    sample "cluster.submit_ns" (per_call k_rack_submit);
    let top = List.fold_left (fun acc (r, _) -> Float.max acc r.job.load) 0. lib in
    sample "experiments.overload_point_ms"
      (median
         (List.filter_map
            (fun (r, ns) ->
              if Float.equal r.job.load top then Some (float_of_int ns /. 1e6) else None)
            lib));
    sample "trace_overhead" (float_of_int (sum (fun r -> r.ns) pts) /. float_of_int (sum snd lib))
  in
  Spans.write spans spans_path;
  let e = Option.get !first in
  let h = e.e_hook in
  let per_req n = ratio n e.e_generated in
  let med name = median (Hashtbl.find samples name) in
  info "%d traced passes; spans of the first written to %s" passes spans_path;
  [
    ("engine.events_per_req", "events/req", per_req e.e_fired);
    ("engine.fired_ratio", "ratio", ratio e.e_fired e.e_scheduled);
    ("engine.ns_per_event", "ns", med "engine.ns_per_event");
    ("engine.pool_slots", "count", float_of_int e.e_slots);
    ("net.submit_ns", "ns", med "net.submit_ns");
    ("net.complete_ns", "ns", med "net.complete_ns");
    ("net.request_hwm", "count", float_of_int e.e_hwm);
    ("net.ring_drops", "count", e.e_drops);
    ("core.dispatches_per_req", "1/req", per_req (h.local + h.steals));
    ("core.steals_per_req", "1/req", per_req h.steals);
    ("core.steal_fraction", "ratio", ratio h.stolen_events (h.local_events + h.stolen_events));
    ("systems.ipis_per_req", "1/req", per_req h.ipis);
    ("systems.rx_per_req", "1/req", per_req h.rx);
    ("systems.remote_tx_per_req", "1/req", per_req h.remote_tx);
    ("stats.reduce_ms_per_point", "ms", med "stats.reduce_ms_per_point");
    ("experiments.setup_ms_per_point", "ms", med "experiments.setup_ms_per_point");
    ("experiments.overload_point_ms", "ms", med "experiments.overload_point_ms");
    ("models.ns_per_req", "ns", med "models.ns_per_req");
    ("cluster.submit_ns", "ns", med "cluster.submit_ns");
    ("cluster.events_per_req", "events/req", if on_rack then per_req e.e_fired else 0.);
    ("trace_overhead", "ratio", med "trace_overhead");
  ]

(* ---- command line ---- *)

let workload_names = [ "zygos-loads"; "ix-loads"; "rack" ]

let usage () =
  prerr_endline
    ("usage: bench.exe --workload {" ^ String.concat "|" workload_names
   ^ "} --seed N [--seconds S --trace 0|1 --spans PATH | --setup-probe]");
  exit 2

let () =
  let workload_name = ref "" and seed = ref (-1) and seconds = ref 10 and trace = ref 0 in
  let probe = ref false and spans_path = ref "spans.csv" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload_name := v; parse rest
    | "--seed" :: v :: rest -> seed := Option.value ~default:(-1) (int_of_string_opt v); parse rest
    | "--seconds" :: v :: rest ->
        seconds := Option.value ~default:0 (int_of_string_opt v);
        parse rest
    | "--trace" :: v :: rest ->
        trace := Option.value ~default:(-1) (int_of_string_opt v);
        parse rest
    | "--spans" :: v :: rest -> spans_path := v; parse rest
    | "--setup-probe" :: rest -> probe := true; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if (not (List.mem !workload_name workload_names)) || !seed < 0 || !seconds < 1
     || (!trace <> 0 && !trace <> 1)
  then usage ();
  let w = workload !workload_name ~seed:!seed in
  (* Warm-up point: fills lazy tables and pools before anything is timed. *)
  ignore (run_job None w.warmup : built);
  ignore (library_point w.warmup : Run.point);
  if not !probe then begin
    let metrics =
      if !trace = 0 then end_to_end w ~seed:!seed ~seconds:!seconds
      else per_layer w ~seconds:!seconds ~spans_path:!spans_path
    in
    print_result metrics
  end

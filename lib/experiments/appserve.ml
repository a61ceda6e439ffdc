type workload =
  | Tpcc of Silo.Tpcc.t
  | Kv of Kvstore.Workload.t * Kvstore.Store.t

type t = {
  workload : workload;
  rng : Engine.Rng.t;
  worker : Silo.Db.worker option;  (* for Tpcc *)
  clamp_at : float;  (* raw µs cap filtering host-noise artifacts *)
  scale_factor : float;  (* measured µs -> simulated µs *)
  target_mean : float;
  mutable ops : int;
}

(* zygos.allow determinism: appserve times real application code, so
   its service demands are genuine wall-clock measurements. *)
let[@zygos.allow "determinism"] now_us () = Unix.gettimeofday () *. 1e6

let execute_one workload rng worker =
  match workload with
  | Tpcc tpcc ->
      let tx = Silo.Tpcc.standard_mix rng in
      let t0 = now_us () in
      (match Silo.Tpcc.execute tpcc (Option.get worker) rng tx with
      | Silo.Tpcc.Committed | Silo.Tpcc.Rolled_back | Silo.Tpcc.Conflicted -> ());
      now_us () -. t0
  | Kv (wl, store) ->
      let cmd = Kvstore.Workload.next_command wl rng in
      let t0 = now_us () in
      ignore (Kvstore.Protocol.execute store cmd : Kvstore.Protocol.response);
      now_us () -. t0

let create ?(seed = 2026) ?(calibrate_over = 2000) ~target_mean_us workload =
  if target_mean_us < 0. then invalid_arg "Appserve.create: negative target mean";
  if calibrate_over < 1 then invalid_arg "Appserve.create: calibrate_over < 1";
  let rng = Engine.Rng.create ~seed in
  let worker =
    match workload with
    | Tpcc tpcc -> Some (Silo.Db.worker (Silo.Tpcc.db tpcc) ~id:4242)
    | Kv (wl, store) ->
        if Kvstore.Store.size store = 0 then Kvstore.Workload.populate wl store;
        None
  in
  let samples = Array.init calibrate_over (fun _ -> execute_one workload rng worker) in
  Array.sort Float.compare samples;
  (* Wall-clock measurement on a shared host picks up OCaml GC slices and
     OS scheduling noise — milliseconds-long artifacts unrelated to the
     application. The paper disabled Silo's GC for the same reason
     ("it adds experimental variability", §6.3.1); we cap raw durations at
     25x the measured median. Genuine slow transactions (Delivery is
     ~25-50x the median) sit right at that knee; artifact spikes are two
     orders of magnitude above it. *)
  let median = samples.(calibrate_over / 2) in
  let clamp_at = 25. *. Float.max 1e-3 median in
  let clamped = Array.map (fun x -> Float.min x clamp_at) samples in
  let raw_mean = Array.fold_left ( +. ) 0. clamped /. float_of_int calibrate_over in
  let scale_factor =
    if target_mean_us = 0. || raw_mean <= 0. then 1. else target_mean_us /. raw_mean
  in
  {
    workload;
    rng;
    worker;
    clamp_at;
    scale_factor;
    target_mean = (if target_mean_us = 0. then raw_mean else target_mean_us);
    ops = calibrate_over;
  }

let service_fn t ~conn =
  ignore conn;
  t.ops <- t.ops + 1;
  let raw = Float.min t.clamp_at (execute_one t.workload t.rng t.worker) in
  Float.max 0.01 (raw *. t.scale_factor)

let mean_us t = t.target_mean

let executed t = t.ops

let run_point t ~system ~load ?(cores = 16) ?(conns = 2752) ?(requests = 15_000) ?(seed = 42)
    () =
  (match system with
  | Run.Ix_rebalanced _ | Run.Model_central_fcfs | Run.Model_partitioned_fcfs ->
      invalid_arg "Appserve.run_point: unsupported system kind"
  | Run.Linux_partitioned | Run.Linux_floating | Run.Ix _ | Run.Zygos
  | Run.Zygos_no_interrupts | Run.Zygos_round_robin | Run.Preemptive _
  | Run.Preemptive_consolidated _ ->
      ());
  (* The nominal distribution only sets the offered rate; service_fn
     supplies every request's demand. *)
  let cfg =
    Run.config ~cores ~conns ~requests ~seed
      ~service_fn:(fun ~conn -> service_fn t ~conn)
      ~system ~service:(Engine.Dist.deterministic t.target_mean) ()
  in
  Run.run_point cfg ~load

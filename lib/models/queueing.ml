module Sim = Engine.Sim
module Rng = Engine.Rng
module Dist = Engine.Dist

type policy = Fcfs | Ps

type topology = Central | Partitioned

type spec = { servers : int; policy : policy; topology : topology }

let name spec =
  let pol = match spec.policy with Fcfs -> "FCFS" | Ps -> "PS" in
  match spec.topology with
  | Central -> Printf.sprintf "M/G/%d/%s" spec.servers pol
  | Partitioned -> Printf.sprintf "%dxM/G/1/%s" spec.servers pol

type result = {
  latencies : Stats.Tally.t;
  throughput : float;
  offered_load : float;
}

type job = { arrival : float; mutable remaining : float; measured : bool }

type station = {
  capacity : int;
  policy : policy;
  fifo : job Queue.t;  (* FCFS waiting room *)
  mutable running : int;  (* FCFS jobs currently in service *)
  mutable ps_jobs : job list;  (* PS: every job present shares the processors *)
  mutable last_update : float;
  mutable next_done : Sim.handle option;
}

let make_station ~capacity ~policy =
  {
    capacity;
    policy;
    fifo = Queue.create ();
    running = 0;
    ps_jobs = [];
    last_update = 0.;
    next_done = None;
  }

(* ---- FCFS ---- *)

let rec fcfs_start sim station job ~record =
  station.running <- station.running + 1;
  let _ : Sim.handle =
    Sim.schedule_after sim ~delay:job.remaining (fun () ->
        station.running <- station.running - 1;
        record job;
        match Queue.take_opt station.fifo with
        | Some next -> fcfs_start sim station next ~record
        | None -> ())
  in
  ()

let fcfs_arrive sim station job ~record =
  if station.running < station.capacity then fcfs_start sim station job ~record
  else Queue.add job station.fifo

(* ---- Processor sharing ----

   All k jobs present at the station advance simultaneously at rate
   min(1, capacity/k): with k <= capacity every job has a full processor;
   beyond that the processors are split evenly. Remaining work is brought
   up to date lazily at every arrival/completion. *)

let ps_rate station k =
  if k = 0 then 0. else Float.min 1. (float_of_int station.capacity /. float_of_int k)

let ps_update station now =
  let dt = now -. station.last_update in
  if dt > 0. then begin
    let rate = ps_rate station (List.length station.ps_jobs) in
    List.iter (fun j -> j.remaining <- j.remaining -. (dt *. rate)) station.ps_jobs
  end;
  station.last_update <- now

let ps_epsilon = 1e-9

let rec ps_reschedule sim station ~record =
  (match station.next_done with
  | Some h -> Sim.cancel sim h
  | None -> ());
  match station.ps_jobs with
  | [] -> station.next_done <- None
  | jobs ->
      let rate = ps_rate station (List.length jobs) in
      let soonest =
        List.fold_left (fun acc j -> if j.remaining < acc.remaining then j else acc)
          (List.hd jobs) (List.tl jobs)
      in
      let delay = Float.max 0. (soonest.remaining /. rate) in
      station.next_done <-
        Some (Sim.schedule_after sim ~delay (fun () -> ps_complete sim station ~record))

and ps_complete sim station ~record =
  (* Bring work up to date as of now, then retire every finished job
     (float rounding can finish several at once). *)
  ps_update station (Sim.now sim);
  let finished, left = List.partition (fun j -> j.remaining <= ps_epsilon) station.ps_jobs in
  station.ps_jobs <- left;
  List.iter record finished;
  ps_reschedule sim station ~record

let ps_arrive sim station job ~record =
  ps_update station (Sim.now sim);
  station.ps_jobs <- job :: station.ps_jobs;
  ps_reschedule sim station ~record

(* ---- Simulation driver ---- *)

let simulate spec ~service ~load ~requests ~seed =
  if spec.servers < 1 then invalid_arg "Queueing.simulate: servers < 1";
  if load <= 0. || load >= 1.05 then invalid_arg "Queueing.simulate: load out of (0, 1.05)";
  if requests < 1 then invalid_arg "Queueing.simulate: requests < 1";
  let sim = Sim.create () in
  let rng = Rng.create ~seed in
  let arrival_rng = Rng.split rng in
  let service_rng = Rng.split rng in
  let select_rng = Rng.split rng in
  let mean = Dist.mean service in
  let lambda = load *. float_of_int spec.servers /. mean in
  let warmup = requests / 5 in
  let total = warmup + requests in
  let stations =
    match spec.topology with
    | Central -> [| make_station ~capacity:spec.servers ~policy:spec.policy |]
    | Partitioned ->
        Array.init spec.servers (fun _ -> make_station ~capacity:1 ~policy:spec.policy)
  in
  let latencies = Stats.Tally.create () in
  let first_measured_arrival = ref nan in
  let last_measured_completion = ref nan in
  let record job =
    if job.measured then begin
      Stats.Tally.record latencies (Sim.now sim -. job.arrival);
      last_measured_completion := Sim.now sim
    end
  in
  let arrive station job =
    match station.policy with
    | Fcfs -> fcfs_arrive sim station job ~record
    | Ps -> ps_arrive sim station job ~record
  in
  let gaps = Dist.exponential (1. /. lambda) in
  let generated = ref 0 in
  let rec next_arrival () =
    if !generated < total then begin
      let gap = Dist.sample gaps arrival_rng in
      let _ : Sim.handle =
        Sim.schedule_after sim ~delay:gap (fun () ->
            let idx = !generated in
            generated := idx + 1;
            let measured = idx >= warmup in
            let now = Sim.now sim in
            if measured && Float.is_nan !first_measured_arrival then
              first_measured_arrival := now;
            let job =
              { arrival = now; remaining = Dist.sample service service_rng; measured }
            in
            let station =
              match spec.topology with
              | Central -> stations.(0)
              | Partitioned -> stations.(Rng.int select_rng spec.servers)
            in
            arrive station job;
            next_arrival ())
      in
      ()
    end
  in
  next_arrival ();
  Sim.run sim;
  let span = !last_measured_completion -. !first_measured_arrival in
  let throughput =
    if Float.is_nan span || span <= 0. then 0.
    else float_of_int (Stats.Tally.count latencies) /. span
  in
  { latencies; throughput; offered_load = load }

let max_load_at_slo spec ~service ~slo_p99 ?(requests = 40_000) ?(seed = 42) () =
  let meets load =
    let { latencies; _ } = simulate spec ~service ~load ~requests ~seed in
    Stats.Tally.count latencies > 0 && Stats.Tally.p99 latencies <= slo_p99
  in
  if not (meets 0.02) then 0.
  else begin
    let lo = ref 0.02 and hi = ref 0.99 in
    if meets !hi then !hi
    else begin
      while !hi -. !lo > 0.01 do
        let mid = (!lo +. !hi) /. 2. in
        if meets mid then lo := mid else hi := mid
      done;
      !lo
    end
  end

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

(* ---- FCFS: exact recursions ----

   A FIFO station never preempts, so job i starts at the later of its
   arrival and the earliest time a processor of its station is free, and
   holds that processor for its service time. Central keeps the n
   processors' free times and takes the earliest by a linear scan
   (Kiefer–Wolfowitz); Partitioned keeps one free time per
   single-processor station (Lindley). Both disciplines return the first
   measured arrival and the last measured completion. *)
let fcfs spec ~draw ~pick ~warmup ~total latencies =
  let free = Array.make spec.servers 0. in
  (* scratch: 0 the gap, 1 the service demand, 2 the latency *)
  let buf = Array.make 3 0. in
  let arrival = ref 0. and first = ref nan and last = ref neg_infinity in
  for idx = 0 to total - 1 do
    draw buf;
    arrival := !arrival +. buf.(0);
    let k =
      match spec.topology with
      | Partitioned -> pick ()
      | Central ->
          let k = ref 0 in
          for j = 1 to spec.servers - 1 do
            if free.(j) < free.(!k) then k := j
          done;
          !k
    in
    let start = if free.(k) > !arrival then free.(k) else !arrival in
    let completion = start +. buf.(1) in
    free.(k) <- completion;
    if idx >= warmup then begin
      if idx = warmup then first := !arrival;
      buf.(2) <- completion -. !arrival;
      Stats.Tally.record_from latencies buf 2;
      if completion > !last then last := completion
    end
  done;
  (!first, !last)

(* ---- Processor sharing: an event loop ----

   All k jobs present at a station advance simultaneously at rate
   min(1, capacity/k): with k <= capacity every job has a full processor;
   beyond that the processors are split evenly. Remaining work is brought
   up to date lazily at every arrival/completion. *)

type job = { arrival : float; mutable remaining : float; measured : bool }

type station = {
  capacity : int;
  mutable present : job list;
  mutable last_update : float;
  mutable next_done : Sim.handle option;
}

let ps_rate station k =
  if k = 0 then 0. else Float.min 1. (float_of_int station.capacity /. float_of_int k)

let ps_update station now =
  let dt = now -. station.last_update in
  if dt > 0. then begin
    let rate = ps_rate station (List.length station.present) in
    List.iter (fun j -> j.remaining <- j.remaining -. (dt *. rate)) station.present
  end;
  station.last_update <- now

let ps_epsilon = 1e-9

let rec ps_reschedule sim station ~record =
  (match station.next_done with
  | Some h -> Sim.cancel sim h
  | None -> ());
  match station.present with
  | [] -> station.next_done <- None
  | present ->
      let rate = ps_rate station (List.length present) in
      let soonest =
        List.fold_left (fun acc j -> if j.remaining < acc.remaining then j else acc)
          (List.hd present) (List.tl present)
      in
      let delay = Float.max 0. (soonest.remaining /. rate) in
      station.next_done <-
        Some (Sim.schedule_after sim ~delay (fun () -> ps_complete sim station ~record))

and ps_complete sim station ~record =
  (* Bring work up to date as of now, then retire every finished job
     (float rounding can finish several at once). *)
  ps_update station (Sim.now sim);
  let finished, left = List.partition (fun j -> j.remaining <= ps_epsilon) station.present in
  station.present <- left;
  List.iter record finished;
  ps_reschedule sim station ~record

let ps_arrive sim station job ~record =
  ps_update station (Sim.now sim);
  station.present <- job :: station.present;
  ps_reschedule sim station ~record

let ps spec ~draw ~pick ~warmup ~total latencies =
  let sim = Sim.create () in
  let make_station capacity = { capacity; present = []; last_update = 0.; next_done = None } in
  let stations =
    match spec.topology with
    | Central -> [| make_station spec.servers |]
    | Partitioned -> Array.init spec.servers (fun _ -> make_station 1)
  in
  let first = ref nan and last = ref nan in
  let record job =
    if job.measured then begin
      Stats.Tally.record latencies (Sim.now sim -. job.arrival);
      last := Sim.now sim
    end
  in
  let buf = Array.make 2 0. in
  let rec next_arrival idx =
    if idx < total then begin
      draw buf;
      let remaining = buf.(1) in
      let _ : Sim.handle =
        Sim.schedule_after sim ~delay:buf.(0) (fun () ->
            let now = Sim.now sim in
            if idx = warmup then first := now;
            let station =
              match spec.topology with
              | Central -> stations.(0)
              | Partitioned -> stations.(pick ())
            in
            ps_arrive sim station { arrival = now; remaining; measured = idx >= warmup } ~record;
            next_arrival (idx + 1))
      in
      ()
    end
  in
  next_arrival 0;
  Sim.run sim;
  (!first, !last)

(* ---- Simulation driver ---- *)

let simulate spec ~service ~load ~requests ~seed =
  if spec.servers < 1 then invalid_arg "Queueing.simulate: servers < 1";
  if Float.is_nan load || load <= 0. || load >= 1.05 then
    invalid_arg "Queueing.simulate: load out of (0, 1.05)";
  if requests < 1 then invalid_arg "Queueing.simulate: requests < 1";
  let lambda = load *. float_of_int spec.servers /. Dist.mean service in
  if Float.is_nan lambda then invalid_arg "Queueing.simulate: arrival rate is NaN";
  let rng = Rng.create ~seed in
  let arrival_rng = Rng.split rng in
  let service_rng = Rng.split rng in
  let select_rng = Rng.split rng in
  let gaps = Dist.exponential (1. /. lambda) in
  (* Each job draws its gap (slot 0), its service demand (slot 1) and,
     partitioned, its station, each from its own stream in arrival
     order; the first [warmup] jobs are not measured. *)
  let draw buf =
    Dist.sample_into gaps arrival_rng buf 0;
    Dist.sample_into service service_rng buf 1
  in
  let pick () = Rng.int select_rng spec.servers in
  let warmup = requests / 5 in
  let total = warmup + requests in
  (* Exactly [requests] measured jobs: size the reservoir once, so it
     leaves no doubling garbage behind. *)
  let latencies = Stats.Tally.create () in
  Stats.Tally.reserve latencies requests;
  let first_measured_arrival, last_measured_completion =
    match spec.policy with
    | Fcfs -> fcfs spec ~draw ~pick ~warmup ~total latencies
    | Ps -> ps spec ~draw ~pick ~warmup ~total latencies
  in
  let span = last_measured_completion -. first_measured_arrival in
  let throughput =
    if Float.is_nan span || span <= 0. then 0.
    else float_of_int (Stats.Tally.count latencies) /. span
  in
  { latencies; throughput; offered_load = load }

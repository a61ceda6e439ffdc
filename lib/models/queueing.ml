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

(* ---- Processor sharing: a flat recursion per station ----

   All k jobs present at a station advance simultaneously at rate
   min(1, capacity/k): with k <= capacity every job has a full
   processor; beyond that the processors are split evenly. Between two
   events of a station its jobs, and so its rate, stay the same, so a
   station is brought up to date only when a job arrives at it. First
   its completions up to the arrival retire in time order, each at
   [last +. soonest /. rate], where [last] is the station's previous
   event and [soonest] the least work left (float rounding can finish
   several jobs at once); then each job's work falls by its share of
   the time since [last]. Every station drains after the last arrival.
   The first measured arrival and the last measured completion are
   returned, as by [fcfs]. *)

let ps_epsilon = 1e-9

let ps_rate ~capacity k = Float.min 1. (float_of_int capacity /. float_of_int k)

let ps spec ~draw ~pick ~warmup ~total latencies =
  let stations, capacity =
    match spec.topology with Central -> (1, spec.servers) | Partitioned -> (spec.servers, 1)
  in
  (* Per station: jobs present, time of its last event, and per present
     job its work left, arrival time and index in the stream. *)
  let jobs = Array.make stations 0 and last = Array.make stations 0. in
  let work = Array.make stations [||]
  and arrived = Array.make stations [||]
  and index = Array.make stations [||] in
  (* scratch: 0 the gap, 1 the service demand, 2 a latency, 3 the time a
     station is brought up to, 4 the last measured completion, 5 the
     horizon up to which completions retire *)
  let buf = Array.make 6 0. in
  buf.(4) <- neg_infinity;
  (* Charge station [s]'s jobs for the time from its last event to buf.(3). *)
  let advance s =
    let dt = buf.(3) -. last.(s) in
    if dt > 0. then begin
      let k = jobs.(s) and w = work.(s) in
      let rate = ps_rate ~capacity k in
      for j = 0 to k - 1 do
        w.(j) <- w.(j) -. (dt *. rate)
      done
    end;
    last.(s) <- buf.(3)
  in
  (* Retire station [s]'s completions up to the horizon buf.(5), soonest first. *)
  let settle s =
    let reached = ref false in
    while (not !reached) && jobs.(s) > 0 do
      let k = jobs.(s) and w = work.(s) and a = arrived.(s) and ix = index.(s) in
      let soonest = ref w.(0) in
      for j = 1 to k - 1 do
        if w.(j) < !soonest then soonest := w.(j)
      done;
      let rate = ps_rate ~capacity k in
      buf.(3) <- last.(s) +. Float.max 0. (!soonest /. rate);
      if buf.(3) > buf.(5) then reached := true
      else begin
        advance s;
        let kept = ref 0 in
        for j = 0 to k - 1 do
          if w.(j) <= ps_epsilon then begin
            if ix.(j) >= warmup then begin
              buf.(2) <- buf.(3) -. a.(j);
              Stats.Tally.record_from latencies buf 2;
              if buf.(3) > buf.(4) then buf.(4) <- buf.(3)
            end
          end
          else begin
            w.(!kept) <- w.(j);
            a.(!kept) <- a.(j);
            ix.(!kept) <- ix.(j);
            incr kept
          end
        done;
        jobs.(s) <- !kept
      end
    done
  in
  let grow s =
    let k = jobs.(s) in
    let n = Int.max 8 (2 * k) in
    let w = Array.make n 0. and a = Array.make n 0. and ix = Array.make n 0 in
    Array.blit work.(s) 0 w 0 k;
    Array.blit arrived.(s) 0 a 0 k;
    Array.blit index.(s) 0 ix 0 k;
    work.(s) <- w;
    arrived.(s) <- a;
    index.(s) <- ix
  in
  let arrival = ref 0. and first = ref nan in
  for idx = 0 to total - 1 do
    draw buf;
    arrival := !arrival +. buf.(0);
    if idx = warmup then first := !arrival;
    let s = match spec.topology with Central -> 0 | Partitioned -> pick () in
    buf.(5) <- !arrival;
    settle s;
    buf.(3) <- !arrival;
    advance s;
    let k = jobs.(s) in
    if k = Array.length work.(s) then grow s;
    work.(s).(k) <- buf.(1);
    arrived.(s).(k) <- !arrival;
    index.(s).(k) <- idx;
    jobs.(s) <- k + 1
  done;
  buf.(5) <- infinity;
  for s = 0 to stations - 1 do
    settle s
  done;
  (!first, buf.(4))

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
  { latencies; throughput }

module Sim = Engine.Sim
module Rng = Engine.Rng
module Dist = Engine.Dist

type system_kind =
  | Linux_partitioned
  | Linux_floating
  | Ix of int
  | Zygos
  | Zygos_no_interrupts
  | Zygos_round_robin
  | Preemptive of float
  | Preemptive_consolidated of float
  | Ix_rebalanced of float
  | Model_central_fcfs
  | Model_partitioned_fcfs

let system_name = function
  | Linux_partitioned -> "linux-partitioned"
  | Linux_floating -> "linux-floating"
  | Ix 1 -> "ix"
  | Ix b -> Printf.sprintf "ix-b%d" b
  | Zygos -> "zygos"
  | Zygos_no_interrupts -> "zygos-noint"
  | Zygos_round_robin -> "zygos-rr"
  | Preemptive q -> Printf.sprintf "preempt-q%g" q
  | Preemptive_consolidated q -> Printf.sprintf "preempt-q%g-consolidated" q
  | Ix_rebalanced _ -> "ix-rebalanced"
  | Model_central_fcfs -> "M/G/n/FCFS"
  | Model_partitioned_fcfs -> "nxM/G/1/FCFS"

(* Every name is spelled once, in [system_name]: a fixed kind is found by
   printing it, and a parameterized name is parsed and then kept only if
   it prints back as [s] (so "ix-b1", printed "ix", is rejected). *)
let system_of_name s =
  let fixed =
    [ Linux_partitioned; Linux_floating; Ix 1; Zygos; Zygos_no_interrupts; Zygos_round_robin;
      Ix_rebalanced 200.; Model_central_fcfs; Model_partitioned_fcfs ]
  in
  (* the part of [s] between [prefix] and [suffix], parsed *)
  let between ~prefix ~suffix of_string =
    let p = String.length prefix and n = String.length s - String.length suffix in
    if n >= p && String.starts_with ~prefix s && String.ends_with ~suffix s then
      of_string (String.sub s p (n - p))
    else None
  in
  let parsed =
    [
      Option.map (fun b -> Ix b) (between ~prefix:"ix-b" ~suffix:"" int_of_string_opt);
      Option.map
        (fun q -> Preemptive q)
        (between ~prefix:"preempt-q" ~suffix:"" float_of_string_opt);
      Option.map
        (fun q -> Preemptive_consolidated q)
        (between ~prefix:"preempt-q" ~suffix:"-consolidated" float_of_string_opt);
    ]
  in
  List.find_opt (fun k -> String.equal (system_name k) s) (fixed @ List.filter_map Fun.id parsed)

type config = {
  system : system_kind;
  cores : int;
  conns : int;
  service : Engine.Dist.t;
  requests : int;
  seed : int;
  rpc_packets : int;
  selection : Net.Loadgen.conn_selection;
  faults : Net.Faults.plan option;
  stragglers : Core.Corefault.spec list;
  retry : Net.Loadgen.retry option;
  slo : float;
  shed : Systems.Overload.policy;
}

let config ?(cores = 16) ?(conns = 2752) ?(requests = 30_000) ?(seed = 42) ?(rpc_packets = 1)
    ?(selection = Net.Loadgen.Uniform) ?faults ?(stragglers = []) ?retry ?(slo = infinity)
    ?(shed = Systems.Overload.No_shed) ~system ~service () =
  Option.iter Net.Faults.validate_plan faults;
  List.iter Core.Corefault.validate_spec stragglers;
  Option.iter Net.Loadgen.validate_retry retry;
  Systems.Overload.validate_policy shed;
  {
    system;
    cores;
    conns;
    service;
    requests;
    seed;
    rpc_packets;
    selection;
    faults;
    stragglers;
    retry;
    slo;
    shed;
  }

type point = {
  load : float;
  offered_rate : float;
  throughput : float;
  goodput : float;
  mean : float;
  p50 : float;
  p99 : float;
  p999 : float;
  completed : int;
  order_violations : int;
  info : (string * float) list;
}

(* String-keyed lookup into a point's counters; List.assoc_opt would
   compare the keys with polymorphic equality. *)
let info_value p key =
  let rec go = function
    | [] -> None
    | (k, v) :: rest -> if String.equal k key then Some v else go rest
  in
  go p.info

(* Percentiles first: they sort the tally, so [mean] sums it in order. *)
let point_of_tally ~load ~offered_rate ~throughput ~goodput ~order_violations ~info tally =
  let empty = Stats.Tally.is_empty tally in
  let p999 = if empty then 0. else Stats.Tally.p999 tally in
  let p99 = if empty then 0. else Stats.Tally.p99 tally in
  let p50 = if empty then 0. else Stats.Tally.p50 tally in
  let mean = Stats.Tally.mean tally in
  {
    load;
    offered_rate;
    throughput;
    goodput;
    mean;
    p50;
    p99;
    p999;
    completed = Stats.Tally.count tally;
    order_violations;
    info;
  }

let run_model_point cfg ~load ~spec =
  let result =
    Models.Queueing.simulate spec ~service:cfg.service ~load ~requests:cfg.requests
      ~seed:cfg.seed
  in
  let offered_rate = load *. float_of_int cfg.cores /. Dist.mean cfg.service in
  point_of_tally ~load ~offered_rate ~throughput:result.Models.Queueing.throughput
    ~goodput:result.Models.Queueing.throughput ~order_violations:0 ~info:[]
    result.Models.Queueing.latencies

let make_system kind sim ~cores ~rpc_packets ~stragglers ~rng ~pool ~conns ~respond =
  let params =
    Systems.Params.with_stragglers
      (Systems.Params.with_rpc_packets (Systems.Params.default ~cores ()) rpc_packets)
      stragglers
  in
  match kind with
  | Linux_partitioned -> Systems.Linux.partitioned sim params ~pool ~conns ~respond
  | Linux_floating -> Systems.Linux.floating sim params ~pool ~conns ~respond
  | Ix b -> Systems.Ix.create sim (Systems.Params.with_ix_batch params b) ~pool ~conns ~respond
  | Zygos -> Systems.Zygos.create sim params ~rng ~pool ~conns ~respond ()
  | Zygos_no_interrupts ->
      Systems.Zygos.create sim (Systems.Params.no_interrupts params) ~rng ~pool ~conns ~respond
        ()
  | Zygos_round_robin ->
      Systems.Zygos.create sim
        { params with Systems.Params.zy_poll_random = false }
        ~rng ~pool ~conns ~respond ()
  | Preemptive quantum -> Systems.Preemptive.create sim params ~quantum ~pool ~conns ~respond ()
  | Preemptive_consolidated quantum ->
      Systems.Preemptive.create sim params ~quantum ~pool ~conns ~respond ~consolidate:true ()
  | Ix_rebalanced window ->
      let rss = Net.Rss.create ~queues:cores () in
      let iface, read_counts =
        Systems.Ix.create_with_rss sim params ~pool ~rss ~conns ~respond
      in
      let stats = Systems.Rebalance.attach sim ~rss ~queues:cores ~read_counts ~window () in
      {
        iface with
        Systems.Iface.name = "ix-rebalanced";
        info =
          (fun () ->
            iface.Systems.Iface.info ()
            @ [
                ("rebalance_moves", float_of_int stats.Systems.Rebalance.moves);
                ("rebalance_windows", float_of_int stats.Systems.Rebalance.windows);
              ]);
      }
  | Model_central_fcfs | Model_partitioned_fcfs ->
      invalid_arg "Run.make_system: a queueing model has no simulated server"

let client_info gen =
  [
    ("client_retries", float_of_int (Net.Loadgen.retries gen));
    ("client_timeouts", float_of_int (Net.Loadgen.timeouts gen));
    ("client_retry_exhausted", float_of_int (Net.Loadgen.retry_exhausted gen));
    ("duplicate_completions", float_of_int (Net.Loadgen.duplicate_completions gen));
  ]

let run_real_point cfg ~load =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:cfg.seed in
  let loadgen_rng = Rng.split rng in
  let system_rng = Rng.split rng in
  let mean = Dist.mean cfg.service in
  let rate = load *. float_of_int cfg.cores /. mean in
  (* Request slots recycle through the pool's free list only when nothing
     outlives the first completion: a retry layer keeps timed-out handles
     around for late responses, and fault layers can hold delayed
     deliveries; in both cases slots must stay live (the pool then just
     grows to the in-flight high-water mark). *)
  let recycle = Option.is_none cfg.faults && Option.is_none cfg.retry in
  let rpool = Net.Request.create_pool ~recycle () in
  let gen =
    Net.Loadgen.create sim ~rng:loadgen_rng ~pool:rpool ~conns:cfg.conns ~rate
      ~service:cfg.service ~selection:cfg.selection ~slo:cfg.slo ?retry:cfg.retry ()
  in
  (* Admission control sits between the (possibly lossy) network and the
     server; built only when a shedding policy is configured so the
     default path is untouched. *)
  let guard =
    match cfg.shed with
    | Systems.Overload.No_shed -> None
    | policy -> Some (Systems.Overload.create sim ~pool:rpool ~policy ())
  in
  let respond =
    match guard with
    | None -> fun req -> Net.Loadgen.complete gen req
    | Some g ->
        fun req ->
          Systems.Overload.note_response g req;
          Net.Loadgen.complete gen req
  in
  let system =
    make_system cfg.system sim ~cores:cfg.cores ~rpc_packets:cfg.rpc_packets
      ~stragglers:cfg.stragglers ~rng:system_rng ~pool:rpool ~conns:cfg.conns ~respond
  in
  (* Compose the request path client -> network faults -> admission ->
     server. Each layer is only interposed when configured, so the
     fault-free path submits directly to the system (bit-identical to the
     pre-fault runner). *)
  let admitted =
    match guard with
    | None -> fun req -> system.Systems.Iface.submit req
    | Some g ->
        fun req ->
          Systems.Overload.admit g req ~forward:(fun r -> system.Systems.Iface.submit r)
  in
  let net_faults =
    match cfg.faults with
    | None -> None
    | Some plan ->
        Some (Net.Faults.create sim ~rng:(Rng.split rng) ~plan ~deliver:admitted ())
  in
  let ingress = match net_faults with None -> admitted | Some f -> Net.Faults.apply f in
  Net.Loadgen.set_target gen ingress;
  let measure = float_of_int cfg.requests /. rate in
  let warmup = 0.2 *. measure in
  Net.Loadgen.start gen ~warmup ~measure;
  Sim.run sim;
  let pool = Sim.stats sim in
  let pool_info =
    [
      ("sim_events_scheduled", float_of_int pool.Sim.scheduled);
      ("sim_events_fired", float_of_int pool.Sim.fired);
      ("sim_events_cancelled", float_of_int pool.Sim.cancelled);
      ("sim_events_reused", float_of_int pool.Sim.reused);
      ("sim_pool_slots", float_of_int pool.Sim.pool_slots);
    ]
  in
  let fault_info = match net_faults with None -> [] | Some f -> Net.Faults.info f in
  let shed_info = match guard with None -> [] | Some g -> Systems.Overload.info g in
  point_of_tally ~load ~offered_rate:rate ~throughput:(Net.Loadgen.throughput gen)
    ~goodput:(Net.Loadgen.goodput gen)
    ~order_violations:(Net.Loadgen.order_violations gen)
    ~info:(system.Systems.Iface.info () @ fault_info @ shed_info @ client_info gen @ pool_info)
    (Net.Loadgen.tally gen)

let run_point cfg ~load =
  match cfg.system with
  | Model_central_fcfs ->
      run_model_point cfg ~load
        ~spec:
          Models.Queueing.{ servers = cfg.cores; policy = Fcfs; topology = Central }
  | Model_partitioned_fcfs ->
      run_model_point cfg ~load
        ~spec:
          Models.Queueing.{ servers = cfg.cores; policy = Fcfs; topology = Partitioned }
  | _ -> run_real_point cfg ~load

let max_load_at_slo cfg ~slo_p99 ?(resolution = 0.01) () =
  if Float.is_nan slo_p99 || slo_p99 <= 0. then invalid_arg "Run.max_load_at_slo: slo_p99 <= 0";
  if not (Float.is_finite resolution && resolution > 0.) then
    invalid_arg "Run.max_load_at_slo: resolution not finite and > 0";
  let meets point = point.completed > 0 && point.p99 <= slo_p99 in
  let lowest = run_point cfg ~load:0.02 in
  if not (meets lowest) then (0., lowest)
  else begin
    let highest = run_point cfg ~load:0.99 in
    if meets highest then (0.99, highest)
    else begin
      let lo = ref 0.02 and hi = ref 0.99 in
      let best = ref lowest in
      while !hi -. !lo > resolution do
        let mid = (!lo +. !hi) /. 2. in
        let point = run_point cfg ~load:mid in
        if meets point then begin
          lo := mid;
          best := point
        end
        else hi := mid
      done;
      (!lo, !best)
    end
  end

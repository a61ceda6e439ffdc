module Sim = Engine.Sim
module Rng = Engine.Rng
module Dist = Engine.Dist

type config = {
  servers : int;
  system : Run.system_kind;
  cores : int;
  conns : int;
  service : Dist.t;
  requests : int;
  seed : int;
  rpc_packets : int;
  policy : Cluster.Policy.t;
  feedback_delay : float;
  detect : Cluster.Dispatch.detect option;
  hedge : float option;
  failplan : Cluster.Failplan.t;
  retry : Net.Loadgen.retry option;
  slo : float;
}

let config ?(servers = 4) ?(system = Run.Zygos) ?(cores = 16) ?(conns = 2752)
    ?(requests = 30_000) ?(seed = 42) ?(rpc_packets = 1) ?(feedback_delay = 0.) ?detect
    ?hedge ?(failplan = Cluster.Failplan.none) ?retry ?(slo = infinity) ~policy ~service
    () =
  (match system with
  | Run.Model_central_fcfs | Run.Model_partitioned_fcfs | Run.Ix_rebalanced ->
      invalid_arg "Rackrun: rack servers must be real single-ingress systems"
  | Run.Linux_partitioned | Run.Linux_floating | Run.Ix _ | Run.Zygos
  | Run.Zygos_no_interrupts | Run.Zygos_round_robin | Run.Preemptive _
  | Run.Preemptive_consolidated _ ->
      ());
  Option.iter Net.Loadgen.validate_retry retry;
  {
    servers;
    system;
    cores;
    conns;
    service;
    requests;
    seed;
    rpc_packets;
    policy;
    feedback_delay;
    detect;
    hedge;
    failplan;
    retry;
    slo;
  }

(* One server instance, built as Run.run_point builds its server, with
   the failure plan's Degraded windows applied as that server's straggler
   specs. *)
let make_server cfg sim ~pool ~i ~rng ~respond =
  Run.make_system cfg.system sim ~cores:cfg.cores ~rpc_packets:cfg.rpc_packets
    ~stragglers:(Cluster.Failplan.stragglers cfg.failplan ~server:i ~cores:cfg.cores)
    ~rng ~pool ~conns:cfg.conns ~respond

let run cfg ~load =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:cfg.seed in
  let loadgen_rng = Rng.split rng in
  let mean = Dist.mean cfg.service in
  let rate = load *. float_of_int (cfg.cores * cfg.servers) /. mean in
  (* Slots recycle unless a copy of a request can outlive its first
     completion: failover (detect), hedge and client retry copies. Failure
     windows only lose or slow a request; its slot is released once. *)
  let recycle = Option.(is_none cfg.detect && is_none cfg.hedge && is_none cfg.retry) in
  let pool = Net.Request.create_pool ~recycle () in
  let gen =
    Net.Loadgen.create sim ~rng:loadgen_rng ~pool ~conns:cfg.conns ~rate
      ~service:cfg.service ~slo:cfg.slo ?retry:cfg.retry ()
  in
  let measure = float_of_int cfg.requests /. rate in
  let warmup = 0.2 *. measure in
  let rack_cfg =
    Cluster.Rack.config ~servers:cfg.servers ~policy:cfg.policy
      ~feedback_delay:cfg.feedback_delay
      ~feedback_until:(warmup +. measure)
      ?detect:cfg.detect ?hedge:cfg.hedge ~failplan:cfg.failplan ()
  in
  let rack =
    Cluster.Rack.create sim rack_cfg ~rng ~pool
      ~make_server:(fun ~i ~rng ~respond -> make_server cfg sim ~pool ~i ~rng ~respond)
      ~respond:(fun req -> Net.Loadgen.complete gen req)
  in
  let iface = Cluster.Rack.iface rack in
  Net.Loadgen.set_target gen iface.Systems.Iface.submit;
  Net.Loadgen.start gen ~warmup ~measure;
  Sim.run sim;
  Run.point_of_tally ~load ~offered_rate:rate ~throughput:(Net.Loadgen.throughput gen)
    ~goodput:(Net.Loadgen.goodput gen)
    ~order_violations:(Net.Loadgen.order_violations gen)
    ~info:(iface.Systems.Iface.info () @ Run.client_info gen)
    (Net.Loadgen.tally gen)

(* The rack-scale centralized bound: one M/G/k FCFS queue over every core
   of every server — what a perfect single scheduler spanning the whole
   rack would achieve. *)
let central_bound cfg ~load =
  let rcfg =
    Run.config
      ~cores:(cfg.servers * cfg.cores)
      ~requests:cfg.requests ~seed:cfg.seed ~system:Run.Model_central_fcfs
      ~service:cfg.service ()
  in
  Run.run_point rcfg ~load

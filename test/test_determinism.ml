(* Fixed-seed sweep determinism regression.

   The golden values below pin exact simulation results: the same seeds
   must yield byte-identical points — throughput, every percentile,
   completion counts and ordering-violation counts. Floats are written
   as hex literals so the comparison is exact, with no parsing
   round-trip. Engine and request-path rewrites must leave every entry
   unchanged.

   The Linux and IX entries date from the seed implementation of the
   engine. The ZygOS entries were re-captured once, when idle cores
   stopped drawing victim orders that no decision reads: that moves the
   realized victim-order stream, not the model, so it was accepted only
   after the seed-replicated comparison in test_equivalence.ml passed
   against the eager-draw model. A change that moves a ZygOS entry again
   needs the same evidence. *)

module Run = Experiments.Run

type golden = {
  g_system : Run.system_kind;
  g_load : float;
  g_throughput : float;
  g_mean : float;
  g_p50 : float;
  g_p99 : float;
  g_p999 : float;
  g_completed : int;
  g_order_violations : int;
}

(* Captured with: cores=4, conns=64, requests=2000, seed=7,
   service=exponential(10µs), loads [0.3; 0.7]. *)
let goldens =
  [
    {
      g_system = Run.Linux_floating;
      g_load = 0x1.3333333333333p-2;
      g_throughput = 0x1.ebc408d8ec95bp-4;
      g_mean = 0x1.74eadee7b14a4p+4;
      g_p50 = 0x1.39579c55f8ep+4;
      g_p99 = 0x1.2601f37c6448p+6;
      g_p999 = 0x1.d2acf2a279c8p+6;
      g_completed = 1999;
      g_order_violations = 0;
    };
    {
      g_system = Run.Linux_floating;
      g_load = 0x1.6666666666666p-1;
      g_throughput = 0x1.b6ae7d566cf41p-3;
      g_mean = 0x1.8e5635b17d5edp+10;
      g_p50 = 0x1.565c2baa49992p+10;
      g_p99 = 0x1.0cbad8934c1a1p+12;
      g_p999 = 0x1.279f551cda5c2p+12;
      g_completed = 1999;
      g_order_violations = 0;
    };
    {
      g_system = Run.Ix 1;
      g_load = 0x1.3333333333333p-2;
      g_throughput = 0x1.eb851eb851eb8p-4;
      g_mean = 0x1.094fd32f8c5dp+4;
      g_p50 = 0x1.5e994770758p+3;
      g_p99 = 0x1.5ca89f6599ap+6;
      g_p999 = 0x1.1ca014b55dep+7;
      g_completed = 1999;
      g_order_violations = 0;
    };
    {
      g_system = Run.Ix 1;
      g_load = 0x1.6666666666666p-1;
      g_throughput = 0x1.1d92b7fe08aefp-2;
      g_mean = 0x1.933c516e9f8b8p+5;
      g_p50 = 0x1.edd4469b7d5p+4;
      g_p99 = 0x1.edb39613e19p+7;
      g_p999 = 0x1.24c9d3ea0fdfp+8;
      g_completed = 1999;
      g_order_violations = 0;
    };
    {
      g_system = Run.Zygos;
      g_load = 0x1.3333333333333p-2;
      g_throughput = 0x1.eb851eb851eb8p-4;
      g_mean = 0x1.a018b67056e89p+3;
      g_p50 = 0x1.33b4343db5p+3;
      g_p99 = 0x1.a6fb60fe44ap+5;
      g_p999 = 0x1.63ef50baa9ap+6;
      g_completed = 1999;
      g_order_violations = 0;
    };
    {
      g_system = Run.Zygos;
      g_load = 0x1.6666666666666p-1;
      g_throughput = 0x1.1f94855da2728p-2;
      g_mean = 0x1.94e42d46d1fb3p+4;
      g_p50 = 0x1.2dc1e93394fp+4;
      g_p99 = 0x1.c8db11892bbcp+6;
      g_p999 = 0x1.26d3355e3746p+7;
      g_completed = 1999;
      g_order_violations = 0;
    };
  ]

let exact = Alcotest.testable (fun ppf x -> Format.fprintf ppf "%h" x) Float.equal

let check_golden ctx g (p : Run.point) =
  Alcotest.check exact (ctx "throughput") g.g_throughput p.Run.throughput;
  Alcotest.check exact (ctx "mean") g.g_mean p.Run.mean;
  Alcotest.check exact (ctx "p50") g.g_p50 p.Run.p50;
  Alcotest.check exact (ctx "p99") g.g_p99 p.Run.p99;
  Alcotest.check exact (ctx "p999") g.g_p999 p.Run.p999;
  Alcotest.(check int) (ctx "completed") g.g_completed p.Run.completed;
  Alcotest.(check int) (ctx "order_violations") g.g_order_violations p.Run.order_violations

let test_fixed_seed_sweep () =
  let service = Engine.Dist.exponential 10. in
  List.iter
    (fun system ->
      let cfg =
        Run.config ~cores:4 ~conns:64 ~requests:2_000 ~seed:7 ~system ~service ()
      in
      let expected = List.filter (fun g -> g.g_system = system) goldens in
      let points = List.map (fun g -> Run.run_point cfg ~load:g.g_load) expected in
      List.iter2
        (fun g p ->
          let ctx fmt =
            Printf.sprintf "%s load=%g %s" (Run.system_name system) g.g_load fmt
          in
          check_golden ctx g p)
        expected points)
    [ Run.Linux_floating; Run.Ix 1; Run.Zygos ]

(* The goldens above run 4 cores, so ZygOS's steal-victim order is a
   3-element shuffle there; every figure runs 16 cores (a 15-element
   order, and up to 15 idle cores woken per packet). These pin that
   configuration: exact percentiles plus the ZygOS counters that the
   idle-wake and steal paths drive.
   Captured with: cores=16, conns=256, requests=3000, seed=7,
   service=exponential(10µs), loads [0.1; 0.8]. *)
type zygos16_golden = {
  z_base : golden;
  z_ipis_sent : int;
  z_stolen_events : int;
  z_remote_batches : int;
  z_wc_violations : int;
}

let zygos16_goldens =
  [
    {
      z_base =
        {
          g_system = Run.Zygos;
          g_load = 0x1.999999999999ap-4;
          g_throughput = 0x1.44f3078263ab6p-3;
          g_mean = 0x1.85052bfc8084p+3;
          g_p50 = 0x1.1bca12455e8p+3;
          g_p99 = 0x1.93a350db26ep+5;
          g_p999 = 0x1.4b3ab245de5p+6;
          g_completed = 2977;
          g_order_violations = 0;
        };
      z_ipis_sent = 707;
      z_stolen_events = 364;
      z_remote_batches = 364;
      z_wc_violations = 0;
    };
    {
      z_base =
        {
          g_system = Run.Zygos;
          g_load = 0x1.999999999999ap-1;
          g_throughput = 0x1.3fd0d0678c005p+0;
          g_mean = 0x1.c3772a8db4b56p+4;
          g_p50 = 0x1.747764ff5fdcp+4;
          g_p99 = 0x1.677047449f43p+6;
          g_p999 = 0x1.e0bf67aa7248p+6;
          g_completed = 2977;
          g_order_violations = 0;
        };
      z_ipis_sent = 4590;
      z_stolen_events = 2526;
      z_remote_batches = 2429;
      z_wc_violations = 0;
    };
  ]

let test_sixteen_core_zygos () =
  let service = Engine.Dist.exponential 10. in
  let cfg =
    Run.config ~cores:16 ~conns:256 ~requests:3_000 ~seed:7 ~system:Run.Zygos ~service ()
  in
  List.iter
    (fun z ->
      let g = z.z_base in
      let p = Run.run_point cfg ~load:g.g_load in
      let ctx what = Printf.sprintf "zygos 16 cores load=%g %s" g.g_load what in
      let counter key =
        match Run.info_value p key with
        | Some v -> int_of_float v
        | None -> Alcotest.failf "missing info key %s" key
      in
      check_golden ctx g p;
      Alcotest.(check int) (ctx "ipis_sent") z.z_ipis_sent (counter "ipis_sent");
      Alcotest.(check int) (ctx "stolen_events") z.z_stolen_events (counter "stolen_events");
      Alcotest.(check int) (ctx "remote_batches") z.z_remote_batches (counter "remote_batches");
      Alcotest.(check int) (ctx "wc_violations") z.z_wc_violations (counter "wc_violations"))
    zygos16_goldens

(* The goldens above cover 4- and 16-core exp(10µs) points only. This
   pins the ZygOS model's exact output over a random configuration
   space that reaches its edges: one core, odd core counts, straggler
   windows (the segment fault path), discrete service times (equal-time
   ties), multi-packet RPCs, network faults and connection skew. Every
   point field is rendered with %h, plus every info counter except the
   simulator's own [sim_*] event-pool counters, which count scheduled
   events rather than model behaviour.
   Captured at commit 5a22b45; re-pinned when the always-zero
   [fault_blackholes] counter left the fault info (the old text with
   every " fault_blackholes=0x0p+0" deleted is byte-identical to the
   new), and again (from eb2776cf...) when the lognormal distribution
   left [Engine.Dist]: its entry in the service list became the
   empirical mean-10 distribution below, the path fig9 and fig10b
   sample, and the always-zero [fault_corruptions] counter left the
   fault info. With every " fault_corruptions=0x0p+0" deleted from the
   old text, exactly 30 lines differ, those of the 30 configs that drew
   the lognormal; the other 170 draw the same sequence. *)
let randomized_zygos_digest = "2eb539dd6742d78dfdedb3a51af85286"

let randomized_zygos_configs () =
  let rng = Engine.Rng.create ~seed:2017 in
  let pick a = a.(Engine.Rng.int rng (Array.length a)) in
  let one_in n = Engine.Rng.int rng n = 0 in
  let uniform lo hi = lo +. (Engine.Rng.float rng *. (hi -. lo)) in
  let requests = 1_500 in
  List.init 200 (fun seed ->
      let system =
        pick [| Run.Zygos; Run.Zygos; Run.Zygos_no_interrupts; Run.Zygos_round_robin |]
      in
      let cores = pick [| 1; 2; 3; 4; 5; 8; 16 |] in
      let conns = pick [| cores; 4 * cores; 64; 2752 |] in
      let service =
        pick
          [|
            Engine.Dist.exponential 10.;
            Engine.Dist.deterministic 10.;
            Engine.Dist.bimodal1 ~mean:10.;
            Engine.Dist.bimodal2 ~mean:10.;
            Engine.Dist.empirical [| 1.; 2.; 5.; 10.; 32. |];
            Engine.Dist.exponential 2.;
          |]
      in
      let load = uniform 0.05 0.95 in
      let rpc_packets = pick [| 1; 1; 2; 3 |] in
      (* Windows fall inside the warmup + measurement span of the point. *)
      let span =
        float_of_int requests *. Engine.Dist.mean service /. (load *. float_of_int cores)
      in
      let stragglers =
        if one_in 4 then
          [
            {
              Core.Corefault.core = Engine.Rng.int rng cores;
              start = uniform 0. span;
              duration = uniform 0.01 0.2 *. span;
              slowdown = pick [| 2.; 5.; infinity |];
            };
          ]
        else []
      in
      let faults =
        if one_in 5 then Some (Net.Faults.plan ~drop:0.01 ~duplicate:0.01 ~reorder:0.02 ())
        else None
      in
      let selection =
        if one_in 4 then Net.Loadgen.Hot_cold { hot_fraction = 0.1; hot_load = 0.5 }
        else Net.Loadgen.Uniform
      in
      let cfg =
        Run.config ~cores ~conns ~requests ~seed ~rpc_packets ~selection ?faults ~stragglers ~system
          ~service ()
      in
      (cfg, load))

let render_point buf (p : Run.point) =
  Printf.bprintf buf "%h %h %h %h %h %h %h %h %d %d" p.Run.load p.Run.offered_rate
    p.Run.throughput p.Run.goodput p.Run.mean p.Run.p50 p.Run.p99 p.Run.p999 p.Run.completed
    p.Run.order_violations;
  List.iter
    (fun (k, v) ->
      if not (String.starts_with ~prefix:"sim_" k) then Printf.bprintf buf " %s=%h" k v)
    p.Run.info;
  Buffer.add_char buf '\n'

let test_randomized_zygos_configs () =
  let buf = Buffer.create 65_536 in
  List.iter
    (fun (cfg, load) -> render_point buf (Run.run_point cfg ~load))
    (randomized_zygos_configs ());
  let text = Buffer.contents buf in
  let digest = Digest.to_hex (Digest.string text) in
  if not (String.equal digest randomized_zygos_digest) then
    Alcotest.failf "randomized zygos digest %s, want %s; rendered points:\n%s" digest
      randomized_zygos_digest text

let test_sweep_is_repeatable () =
  (* Two runs of the same config in one process must agree exactly (no
     hidden global state in the pooled engine). *)
  let service = Engine.Dist.exponential 10. in
  let cfg = Run.config ~cores:4 ~conns:32 ~requests:500 ~seed:3 ~system:Run.Zygos ~service () in
  let a = Run.run_point cfg ~load:0.6 in
  let b = Run.run_point cfg ~load:0.6 in
  Alcotest.check exact "throughput" a.Run.throughput b.Run.throughput;
  Alcotest.check exact "p99" a.Run.p99 b.Run.p99;
  Alcotest.(check int) "completed" a.Run.completed b.Run.completed

let () =
  Alcotest.run "determinism"
    [
      ( "fixed-seed sweep",
        [
          Alcotest.test_case "golden points across engine rewrite" `Quick
            test_fixed_seed_sweep;
          Alcotest.test_case "16-core zygos golden points" `Quick test_sixteen_core_zygos;
          Alcotest.test_case "same-process repeatability" `Quick test_sweep_is_repeatable;
          Alcotest.test_case "randomized zygos configs" `Quick test_randomized_zygos_configs;
        ] );
    ]

(* Fixed-seed sweep determinism regression.

   The golden values below were captured from the seed implementation of
   the engine (boxed heap entries, per-event record allocation) before the
   SoA-heap/event-pool rewrite. The rewrite must not change simulation
   results at all: the same seeds must yield byte-identical points —
   throughput, every percentile, completion counts and ordering-violation
   counts. Floats are written as hex literals so the comparison is exact,
   with no parsing round-trip. *)

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
      g_mean = 0x1.a00e003005d62p+3;
      g_p50 = 0x1.343cdabca5p+3;
      g_p99 = 0x1.a4414cec587p+5;
      g_p999 = 0x1.63ef50baa9ap+6;
      g_completed = 1999;
      g_order_violations = 0;
    };
    {
      g_system = Run.Zygos;
      g_load = 0x1.6666666666666p-1;
      g_throughput = 0x1.1f94855da2728p-2;
      g_mean = 0x1.955e912d2b1bcp+4;
      g_p50 = 0x1.36e46feb95dp+4;
      g_p99 = 0x1.9c9d9c67c648p+6;
      g_p999 = 0x1.82ab03f713b2p+7;
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
      let points = Run.sweep cfg ~loads:(List.map (fun g -> g.g_load) expected) in
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
          g_throughput = 0x1.405c9fcc71ec6p+0;
          g_mean = 0x1.bcc072bb9c765p+4;
          g_p50 = 0x1.6d24597f28d8p+4;
          g_p99 = 0x1.6ba87b6d70dcp+6;
          g_p999 = 0x1.ff535ba96b8ep+6;
          g_completed = 2977;
          g_order_violations = 0;
        };
      z_ipis_sent = 4641;
      z_stolen_events = 2598;
      z_remote_batches = 2496;
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
        ] );
    ]

(* Tests for lib/experiments: the point runner, sweeps, SLO bisection, and
   output formatting — the plumbing every figure depends on. *)

module Run = Experiments.Run
module Output = Experiments.Output
module Dist = Engine.Dist

let exp10 = Dist.exponential 10.

let test_config_defaults () =
  let cfg = Run.config ~system:Run.Zygos ~service:exp10 () in
  Alcotest.(check int) "cores" 16 cfg.Run.cores;
  Alcotest.(check int) "conns" 2752 cfg.Run.conns;
  Alcotest.(check int) "requests" 30_000 cfg.Run.requests

let test_system_names () =
  Alcotest.(check string) "ix" "ix" (Run.system_name (Run.Ix 1));
  Alcotest.(check string) "ix-b64" "ix-b64" (Run.system_name (Run.Ix 64));
  Alcotest.(check string) "zygos" "zygos" (Run.system_name Run.Zygos);
  Alcotest.(check string) "zygos-rr" "zygos-rr" (Run.system_name Run.Zygos_round_robin);
  Alcotest.(check string) "consolidated" "preempt-q10-consolidated"
    (Run.system_name (Run.Preemptive_consolidated 10.));
  Alcotest.(check string) "model" "M/G/n/FCFS" (Run.system_name Run.Model_central_fcfs)

(* [system_of_name] inverts [system_name] for every kind, at the
   parameters the figures use; "ix-rebalanced" is the 200 µs window. *)
let test_system_of_name () =
  List.iter
    (fun k ->
      let name = Run.system_name k in
      if Run.system_of_name name <> Some k then Alcotest.failf "%s does not round-trip" name)
    [
      Run.Linux_partitioned;
      Run.Linux_floating;
      Run.Ix 1;
      Run.Ix 64;
      Run.Zygos;
      Run.Zygos_no_interrupts;
      Run.Zygos_round_robin;
      Run.Preemptive 5.;
      Run.Preemptive_consolidated 10.;
      Run.Ix_rebalanced 200.;
      Run.Model_central_fcfs;
      Run.Model_partitioned_fcfs;
    ];
  List.iter
    (fun name ->
      if Run.system_of_name name <> None then Alcotest.failf "%S must not parse" name)
    [ "linux"; "partitioned"; "ix-b1"; "preempt-q1e3"; "model-central" ]

let test_make_system_rejects_models () =
  let sim = Engine.Sim.create () in
  match
    Run.make_system Run.Model_central_fcfs sim ~cores:4 ~rpc_packets:1 ~stragglers:[]
      ~rng:(Engine.Rng.create ~seed:1) ~pool:(Net.Request.create_pool ()) ~conns:8
      ~respond:ignore
  with
  | _ -> Alcotest.fail "a queueing model has no simulated server"
  | exception Invalid_argument _ -> ()

let test_run_point_fields () =
  let cfg = Run.config ~system:Run.Zygos ~service:exp10 ~requests:8_000 () in
  let p = Run.run_point cfg ~load:0.5 in
  Alcotest.(check (float 1e-9)) "load echoed" 0.5 p.Run.load;
  Alcotest.(check (float 1e-6)) "offered rate = load*n/S" 0.8 p.Run.offered_rate;
  Alcotest.(check bool) "latency ordering" true
    (p.Run.p50 <= p.Run.p99 && p.Run.p99 <= p.Run.p999);
  Alcotest.(check bool) "mean sane" true (p.Run.mean >= 10.)

(* A point is a function of its sample multiset: [point_of_tally] sorts
   before it sums the mean, so recording the same samples in another
   order must give the same bits in every field. *)
let point_of_samples xs =
  let t = Stats.Tally.create () in
  Array.iter (Stats.Tally.record t) xs;
  Run.point_of_tally ~load:0.5 ~offered_rate:1. ~throughput:1. ~goodput:1.
    ~order_violations:0 ~info:[] t

let point_bits p =
  Printf.sprintf "mean %h p50 %h p99 %h p999 %h n %d" p.Run.mean p.Run.p50 p.Run.p99
    p.Run.p999 p.Run.completed

let prop_point_ignores_record_order =
  QCheck.Test.make ~name:"point ignores record order" ~count:200
    QCheck.(pair (array_of_size Gen.(0 -- 400) (float_range 0. 1e4)) int)
    (fun (xs, seed) ->
      let ys = Array.copy xs in
      let rng = Engine.Rng.create ~seed in
      for i = Array.length ys - 1 downto 1 do
        let j = Engine.Rng.int rng (i + 1) in
        let tmp = ys.(i) in
        ys.(i) <- ys.(j);
        ys.(j) <- tmp
      done;
      String.equal (point_bits (point_of_samples xs)) (point_bits (point_of_samples ys)))

let test_model_point () =
  let cfg = Run.config ~system:Run.Model_central_fcfs ~service:exp10 ~requests:20_000 () in
  let p = Run.run_point cfg ~load:0.3 in
  (* Zero-overhead model at low load: p99 ~= service p99 = 46µs. *)
  Alcotest.(check bool)
    (Printf.sprintf "model p99 %.1f near 46" p.Run.p99)
    true
    (abs_float (p.Run.p99 -. 46.) < 3.)

let test_sweep () =
  let cfg = Run.config ~system:(Run.Ix 1) ~service:exp10 ~requests:6_000 () in
  let points = List.map (fun load -> Run.run_point cfg ~load) [ 0.2; 0.4; 0.6 ] in
  let p99s = List.map (fun p -> p.Run.p99) points in
  Alcotest.(check bool) "p99 grows with load" true (List.sort compare p99s = p99s)

let test_max_load_at_slo () =
  let cfg = Run.config ~system:Run.Zygos ~service:exp10 ~requests:10_000 () in
  let load, point = Run.max_load_at_slo cfg ~slo_p99:100. ~resolution:0.02 () in
  Alcotest.(check bool) "in range" true (load > 0.3 && load <= 0.99);
  Alcotest.(check bool) "point meets slo" true (point.Run.p99 <= 100.);
  (* Paper §6.1: ZygOS achieves 75% of max load at SLO 10x mean for 10µs
     exponential tasks. Accept 0.68–0.92 for the reproduction. *)
  Alcotest.(check bool)
    (Printf.sprintf "zygos max load %.2f near paper's 0.75" load)
    true
    (load >= 0.68 && load <= 0.92)

let test_max_load_zero_when_impossible () =
  (* An SLO below the minimum possible latency is never met. *)
  let cfg = Run.config ~system:(Run.Ix 1) ~service:exp10 ~requests:5_000 () in
  let load, _ = Run.max_load_at_slo cfg ~slo_p99:5. () in
  Alcotest.(check (float 0.)) "impossible SLO" 0. load

(* A zero or negative resolution never ends the bisection, and a NaN or
   infinite one ends it after the two bracket probes. *)
let test_max_load_rejects_bad_slo () =
  let cfg = Run.config ~system:(Run.Ix 1) ~service:exp10 ~requests:1_000 () in
  List.iter
    (fun (slo_p99, resolution, msg) ->
      Alcotest.check_raises
        (Printf.sprintf "slo %g resolution %g" slo_p99 resolution)
        (Invalid_argument ("Run.max_load_at_slo: " ^ msg))
        (fun () -> ignore (Run.max_load_at_slo cfg ~slo_p99 ~resolution () : float * Run.point)))
    [
      (nan, 0.01, "slo_p99 <= 0");
      (0., 0.01, "slo_p99 <= 0");
      (-1., 0.01, "slo_p99 <= 0");
      (60., 0., "resolution not finite and > 0");
      (60., -0.1, "resolution not finite and > 0");
      (60., nan, "resolution not finite and > 0");
      (60., infinity, "resolution not finite and > 0");
    ]

let test_output_table_arity () =
  Alcotest.check_raises "row arity" (Invalid_argument "Output.render: row arity mismatch")
    (fun () ->
      ignore
        (Output.render [ Table { columns = [ "a"; "b" ]; rows = [ [ Text "only-one" ] ] } ]
          : string))

(* A cell as [Output.render] prints it: the row line of a one-cell
   table, without its padding. *)
let show cell =
  let table = Output.render [ Table { columns = [ "" ]; rows = [ [ cell ] ] } ] in
  String.trim (List.nth (String.split_on_char '\n' table) 2)

(* Every cell format, alone and in a rendered table. *)
let test_output_formatters () =
  List.iter
    (fun (label, want, fmt, x) -> Alcotest.(check string) label want (show (Num (fmt, x))))
    [
      ("f1", "1.2", Output.F1, 1.23);
      ("f2", "1.23", Output.F2, 1.234);
      ("f3", "1.234", Output.F3, 1.2341);
      ("pct", "75.3%", Output.Pct, 0.753);
      ("g fraction", "12.5", Output.G, 12.5);
      ("g integral", "2", Output.G, 2.);
      ("int truncates", "2", Output.Int, 2.9);
      ("meets at the bound", "meets", Output.Meets 100., 100.);
      ("violates above it", "violates", Output.Meets 100., Float.succ 100.);
    ];
  Alcotest.(check string) "rendered table"
    "x    y         \n---  --------  \n1.2  violates  \n"
    (Output.render
       [ Table { columns = [ "x"; "y" ]; rows = [ [ Num (F1, 1.23); Num (Meets 1., 2.) ] ] } ])

let test_figures_registry () =
  let names = List.map fst Experiments.Figures.all_targets in
  List.iter
    (fun expected ->
      if not (List.mem expected names) then Alcotest.failf "missing bench target %s" expected)
    [ "fig2"; "fig3"; "fig6"; "fig7"; "fig8"; "fig9"; "fig10a"; "fig10b"; "table1"; "fig11" ]

(* Silo timings where 2% of transactions were preempted: every 50th
   sample is 100x the rest, normalized to the 33us mean, so 2% take
   1,107us and every system misses the 1000us SLO even at 2% load.
   table1 must still render: 0 KTPS there, "-" for the tails and
   speedups (no point runs at load 0), and a real 5 x p99 search. *)
let test_table1_slo_missed_at_every_load () =
  let n = 5_000 in
  let raw = Array.init n (fun i -> if i mod 50 = 0 then 100. else 1.) in
  let k = 33. /. (Array.fold_left ( +. ) 0. raw /. float_of_int n) in
  let samples = Array.map (fun x -> x *. k) raw in
  let show rows = List.map (List.map show) rows in
  match Experiments.Figures.table1 ~samples ~jobs:1 ~scale:0.01 with
  | [ _; _; Table { rows; _ }; _; Table { rows = rows5; _ } ] ->
      Alcotest.(check (list (list string)))
        "max load@SLO rows"
        (List.map
           (fun name -> [ name; "0 KTPS"; "-"; "-"; "-"; "-" ])
           [ "linux-floating"; "ix"; "zygos" ])
        (show rows);
      List.iter
        (function
          | [ name; tput5 ] ->
              if String.equal tput5 "0 KTPS" then Alcotest.failf "%s: no load meets 5 x p99" name
          | row -> Alcotest.failf "5 x p99 row of %d cells" (List.length row))
        (show rows5)
  | blocks -> Alcotest.failf "table1 rendered %d blocks" (List.length blocks)

let () =
  Alcotest.run "experiments"
    [
      ( "run",
        [
          Alcotest.test_case "config defaults" `Quick test_config_defaults;
          Alcotest.test_case "system names" `Quick test_system_names;
          Alcotest.test_case "system names parse back" `Quick test_system_of_name;
          Alcotest.test_case "make_system rejects models" `Quick
            test_make_system_rejects_models;
          Alcotest.test_case "point fields" `Quick test_run_point_fields;
          QCheck_alcotest.to_alcotest prop_point_ignores_record_order;
          Alcotest.test_case "model point" `Quick test_model_point;
          Alcotest.test_case "sweep" `Quick test_sweep;
          Alcotest.test_case "max load at slo" `Slow test_max_load_at_slo;
          Alcotest.test_case "impossible slo" `Quick test_max_load_zero_when_impossible;
          Alcotest.test_case "bad slo rejected" `Quick test_max_load_rejects_bad_slo;
        ] );
      ( "output",
        [
          Alcotest.test_case "table arity" `Quick test_output_table_arity;
          Alcotest.test_case "formatters" `Quick test_output_formatters;
          Alcotest.test_case "figures registry" `Quick test_figures_registry;
          Alcotest.test_case "table1 misses the SLO at 2% load" `Quick
            test_table1_slo_missed_at_every_load;
        ] );
    ]

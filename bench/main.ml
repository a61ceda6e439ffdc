(* Benchmark harness for what perfbench does not run: per-operation
   costs of the paper's application substrates (RSS, the shuffle queue,
   Silo/TPC-C) and sequential-vs-pooled sweep execution. perfbench
   (perfbench/run.py) times the simulator end to end and per layer; the
   paper's figures and tables run through the [zygos] CLI.

   Usage:
     dune exec bench/main.exe                       -- micro and sweep
     dune exec bench/main.exe -- micro              -- selected targets
     dune exec bench/main.exe -- sweep -j 4         -- pooled side on 4 domains
     dune exec bench/main.exe -- --scale 0.05       -- quicker pass *)

(* File-wide suppressions: the sweep bench compares its
   sequential and pooled results with polymorphic equality (the parity
   assertion, off any hot path), and the fig6 slice's service
   distribution is shared read-only by every point the pool runs. *)
[@@@zygos.allow "poly-compare domain-escape"]

(* ---- micro: per-operation cost of what no other harness times ---- *)

let batches = 11

(* Median and interquartile range, in ns per call, of [batches] timed
   batches of [ops] calls to [f], after one untimed warm-up batch. *)
let time_op ~ops f =
  let per_op = Stats.Tally.create () in
  for b = 0 to batches do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to ops do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if b > 0 then Stats.Tally.record per_op (dt /. float_of_int ops *. 1e9)
  done;
  let q p = Stats.Tally.percentile per_op p in
  (q 50., q 75. -. q 25.)

(* (name, calls per batch at scale 1, operation). The batch sizes put
   every row at 0.1-0.2 s per batch at scale 1 on a 2-vCPU VM. *)
let micro_rows () =
  let rss = Net.Rss.create ~queues:16 () in
  let rss_counter = ref 0 in
  let rss_op () =
    incr rss_counter;
    ignore (Net.Rss.queue_of_conn rss (!rss_counter land 0x3ff) : int)
  in
  (* Bounded like a point's tally: cleared (capacity kept) every 2^16
     records, so the row times a record and not reservoir growth. *)
  let tally = Stats.Tally.create () in
  let tally_op () =
    if Stats.Tally.count tally = 1 lsl 16 then Stats.Tally.clear tally;
    Stats.Tally.record tally 12.5
  in
  let sched = Core.Sched.create ~cores:4 ~conns:1 in
  Core.Sched.register sched ~conn:0 ~home:0;
  let sched_op () =
    Core.Sched.deliver sched 0 0;
    if Core.Sched.poll_local sched ~core:0 then
      Core.Sched.complete sched (Core.Sched.batch_conn sched ~core:0)
    else assert false
  in
  (* The steal-victim order every ZygOS poll draws on the 16-core
     configuration the figures run: a 15-element shuffle. *)
  let policy = Core.Steal_policy.create ~rng:(Engine.Rng.create ~seed:3) ~cores:16 ~self:0 in
  let victim_op () = ignore (Core.Steal_policy.victim_order policy : int array) in
  let btree = Silo.Btree.create () in
  for i = 0 to 9_999 do
    ignore (Silo.Btree.insert btree (Silo.Key.of_int i) i : [ `Inserted | `Duplicate of int ])
  done;
  let get_counter = ref 0 in
  let btree_get_op () =
    incr get_counter;
    ignore (Silo.Btree.get btree (Silo.Key.of_int (!get_counter mod 10_000)))
  in
  let churn_counter = ref 0 in
  let btree_churn_op () =
    incr churn_counter;
    let key = Silo.Key.of_int (100_000 + (!churn_counter mod 1024)) in
    ignore (Silo.Btree.insert btree key 0 : [ `Inserted | `Duplicate of int ]);
    ignore (Silo.Btree.remove btree key : int option)
  in
  let tpcc = Silo.Tpcc.load () in
  let worker = Silo.Db.worker (Silo.Tpcc.db tpcc) in
  let tpcc_rng = Engine.Rng.create ~seed:5 in
  let tpcc_op kind () =
    ignore (Silo.Tpcc.execute tpcc worker tpcc_rng kind : Silo.Tpcc.outcome)
  in
  [
    ("net: toeplitz RSS dispatch", 10_000_000, rss_op);
    ("stats: tally record", 10_000_000, tally_op);
    ("core: shuffle deliver+dispatch+complete", 1_000_000, sched_op);
    ("core: victim order (16 cores)", 1_000_000, victim_op);
    ("silo: btree get (10k keys)", 500_000, btree_get_op);
    ("silo: btree insert+remove", 200_000, btree_churn_op);
    ("silo: TPC-C Payment transaction", 10_000, tpcc_op Silo.Tpcc.Payment);
    ("silo: TPC-C NewOrder transaction", 2_000, tpcc_op Silo.Tpcc.New_order);
  ]

let micro ~jobs:_ ~scale =
  let rows =
    List.map
      (fun (name, ops, f) ->
        let median, iqr = time_op ~ops:(max 1 (int_of_float (float_of_int ops *. scale))) f in
        Experiments.Output.[ Text name; Num (F1, median); Num (F1, iqr) ])
      (micro_rows ())
  in
  Experiments.Output.
    [
      Header (Printf.sprintf "Microbenchmarks (ns per operation, median of %d batches)" batches);
      Table { columns = [ "operation"; "median ns/op"; "IQR" ]; rows };
    ]

(* ---- sweep: sequential vs pooled wall clock on a fig6 slice ---- *)

let sweep_bench ~jobs ~scale =
  let module Run = Experiments.Run in
  let module Sweep = Experiments.Sweep in
  (* A representative Figure 6 slice: the exp/10µs panel, 5 systems x 9
     loads = 45 mutually independent points. *)
  let service = Engine.Dist.exponential 10. in
  let systems =
    [ Run.Model_central_fcfs; Run.Linux_floating; Run.Ix 1; Run.Zygos; Run.Zygos_no_interrupts ]
  in
  let loads = [ 0.2; 0.35; 0.5; 0.6; 0.7; 0.8; 0.85; 0.9; 0.95 ] in
  let points =
    List.concat_map
      (fun system ->
        List.map
          (fun load ->
            Sweep.point
              ~key:(Printf.sprintf "bench-sweep/%s/%g" (Run.system_name system) load)
              (fun ~seed ->
                let cfg =
                  Run.config ~system ~service ~cores:16
                    ~requests:(max 4_000 (int_of_float (25_000. *. scale)))
                    ~seed ()
                in
                let p = Run.run_point cfg ~load in
                (p.Run.throughput, p.Run.p99)))
          loads)
      systems
  in
  let workers = if jobs > 1 then jobs else Domain.recommended_domain_count () in
  let timed jobs =
    let t0 = Unix.gettimeofday () in
    let results = Sweep.run ~jobs ~seed:42 points in
    (results, Unix.gettimeofday () -. t0)
  in
  let seq, seq_wall = timed 1 in
  let par, par_wall = timed workers in
  if seq <> par then failwith "sweep bench: pooled results differ from sequential";
  let speedup = if par_wall > 0. then seq_wall /. par_wall else 1. in
  let int n = Experiments.Output.Num (Int, float_of_int n) in
  Experiments.Output.
    [
      Header "Sweep runner: sequential vs pooled execution (fig6 slice: exp, S = 10us)";
      Table
        {
          columns = [ "metric"; "value" ];
          rows =
            [
              [ Text "points"; int (List.length points) ];
              [ Text "workers"; int workers ];
              [ Text "sequential wall (s)"; Num (F2, seq_wall) ];
              [ Text "pooled wall (s)"; Num (F2, par_wall) ];
              [ Text "speedup"; Text (Printf.sprintf "%.2fx" speedup) ];
              [ Text "output parity"; Text "byte-identical" ];
            ];
        };
    ]

(* ---- target registry and entry point ---- *)

let targets = [ ("micro", micro); ("sweep", sweep_bench) ]

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "bench: %s\n" msg;
      exit 2)
    fmt

let usage () =
  Printf.printf
    "usage: bench/main.exe [TARGET...] [-j N] [--scale S]\n\
     \  TARGET     one of: %s (default: all)\n\
     \  -j N       pooled side of sweep on N domains (default 1: one per core)\n\
     \  --scale S  work multiplier (default 1.0)\n"
    (String.concat " " (List.map fst targets));
  exit 0

let positive_int flag v =
  match int_of_string_opt v with
  | Some j when j >= 1 -> j
  | _ -> fail "%s expects a positive integer, got %S" flag v

(* The target-mode forms of the zygos CLI: -j N, --jobs N, -jN, --scale S. *)
let rec parse ~jobs ~scale names = function
  | [] -> (jobs, scale, List.rev names)
  | ("-h" | "--help") :: _ -> usage ()
  | (("-j" | "--jobs") as flag) :: v :: rest -> parse ~jobs:(positive_int flag v) ~scale names rest
  | "--scale" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s > 0. -> parse ~jobs ~scale:s names rest
      | _ -> fail "--scale expects a positive number, got %S" v)
  | [ (("-j" | "--jobs" | "--scale") as flag) ] -> fail "%s expects a value" flag
  | a :: rest when String.length a > 2 && String.sub a 0 2 = "-j" ->
      parse ~jobs:(positive_int "-j" (String.sub a 2 (String.length a - 2))) ~scale names rest
  | a :: _ when String.length a > 0 && a.[0] = '-' -> fail "unknown option %S" a
  | a :: rest -> parse ~jobs ~scale (a :: names) rest

let () =
  let jobs, scale, names = parse ~jobs:1 ~scale:1.0 [] (List.tl (Array.to_list Sys.argv)) in
  let find name = List.find_opt (fun (n, _) -> String.equal n name) targets in
  let selected =
    match names with
    | [] | [ "all" ] -> targets
    | names ->
        List.map
          (fun name ->
            match find name with
            | Some t -> t
            | None ->
                fail "unknown target %S; available: %s" name
                  (String.concat ", " (List.map fst targets)))
          names
  in
  Printf.printf "ZygOS reproduction benchmarks (scale=%g, jobs=%d)\n" scale jobs;
  List.iter
    (fun (name, run) ->
      let t0 = Unix.gettimeofday () in
      print_string (Experiments.Output.render (run ~jobs ~scale));
      Printf.printf "\n[%s done in %.1fs]\n%!" name (Unix.gettimeofday () -. t0))
    selected

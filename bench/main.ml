(* Per-operation costs of what perfbench does not time: the paper's
   application substrates (RSS, the shuffle queue, Silo/TPC-C). perfbench
   (perfbench/run.py) times the simulator end to end and per layer; the
   paper's figures and tables run through the [zygos] CLI.

   Usage:
     dune exec bench/main.exe                       -- full batches
     dune exec bench/main.exe -- --scale 0.05       -- quicker pass *)

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
  let worker = Silo.Db.worker () in
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

let micro ~scale =
  let rows =
    List.map
      (fun (name, ops, f) ->
        let median, iqr = time_op ~ops:(Int.max 1 (int_of_float (float_of_int ops *. scale))) f in
        Experiments.Output.[ Text name; Num (F1, median); Num (F1, iqr) ])
      (micro_rows ())
  in
  Experiments.Output.
    [
      Header (Printf.sprintf "Microbenchmarks (ns per operation, median of %d batches)" batches);
      Table { columns = [ "operation"; "median ns/op"; "IQR" ]; rows };
    ]

let () =
  let scale =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> Some 1.0
    | [ "--scale"; v ] ->
        Option.bind (float_of_string_opt v) (fun s -> if s > 0. then Some s else None)
    | _ -> None
  in
  match scale with
  | None ->
      prerr_endline "usage: bench/main.exe [--scale S]  (S > 0, default 1.0)";
      exit 2
  | Some scale ->
      Printf.printf "ZygOS reproduction benchmarks (scale=%g)\n" scale;
      let t0 = Unix.gettimeofday () in
      print_string (Experiments.Output.render (micro ~scale));
      Printf.printf "\n[micro done in %.1fs]\n%!" (Unix.gettimeofday () -. t0)

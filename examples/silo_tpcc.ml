(* Run the real Silo engine under the TPC-C mix, print per-transaction
   service-time percentiles (the data behind Figure 10a) and verify the
   TPC-C consistency conditions afterwards.

   Run with:  dune exec examples/silo_tpcc.exe *)

let () =
  let n = 30_000 in
  Printf.printf "loading TPC-C (1 warehouse, small profile)...\n%!";
  let tpcc = Silo.Tpcc.load () in
  let worker = Silo.Db.worker () in
  let rng = Engine.Rng.create ~seed:2024 in
  let per_type = Hashtbl.create 8 in
  let tally_for tx =
    match Hashtbl.find_opt per_type tx with
    | Some t -> t
    | None ->
        let t = Stats.Tally.create () in
        Hashtbl.add per_type tx t;
        t
  in
  let rolled_back = ref 0 in
  (* This example *measures live execution*: wall-clock is the payload,
     not a determinism leak — TPS and per-tx latency are its output. *)
  let t0 = (Unix.gettimeofday () [@zygos.allow "determinism"]) in
  for _ = 1 to n do
    let tx = Silo.Tpcc.standard_mix rng in
    let s = (Unix.gettimeofday () [@zygos.allow "determinism"]) in
    (match Silo.Tpcc.execute tpcc worker rng tx with
    | Silo.Tpcc.Rolled_back -> incr rolled_back
    | Silo.Tpcc.Committed | Silo.Tpcc.Conflicted -> ());
    Stats.Tally.record
      (tally_for (Silo.Tpcc.tx_name tx))
      (((Unix.gettimeofday () [@zygos.allow "determinism"]) -. s) *. 1e6)
  done;
  let elapsed = (Unix.gettimeofday () [@zygos.allow "determinism"]) -. t0 in
  Printf.printf "%d transactions in %.2fs = %.0f TPS (%d intentional rollbacks)\n\n" n elapsed
    (float_of_int n /. elapsed) !rolled_back;
  Printf.printf "%-12s %8s %10s %10s %10s\n" "transaction" "count" "p50(us)" "p99(us)" "max(us)";
  Hashtbl.iter
    (fun tx tally ->
      Printf.printf "%-12s %8d %10.1f %10.1f %10.1f\n" tx (Stats.Tally.count tally)
        (Stats.Tally.p50 tally) (Stats.Tally.p99 tally) (Stats.Tally.max_value tally))
    per_type;
  let checks = Silo.Tpcc.consistency_check tpcc in
  let failed = List.filter (fun (_, ok) -> not ok) checks in
  Printf.printf "\nTPC-C consistency: %d/%d conditions hold\n"
    (List.length checks - List.length failed)
    (List.length checks);
  List.iter (fun (name, _) -> Printf.printf "  FAILED: %s\n" name) failed;
  if not (List.is_empty failed) then exit 1

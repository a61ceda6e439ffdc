(* Live multicore executor: the same shuffle-layer code the simulator
   models, running real spin-tasks on OCaml 5 domains with work stealing.

   Run with:  dune exec examples/runtime_demo.exe *)

let () =
  let cores = 4 and conns = 64 and tasks = 2_000 in
  let exec = Runtime.Executor.create ~cores ~conns () in
  Runtime.Executor.start exec;
  let rng = Engine.Rng.create ~seed:31 in
  let spin = Engine.Dist.exponential 20. in
  (* Per-connection completion logs to verify the §4.3 ordering guarantee:
     tasks of one connection must finish in submission order even when
     stolen by other workers. *)
  let logs = Array.init conns (fun _ -> Atomic.make []) in
  let submitted = Array.make conns 0 in
  let t0 = Runtime.Spin.now_us () in
  for _ = 1 to tasks do
    let conn = Engine.Rng.int rng conns in
    let seqno = submitted.(conn) in
    submitted.(conn) <- seqno + 1;
    let us = Engine.Dist.sample spin rng in
    (* Each completion log is an Atomic cell; the [logs] array itself is
       fixed-shape and only indexed, never written across domains. *)
    (Runtime.Executor.submit exec ~conn (fun () ->
         Runtime.Spin.busy_wait_us us;
         let log = logs.(conn) in
         let rec push () =
           let old = Atomic.get log in
           if not (Atomic.compare_and_set log old (seqno :: old)) then push ()
         in
         push ())
     [@zygos.owned])
  done;
  Runtime.Executor.stop exec;
  let elapsed_ms = (Runtime.Spin.now_us () -. t0) /. 1000. in
  let stats = Runtime.Executor.stats exec in
  Printf.printf "executed %d/%d tasks on %d domains in %.1f ms\n"
    stats.Runtime.Executor.executed stats.Runtime.Executor.submitted cores elapsed_ms;
  Printf.printf "batches: %d local, %d stolen (steal fraction %.1f%%)\n"
    stats.Runtime.Executor.local_batches stats.Runtime.Executor.stolen_batches
    (100. *. stats.Runtime.Executor.steal_fraction);
  (* Written only after [Executor.stop]: the main domain owns it. *)
  let ordered = (ref true [@zygos.owned]) in
  Array.iteri
    (fun conn log ->
      let finished = List.rev (Atomic.get log) in
      let expected = List.init submitted.(conn) Fun.id in
      if not (List.equal Int.equal finished expected) then begin
        ordered := false;
        Printf.printf "conn %d completed OUT OF ORDER\n" conn
      end)
    logs;
  Printf.printf "per-connection ordering: %s\n" (if !ordered then "OK" else "VIOLATED");
  if not !ordered then exit 1

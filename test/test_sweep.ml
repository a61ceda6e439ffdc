(* The parallel sweep runner: pool correctness, deterministic seed
   derivation, and the acceptance property of PR 3 — figure output at any
   -j is byte-identical to the sequential run. *)

module Pool = Runtime.Pool
module Sweep = Experiments.Sweep
module Figures = Experiments.Figures
module Output = Experiments.Output

(* ---- Pool ---- *)

let test_pool_results_in_order () =
  List.iter
    (fun workers ->
      let n = 100 in
      let tasks = Array.init n (fun i () -> i * i) in
      Alcotest.(check (array int))
        (Printf.sprintf "workers=%d" workers)
        (Array.init n (fun i -> i * i))
        (Pool.run ~workers ~tasks))
    [ 1; 2; 3; 8; 200 ]

let test_pool_runs_each_task_once () =
  let n = 64 in
  let counts = Array.init n (fun _ -> Atomic.make 0) in
  let tasks = Array.init n (fun i () -> Atomic.incr counts.(i)) in
  let _ = Pool.run ~workers:4 ~tasks in
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "task %d runs once" i) 1 (Atomic.get c))
    counts

(* The failing run still executes everything else before re-raising,
   whether one worker runs the tasks in order or three claim them. *)
let test_pool_propagates_exception () =
  List.iter
    (fun workers ->
      let survivors = Atomic.make 0 in
      let tasks =
        Array.init 16 (fun i () -> if i = 13 then failwith "boom" else Atomic.incr survivors)
      in
      (match Pool.run ~workers ~tasks with
      | _ -> Alcotest.failf "workers=%d: expected Failure" workers
      | exception Failure m -> Alcotest.(check string) "message" "boom" m);
      Alcotest.(check int)
        (Printf.sprintf "workers=%d: other tasks still ran" workers)
        15 (Atomic.get survivors))
    [ 1; 3 ]

let test_pool_rejects_bad_workers () =
  match Pool.run ~workers:0 ~tasks:[| (fun () -> ()) |] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* N domains x M tasks claimed from the shared counter: every task runs
   exactly once (per-task atomic counters) and results land at their own
   index whichever worker claimed them. This is the behavioral contract
   behind the [@zygos.owned] annotation on the pool's [Domain.spawn]. *)
let test_pool_exactly_once () =
  let tasks_n = 2000 and workers = 4 in
  let ran = Array.init tasks_n (fun _ -> Atomic.make 0) in
  let busy_wait_us us =
    let until = Unix.gettimeofday () +. (us *. 1e-6) in
    while Unix.gettimeofday () < until do
      ()
    done
  in
  let tasks =
    Array.init tasks_n (fun i () ->
        (* occasional jitter so the workers' claims interleave *)
        if i land 127 = 0 then busy_wait_us 30.;
        ignore (Atomic.fetch_and_add ran.(i) 1 : int);
        i * 3)
  in
  Array.iteri
    (fun i r -> if r <> i * 3 then Alcotest.failf "task %d: result %d" i r)
    (Pool.run ~workers ~tasks);
  Array.iteri
    (fun i c ->
      let n = Atomic.get c in
      if n <> 1 then Alcotest.failf "task %d ran %d times" i n)
    ran

(* No task: no domain to spawn, not a negative count of them. *)
let test_pool_zero_tasks () =
  Alcotest.(check int) "no results" 0 (Array.length (Pool.run ~workers:4 ~tasks:[||]))

(* ---- Seed derivation ---- *)

let test_point_seed_deterministic () =
  let s1 = Sweep.point_seed ~seed:42 ~key:"fig6/exp/10/zygos/0.8" in
  let s2 = Sweep.point_seed ~seed:42 ~key:"fig6/exp/10/zygos/0.8" in
  Alcotest.(check int) "same (seed, key) -> same seed" s1 s2;
  Alcotest.(check bool) "seed is non-negative" true (s1 >= 0);
  let other = Sweep.point_seed ~seed:43 ~key:"fig6/exp/10/zygos/0.8" in
  Alcotest.(check bool) "master seed decorrelates" true (s1 <> other)

let test_point_seeds_collision_free =
  (* Any set of distinct keys must derive distinct seeds: the 63-bit
     output space makes an honest-mixer collision over a few dozen keys
     essentially impossible, so a collision means the hash lost input
     bits. *)
  QCheck.Test.make ~name:"derived seeds are collision-free over distinct keys" ~count:200
    QCheck.(pair small_int (small_list (string_of_size Gen.(1 -- 40))))
    (fun (seed, keys) ->
      let keys = List.sort_uniq compare keys in
      let seeds = List.map (fun key -> Sweep.point_seed ~seed ~key) keys in
      List.length (List.sort_uniq compare seeds) = List.length keys)

let test_point_seeds_order_independent =
  QCheck.Test.make ~name:"derived seed ignores enumeration order" ~count:100
    QCheck.(small_list (string_of_size Gen.(1 -- 40)))
    (fun keys ->
      let forward = List.map (fun key -> (key, Sweep.point_seed ~seed:7 ~key)) keys in
      let backward =
        List.rev_map (fun key -> (key, Sweep.point_seed ~seed:7 ~key)) (List.rev keys)
      in
      forward = backward)

let test_sweep_results_independent_of_jobs () =
  let points =
    List.init 37 (fun i ->
        Sweep.point ~key:(Printf.sprintf "p%d" i) (fun ~seed -> (i, seed)))
  in
  let expected = Sweep.run ~jobs:1 ~seed:5 points in
  List.iter
    (fun jobs ->
      let got = Sweep.run ~jobs ~seed:5 points in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "jobs=%d" jobs)
        expected got)
    [ 2; 4; 8 ]

(* ---- Figure output parity (the CI-enforced acceptance property) ---- *)

let render_figure target ~jobs =
  match List.assoc_opt target Figures.all_targets with
  | None -> Alcotest.failf "no such target %s" target
  | Some f -> Output.render (f ~jobs ~scale:0.01)

let test_figure_parity () =
  List.iter
    (fun target ->
      let sequential = render_figure target ~jobs:1 in
      Alcotest.(check bool)
        (Printf.sprintf "%s renders something" target)
        true
        (String.length sequential > 0);
      List.iter
        (fun jobs ->
          let parallel = render_figure target ~jobs in
          Alcotest.(check string)
            (Printf.sprintf "%s at -j %d is byte-identical to sequential" target jobs)
            sequential parallel)
        [ 4; 8 ])
    [ "ablate-batch"; "ablate-poll"; "fig2" ]

let () =
  Alcotest.run "sweep"
    [
      ( "pool",
        [
          Alcotest.test_case "results in task order" `Quick test_pool_results_in_order;
          Alcotest.test_case "each task runs exactly once" `Quick
            test_pool_runs_each_task_once;
          Alcotest.test_case "exceptions propagate after join" `Quick
            test_pool_propagates_exception;
          Alcotest.test_case "workers < 1 rejected" `Quick test_pool_rejects_bad_workers;
          Alcotest.test_case "exactly-once under contention" `Quick test_pool_exactly_once;
          Alcotest.test_case "zero tasks" `Quick test_pool_zero_tasks;
        ] );
      ( "seed derivation",
        [
          Alcotest.test_case "deterministic in (seed, key)" `Quick
            test_point_seed_deterministic;
          QCheck_alcotest.to_alcotest test_point_seeds_collision_free;
          QCheck_alcotest.to_alcotest test_point_seeds_order_independent;
          Alcotest.test_case "sweep results independent of jobs" `Quick
            test_sweep_results_independent_of_jobs;
        ] );
      ( "figure parity",
        [
          Alcotest.test_case "figures byte-identical at -j 1/4/8" `Slow test_figure_parity;
        ] );
    ]

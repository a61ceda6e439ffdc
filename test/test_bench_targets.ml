(* Regression net over deliverable (d): every figure target must run to
   completion at the minimum request budget without raising, and the
   registry must stay complete. Each target runs once; the 14
   deterministic ones must also keep a fixed digest and print only
   finite numbers. *)

module Output = Experiments.Output

(* MD5 of each target's rendered output, equal to
   [zygos T --scale 0.05 -j 1 | md5sum]: [Figures.requests] clamps every
   point to 4,000 requests at any scale <= 0.1, so the scale-0.01 runs
   below print exactly those bytes. A refactor of how points are wired
   must leave every one unchanged. fig3, fig6 and fig7 are the heavy
   sweeps and run in their own case. *)
let pinned =
  [
    ("fig2", "9c8ac536b8650544a5ed9a8183c2ea80");
    ("fig8", "84beabdd4b5eac06bad5a4e7b9eb724e");
    ("fig9", "d0ff8f24a416e86929a3e80c6628fb3c");
    ("fig11", "142bde7a1c302e0b26402d0e6283af10");
    ("ablate-poll", "1fed0d8b64ee3c2f29366c04136099a5");
    ("ablate-batch", "234c1366d28e45b4ec98492e8144c9b3");
    ("ext-preempt", "f5847d1c096802cb3723f5f17b0edcad");
    ("ext-rebalance", "aff2ec5944196358ebf10ed5ed7d9518");
    ("ext-consolidate", "6266086fbdbf0c11e23f6db9d3eac371");
    ("chaos", "fc75ad5578118c108d6ed449bdf95577");
    ("rack", "7e0393a1ca2ab61e85655f8232332c92");
    ("fig3", "cbbab8886af499f69fd5eeb5d80fc0b5");
    ("fig6", "b98c5190a209806a3a3ad1c2a6ea4ace");
    ("fig7", "b79a11c60f1de91444644961d8b39d13");
  ]

let heavy = [ "fig3"; "fig6"; "fig7" ]

(* fig10a, fig10b and table1 time real Silo work, so they are only run. *)
let silo_targets = [ "fig10a"; "fig10b"; "table1" ]

let resolve ~jobs name =
  match List.assoc_opt name Experiments.Figures.all_targets with
  | None -> Alcotest.failf "target %s missing from registry" name
  | Some f -> f ~jobs ~scale:0.01

(* A NaN would render as "nan" and still keep some fixed digest. *)
let check_finite name blocks =
  List.iter
    (function
      | Output.Table { rows; _ } ->
          List.iter
            (List.iter (function
              | Output.Num (_, x) when not (Float.is_finite x) ->
                  Alcotest.failf "%s: non-finite cell %h" name x
              | _ -> ()))
            rows
      | _ -> ())
    blocks

let check_pinned ~jobs (name, digest) =
  let blocks = resolve ~jobs name in
  check_finite name blocks;
  let out = Output.render blocks in
  let got = Digest.to_hex (Digest.string out) in
  if got <> digest then
    Alcotest.failf "%s output digest %s, pinned %s; output:\n%s" name got digest out

(* jobs:2 so every fast target also exercises the pooled path. *)
let test_fast_targets () =
  List.iter (fun name -> ignore (Output.render (resolve ~jobs:2 name) : string)) silo_targets;
  List.iter (check_pinned ~jobs:2) (List.filter (fun (n, _) -> not (List.mem n heavy)) pinned)

let test_slow_targets () =
  List.iter (check_pinned ~jobs:1) (List.filter (fun (n, _) -> List.mem n heavy) pinned)

let test_registry_complete () =
  let names = List.map fst Experiments.Figures.all_targets in
  List.iter
    (fun n -> if not (List.mem n names) then Alcotest.failf "missing: %s" n)
    (silo_targets @ List.map fst pinned)

(* The CLI binary (the dune deps make it available), found beside this
   test's own build directory, so the test runs from any working
   directory: ../bin/main.exe relative to test/test_bench_targets.exe. *)
let cli =
  Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin/main.exe"

(* Run the CLI with [args], returning its exit code, stdout and stderr. *)
let run_cli args =
  let out = Filename.temp_file "zygos_cli" ".out" and err = Filename.temp_file "zygos_cli" ".err" in
  let read path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove out;
      Sys.remove err)
    (fun () ->
      let rc =
        Sys.command
          (Printf.sprintf "%s %s >%s 2>%s" (Filename.quote cli) args (Filename.quote out)
             (Filename.quote err))
      in
      (rc, read out, read err))

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* The CLI must reject an unknown figure target with a non-zero exit and
   name the valid ones. *)
let test_unknown_target_cli () =
  let rc, _, err = run_cli "no-such-target" in
  if rc = 0 then Alcotest.fail "unknown target must exit non-zero";
  List.iter
    (fun needle ->
      if not (contains err needle) then
        Alcotest.failf "stderr must mention %S, got:\n%s" needle err)
    [ "unknown target"; "valid targets:"; "rack"; "fig2"; "chaos" ]

(* Every bad flag value, whether the library's range check or the CLI's
   own parsing rejects it, in target mode or in [point], exits 2 with
   stderr starting with a reason; [-h]/[--help] exits 0 with the usage
   on stdout. Rows: full argument string, exit code, output prefix. *)
let test_point_bad_flag_cli () =
  List.iter
    (fun (args, want, prefix) ->
      let rc, out, err = run_cli args in
      if rc <> want then Alcotest.failf "%s exited %d, want %d" args rc want;
      let shown = if want = 0 then out else err in
      if not (String.starts_with ~prefix shown) then
        Alcotest.failf "%s: output must start with %S, got:\n%s" args prefix shown)
    [
      ("point --cores 0", 2, "zygos point: Loadgen.create");
      ( "point --system linux",
        2,
        "zygos point: --system expects a system (see --help), got \"linux\"" );
      ("point --system preempt-qnan", 2, "zygos point: Preemptive.create: quantum");
      ("fig2 --scale abc", 2, "zygos: --scale expects a positive number, got \"abc\"");
      ("fig2 -j 0", 2, "zygos: -j expects a positive integer, got \"0\"");
      ("fig2 --equeue heap", 2, "zygos: unknown option \"--equeue\"");
      ("fig2 --scale", 2, "zygos: --scale expects a value");
      ("--help", 0, "usage: zygos");
      ("point -h", 0, "usage: zygos");
    ]

(* MD5 of [zygos point ARGS] stdout, captured from bin/zygsim at
   e721c7b, the single-point CLI that [point] replaced (zygsim spelled
   M/G/n/FCFS "model-central"). The two IX pins were re-captured (from
   55c8bef2... and 22ea45b7...) when a batch's last response and the
   next poll became one event: only the [sim_*] event-pool lines
   differ. *)
let pinned_points =
  [
    ("--system zygos --dist exp --mean 10 --load 0.8", "6d516b896515de7df40003669cb5db53");
    ("--system ix --dist bimodal1 --mean 25 --slo 250", "e8e38bca8d4dc58297d19d2dced01863");
    ("--system preempt-q5 --dist bimodal2 --load 0.6", "3949a860562ef9773b62de2a8440d733");
    ("--system ix-rebalanced --skew 0.05:0.5 --load 0.8", "681a6f3150b263f4c9fdc16fa1d6c51d");
    ("--system M/G/n/FCFS --sweep 0.5,0.9", "ad0b7bc15ebfe5b4e04bc6e846bd6b2a");
  ]

let test_point_digests () =
  List.iter
    (fun (args, digest) ->
      let rc, out, err = run_cli ("point " ^ args) in
      if rc <> 0 then Alcotest.failf "point %s exited %d:\n%s" args rc err;
      let got = Digest.to_hex (Digest.string out) in
      if got <> digest then
        Alcotest.failf "point %s output digest %s, pinned %s; output:\n%s" args got digest out)
    pinned_points

let () =
  Alcotest.run "bench-targets"
    [
      ( "targets",
        [
          Alcotest.test_case "registry complete" `Quick test_registry_complete;
          Alcotest.test_case "unknown target exits non-zero" `Quick
            test_unknown_target_cli;
          Alcotest.test_case "point: bad flag value exits 2" `Quick test_point_bad_flag_cli;
          Alcotest.test_case "point: pinned outputs" `Quick test_point_digests;
          Alcotest.test_case "fast targets run" `Slow test_fast_targets;
          Alcotest.test_case "sweep targets run" `Slow test_slow_targets;
        ] );
    ]

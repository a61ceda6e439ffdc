(* Regression net over deliverable (d): every bench target must run to
   completion at a tiny scale without raising, and the registry must stay
   complete. The heavyweight sweep targets (fig3/fig6/fig7) are exercised
   once each at the minimum request budget; everything else too. Output is
   redirected away so test logs stay readable, except for the pinned
   targets below, whose rendered text must keep a fixed digest. *)

let with_quiet_stdout f =
  let saved = Unix.dup Unix.stdout in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  flush stdout;
  Unix.dup2 devnull Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      Unix.close devnull)
    f

(* MD5 of each target's rendered output at scale 0.05, equal to
   [zygos T --scale 0.05 -j 1 | md5sum]. Captured on commit 07d04e6; a
   refactor of how points are wired must leave every one unchanged.
   fig10a, fig10b and table1 time real Silo work, so they cannot be
   pinned. *)
let pinned_targets =
  [
    ("ablate-poll", "1fed0d8b64ee3c2f29366c04136099a5");
    ("ext-consolidate", "6266086fbdbf0c11e23f6db9d3eac371");
    ("ext-preempt", "f5847d1c096802cb3723f5f17b0edcad");
    ("ext-rebalance", "aff2ec5944196358ebf10ed5ed7d9518");
    ("chaos", "fc75ad5578118c108d6ed449bdf95577");
    ("rack", "7e0393a1ca2ab61e85655f8232332c92");
  ]

let fast_targets =
  [ "fig2"; "fig8"; "fig9"; "fig10a"; "fig10b"; "table1"; "fig11"; "ablate-batch" ]

let slow_targets = [ "fig3"; "fig7"; "fig6" ]

let target name =
  match List.assoc_opt name Experiments.Figures.all_targets with
  | None -> Alcotest.failf "target %s missing from registry" name
  | Some f -> f

let run_target ?(jobs = 1) name =
  let f = target name in
  with_quiet_stdout (fun () -> f ~jobs ~scale:0.01)

let check_pinned (name, digest) =
  let f = target name in
  let out = Experiments.Output.capture (fun () -> f ~jobs:2 ~scale:0.05) in
  let got = Digest.to_hex (Digest.string out) in
  if got <> digest then
    Alcotest.failf "%s output digest %s, pinned %s; output:\n%s" name got digest out

(* jobs:2 so every fast target also exercises the pooled path. *)
let test_fast_targets () =
  List.iter (run_target ~jobs:2) fast_targets;
  List.iter check_pinned pinned_targets

let test_slow_targets () = List.iter (run_target ~jobs:1) slow_targets

let test_registry_complete () =
  let names = List.map fst Experiments.Figures.all_targets in
  List.iter
    (fun n -> if not (List.mem n names) then Alcotest.failf "missing: %s" n)
    (fast_targets @ slow_targets @ List.map fst pinned_targets)

(* The CLI binary (the dune deps make it available): run it with [args],
   returning its exit code, stdout and stderr. *)
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
          (Printf.sprintf "../bin/main.exe %s >%s 2>%s" args (Filename.quote out)
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
      ("fig2 --equeue bogus", 2, "zygos: --equeue expects heap or wheel, got \"bogus\"");
      ("fig2 --scale", 2, "zygos: --scale expects a value");
      ("--help", 0, "usage: zygos");
      ("point -h", 0, "usage: zygos");
    ]

(* MD5 of [zygos point ARGS] stdout, captured from bin/zygsim at
   e721c7b, the single-point CLI that [point] replaced (zygsim spelled
   M/G/n/FCFS "model-central"). *)
let pinned_points =
  [
    ("--system zygos --dist exp --mean 10 --load 0.8", "6d516b896515de7df40003669cb5db53");
    ("--system ix --dist bimodal1 --mean 25 --slo 250", "55c8bef2559033235e5a85073a87471d");
    ("--system preempt-q5 --dist bimodal2 --load 0.6", "3949a860562ef9773b62de2a8440d733");
    ("--system ix-rebalanced --skew 0.05:0.5 --load 0.8", "22ea45b72cd473921df19b0ff7963761");
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

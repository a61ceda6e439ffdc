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

(* The CLI must reject an unknown figure target with a non-zero exit and
   name the valid ones (the dune deps make the binary available). *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_unknown_target_cli () =
  let err = Filename.temp_file "zygos_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      let rc =
        Sys.command
          (Printf.sprintf "../bin/main.exe no-such-target >/dev/null 2>%s"
             (Filename.quote err))
      in
      if rc = 0 then Alcotest.fail "unknown target must exit non-zero";
      let ic = open_in_bin err in
      let out = really_input_string ic (in_channel_length ic) in
      close_in ic;
      List.iter
        (fun needle ->
          if not (contains out needle) then
            Alcotest.failf "stderr must mention %S, got:\n%s" needle out)
        [ "unknown target"; "valid targets:"; "rack"; "fig2"; "chaos" ])

let () =
  Alcotest.run "bench-targets"
    [
      ( "targets",
        [
          Alcotest.test_case "registry complete" `Quick test_registry_complete;
          Alcotest.test_case "unknown target exits non-zero" `Quick
            test_unknown_target_cli;
          Alcotest.test_case "fast targets run" `Slow test_fast_targets;
          Alcotest.test_case "sweep targets run" `Slow test_slow_targets;
        ] );
    ]

(* Tests for tool/zygoscope: each rule fires on a minimal bad fixture at
   the expected line, stays quiet on the good variant, and every
   suppression mechanism ([@zygos.allow], [@zygos.owned], floating
   [@@@zygos.allow]) downgrades the finding to suppressed-but-recorded.
   The end-to-end case runs the real analyzer over the built library
   tree and proves both directions of the gate: zero active findings,
   and a non-empty suppressed set covering every documented annotation
   site — deleting any one of those annotations would surface an active
   finding and fail [dune build @lint]. *)

module Lint = Zygoscope_lib.Lint

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let analyze ?enabled ?r1 ?r4 ~name code =
  Lint.analyze_structure ?enabled ?r1 ?r4 ~file:name (Lint.typecheck_string ~name code)

let show f = Format.asprintf "%a" Lint.pp_finding f

let show_all fs = String.concat "\n" (List.map show fs)

(* Assert the active findings are exactly [(rule, line)] pairs, in order. *)
let check_active what expected findings =
  let got = List.map (fun f -> (f.Lint.rule, f.Lint.line)) (Lint.active findings) in
  if got <> expected then
    Alcotest.failf "%s: expected %s, got:\n%s" what
      (String.concat "; "
         (List.map
            (fun (r, l) -> Printf.sprintf "%s@%d" (Lint.rule_name r) l)
            expected))
      (show_all (Lint.active findings))

(* ---- R1: determinism ---- *)

let fixture_r1 =
  {|
let elapsed () = Sys.time ()
let roll () = Random.int 6
let digest x = Hashtbl.hash x
let table () : (int, int) Hashtbl.t = Hashtbl.create ~random:true 16
let fine () : (int, int) Hashtbl.t = Hashtbl.create 16
let own_rng seed = (seed * 25214903917) + 11
let knob () = Sys.getenv_opt "KNOB"
|}

let test_r1_fires () =
  let fs = analyze ~r1:true ~name:"fixture_r1.ml" fixture_r1 in
  check_active "r1"
    [ (Lint.R1, 2); (Lint.R1, 3); (Lint.R1, 4); (Lint.R1, 5); (Lint.R1, 8) ]
    fs

let test_r1_scoped_off_outside_deterministic_dirs () =
  (* Same code, applicability derived from the file path: lib/runtime is
     allowlisted, bench/ is out of scope entirely — wall-clock is the
     very thing a benchmark harness measures. *)
  List.iter
    (fun file -> check_active file [] (analyze ~name:file fixture_r1))
    [ "lib/runtime/pool.ml"; "bench/main.ml" ]

let test_r1_active_in_deterministic_dirs () =
  (* bin/ and examples/ joined the deterministic set when @lint grew to
     cover the executables. *)
  List.iter
    (fun file ->
      Alcotest.(check int) file 5 (List.length (Lint.active (analyze ~name:file fixture_r1))))
    [ "lib/engine/sim.ml"; "bin/main.ml"; "examples/quickstart.ml" ]

(* ---- R2: hot-path allocation ---- *)

let fixture_r2 =
  {|
let[@zygos.hot] mk_tuple x = (x, x)
let[@zygos.hot] mk_some x = Some x
let[@zygos.hot] mk_closure x = let g y = x + y in g
let[@zygos.hot] mk_partial (a : int array) = Array.unsafe_set a 0
let fns : (int -> unit) array = Array.make 4 ignore
let[@zygos.hot] full_app_returning_fn i = Array.unsafe_get fns i
let[@zygos.hot] cold_branch x = if x < 0 then failwith (String.concat "" ["n"; "eg"]) else x
let not_hot x = (x, Some x)
|}

let test_r2_fires () =
  let fs = analyze ~name:"fixture_r2.ml" fixture_r2 in
  check_active "r2"
    [ (Lint.R2, 2); (Lint.R2, 3); (Lint.R2, 4); (Lint.R2, 5) ]
    fs

(* Regression for the arity check: a full application whose *result* is
   a function (['a] instantiated to an arrow) must not be read as a
   partial application — line 7 above —, while a genuine partial
   application (line 5) must. *)
let test_r2_arity_regression () =
  let fs = analyze ~name:"fixture_r2.ml" fixture_r2 in
  let at line = List.filter (fun f -> f.Lint.line = line) (Lint.active fs) in
  Alcotest.(check int) "unsafe_get returning fn is full" 0 (List.length (at 7));
  Alcotest.(check int) "unsafe_set missing an arg is partial" 1 (List.length (at 5))

(* ---- R3: polymorphic operations ---- *)

let fixture_r3 =
  {|
let eq_int (a : int) b = a = b
let eq_str (a : string) b = a = b
let cmp_pair (a : int * int) b = compare a b
let min_float (a : float) b = min a b
let sort_poly (l : (int * int) list) = List.sort compare l
let mem_str (x : string) l = List.mem x l
let mem_int (x : int) l = List.mem x l
|}

let test_r3_fires () =
  let fs = analyze ~name:"fixture_r3.ml" fixture_r3 in
  (* int (immediate) and string = (directly specialized) pass; the boxed
     pair, min (never specialized, even at float), compare-as-a-value and
     List.mem at string fire. *)
  check_active "r3"
    [ (Lint.R3, 4); (Lint.R3, 5); (Lint.R3, 6); (Lint.R3, 7) ]
    fs

let test_r3_local_shadow_ignored () =
  (* A local value that happens to be called [min]/[max] is not the
     stdlib polymorphic operation. *)
  let fs =
    analyze ~name:"fixture_r3b.ml"
      {|
let pick ~min ~max (s : string) = if String.length s > max then min else s
|}
  in
  check_active "r3 shadow" [] fs

(* ---- R4: domain-safety ---- *)

let fixture_r4 =
  {|
type counter = { mutable n : int }
type documented = { mutable m : int [@zygos.owned "test fixture"] }
type atomics = { hits : int Atomic.t; lock : Mutex.t }
let total = ref 0
let bump () = total := !total + 1
let local_acc xs = let acc = ref 0 in List.iter (fun x -> acc := !acc + x) xs; !acc
|}

let test_r4_fires () =
  let fs = analyze ~r4:true ~name:"fixture_r4.ml" fixture_r4 in
  (* the bare mutable field and the module-level ref fire; the
     [@zygos.owned] field is suppressed; Atomic.t/Mutex.t fields and the
     function-local accumulator ref pass. *)
  check_active "r4" [ (Lint.R4, 2); (Lint.R4, 5) ] fs;
  let sup = Lint.suppressed_of fs in
  Alcotest.(check int) "owned field recorded as suppressed" 1 (List.length sup);
  Alcotest.(check int) "owned suppression on line 3" 3 (List.nth sup 0).Lint.line

let test_r4_off_by_default_elsewhere () =
  check_active "r4 off" [] (analyze ~name:"lib/stats/tally.ml" fixture_r4)

(* ---- R5: Obj ---- *)

let test_r5_fires () =
  let fs =
    analyze ~name:"fixture_r5.ml" {|
let peek (x : int list) = Obj.repr x
|}
  in
  check_active "r5" [ (Lint.R5, 2) ] fs

(* ---- suppression mechanics ---- *)

let test_allow_suppresses_and_is_load_bearing () =
  let with_allow =
    {|
let stamp () = (Sys.time () [@zygos.allow "determinism"])
|}
  in
  let without_allow = {|
let stamp () = Sys.time ()
|} in
  let fs = analyze ~r1:true ~name:"fixture_allow.ml" with_allow in
  check_active "allow: nothing active" [] fs;
  Alcotest.(check int) "allow: recorded as suppressed" 1
    (List.length (Lint.suppressed_of fs));
  (* Deleting the annotation turns the same code into an active finding:
     the suppression is load-bearing, not dead. *)
  let fs' = analyze ~r1:true ~name:"fixture_allow.ml" without_allow in
  check_active "allow removed: finding is active" [ (Lint.R1, 2) ] fs'

let test_floating_allow_covers_file () =
  let fs =
    analyze ~name:"fixture_floating.ml"
      {|
[@@@zygos.allow "poly-compare"]

let worst (a : int * int) b = min a b
|}
  in
  check_active "floating allow" [] fs;
  Alcotest.(check int) "still recorded" 1 (List.length (Lint.suppressed_of fs))

let test_hot_alloc_allow () =
  let fs =
    analyze ~name:"fixture_hot_allow.ml"
      {|
let[@zygos.hot] emit x = (Some x [@zygos.allow "hot-alloc"])
|}
  in
  check_active "hot allow" [] fs;
  Alcotest.(check int) "recorded" 1 (List.length (Lint.suppressed_of fs))

let test_rule_selection () =
  (* --rules narrows the enabled set: with only R3 enabled the R1 hit in
     the same fixture is not even recorded. *)
  let code = {|
let both () = ignore (Sys.time ()); min (1, 2) (3, 4)
|} in
  let only_r3 = analyze ~enabled:[ Lint.R3 ] ~r1:true ~name:"fixture_rules.ml" code in
  Alcotest.(check int) "one R3 finding" 1 (List.length (Lint.active only_r3));
  Alcotest.(check bool) "it is R3" true
    (List.for_all (fun f -> f.Lint.rule = Lint.R3) (Lint.active only_r3));
  let only_r1 = analyze ~enabled:[ Lint.R1 ] ~r1:true ~name:"fixture_rules.ml" code in
  Alcotest.(check bool) "only R1" true
    (List.for_all (fun f -> f.Lint.rule = Lint.R1) (Lint.active only_r1))

let test_unknown_rule_names () =
  Alcotest.(check bool) "r1..r8 resolve" true
    (List.for_all
       (fun s -> Option.is_some (Lint.rule_of_string s))
       [ "r1"; "determinism"; "r2"; "hot-alloc"; "r3"; "poly-compare";
         "r4"; "domain-safety"; "r5"; "obj"; "r6"; "transitive-hot";
         "r7"; "float-boxing"; "r8"; "domain-escape"; "all" ]);
  Alcotest.(check bool) "junk does not" true (Option.is_none (Lint.rule_of_string "r9"))

let test_split_rules_rejects_duplicates () =
  (* Duplicates are detected after normalization: "R2" and "hot-alloc"
     are the same rule as "r2", so only the first spelling survives and
     every later copy is reported through [dup]. *)
  let dups = ref [] in
  let kept =
    Lint.split_rules ~dup:(fun t -> dups := t :: !dups) "r2, R2, hot-alloc hot_alloc r3"
  in
  Alcotest.(check (list string)) "kept" [ "r2"; "r3" ] kept;
  Alcotest.(check (list string)) "rejected" [ "R2"; "hot-alloc"; "hot_alloc" ]
    (List.rev !dups);
  (* Unknown tokens dedup case-insensitively too. *)
  let dups = ref [] in
  let kept = Lint.split_rules ~dup:(fun t -> dups := t :: !dups) "bogus BOGUS" in
  Alcotest.(check (list string)) "unknown kept once" [ "bogus" ] kept;
  Alcotest.(check (list string)) "unknown dup" [ "BOGUS" ] (List.rev !dups)

(* Warnings about malformed [@zygos.allow] payloads must point at the
   attribute itself — the fix site — not at the expression it hangs off. *)
let mk_attr ~line name payload =
  let pos =
    { Lexing.pos_fname = "attr_fixture.ml"; pos_lnum = line; pos_bol = 0; pos_cnum = 0 }
  in
  let loc = { Location.loc_start = pos; loc_end = pos; loc_ghost = false } in
  {
    Parsetree.attr_name = { Location.txt = name; loc };
    attr_payload =
      (match payload with
      | Some s ->
          Parsetree.PStr
            [ Ast_helper.Str.eval (Ast_helper.Exp.constant (Ast_helper.Const.string s)) ]
      | None -> Parsetree.PStr []);
    attr_loc = loc;
  }

let test_allow_warnings_at_attribute_location () =
  let warnings = ref [] in
  let warn (loc : Location.t) msg =
    warnings := (loc.Location.loc_start.pos_lnum, msg) :: !warnings
  in
  (* unknown rule name: the known one still applies, the typo is loud *)
  let allows =
    Lint.allows_of_attributes ~warn [ mk_attr ~line:42 "zygos.allow" (Some "r2 bogus") ]
  in
  Alcotest.(check bool) "known rule survives the typo" true (allows = [ Lint.R2 ]);
  (match !warnings with
  | [ (line, msg) ] ->
      Alcotest.(check int) "warning at the attribute's line" 42 line;
      Alcotest.(check bool) "names the unknown rule" true
        (contains msg "unknown rule \"bogus\"")
  | ws -> Alcotest.failf "expected exactly one warning, got %d" (List.length ws));
  (* duplicate token *)
  warnings := [];
  let allows =
    Lint.allows_of_attributes ~warn [ mk_attr ~line:7 "zygos.allow" (Some "r1 r1") ]
  in
  Alcotest.(check bool) "dup collapses to one rule" true (allows = [ Lint.R1 ]);
  (match !warnings with
  | [ (7, msg) ] ->
      Alcotest.(check bool) "duplicate reported" true (contains msg "duplicate rule")
  | ws -> Alcotest.failf "expected one dup warning, got %d" (List.length ws));
  (* missing payload *)
  warnings := [];
  let allows = Lint.allows_of_attributes ~warn [ mk_attr ~line:9 "zygos.allow" None ] in
  Alcotest.(check bool) "no rules from an empty payload" true (allows = []);
  (match !warnings with
  | [ (9, msg) ] ->
      Alcotest.(check bool) "payload warning" true (contains msg "without a string payload")
  | ws -> Alcotest.failf "expected one payload warning, got %d" (List.length ws))

(* ---- end to end over the built library tree ---- *)

(* Documented suppression sites: a representative annotation per file.
   If someone deletes one, the corresponding finding becomes active and
   [dune build @lint] fails; this test pins the inventory. *)
let documented_suppressions =
  [
    ("lib/runtime/pool.ml", Lint.R8);
    ("lib/experiments/figures.ml", Lint.R1);
    ("lib/net/loadgen.ml", Lint.R2);
    ("lib/systems/zygos.ml", Lint.R2);
  ]

let test_lib_tree_clean () =
  (* cwd is _build/default/test under [dune runtest], the workspace root
     under [dune exec] — probe both. *)
  let root =
    List.find_opt Sys.file_exists [ "../lib"; "_build/default/lib" ]
    |> function
    | Some r -> r
    | None ->
        Alcotest.failf "built library tree not found (cwd %s)" (Sys.getcwd ())
  in
  let cmts = Lint.find_cmts [] root in
  Alcotest.(check bool)
    (Printf.sprintf "found %d cmts" (List.length cmts))
    true
    (List.length cmts > 30);
  let all =
    List.concat_map
      (fun path ->
        match Lint.analyze_cmt path with
        | Ok r -> r.Lint.findings
        | Error e -> Alcotest.failf "%s" e)
      cmts
  in
  (match Lint.active all with
  | [] -> ()
  | fs -> Alcotest.failf "active findings in lib/:\n%s" (show_all fs));
  let sup = Lint.suppressed_of all in
  Alcotest.(check bool) "suppressed set non-empty" true (List.length sup > 0);
  List.iter
    (fun (file, rule) ->
      if
        not
          (List.exists
             (fun (f : Lint.finding) -> contains f.Lint.file file && f.Lint.rule = rule)
             sup)
      then
        Alcotest.failf
          "no suppressed %s finding recorded in %s: either the annotation was \
           deleted together with the code it covered (update \
           documented_suppressions) or suppression tracking broke"
          (Lint.rule_name rule) file)
    documented_suppressions

(* ---- R8: domain-escape (per-file typedtree rule) ---- *)

let test_r8_fires_and_owned_is_load_bearing () =
  let without_owned =
    {|
let data = Array.make 4 0
let spin () =
  let d = Domain.spawn (fun () -> data.(0) <- 1) in
  Domain.join d
|}
  in
  let fs = analyze ~name:"fixture_r8.ml" without_owned in
  let r8 = List.filter (fun f -> f.Lint.rule = Lint.R8) (Lint.active fs) in
  (match r8 with
  | [ f ] ->
      Alcotest.(check bool) "names the captured value" true (contains f.Lint.msg "data");
      Alcotest.(check bool) "names the sink" true (contains f.Lint.msg "Domain.spawn")
  | fs -> Alcotest.failf "expected one active R8 finding, got:\n%s" (show_all fs));
  (* Same capture with the single-owner discipline documented: suppressed
     but recorded — deleting the annotation resurrects the finding above. *)
  let with_owned =
    {|
let data = Array.make 4 0
let spin () =
  let d = (Domain.spawn (fun () -> data.(0) <- 1) [@zygos.owned]) in
  Domain.join d
|}
  in
  let fs' = analyze ~name:"fixture_r8.ml" with_owned in
  Alcotest.(check int) "owned: nothing active" 0
    (List.length (List.filter (fun f -> f.Lint.rule = Lint.R8) (Lint.active fs')));
  Alcotest.(check bool) "owned: recorded as suppressed" true
    (List.exists (fun f -> f.Lint.rule = Lint.R8) (Lint.suppressed_of fs'))

(* ---- whole-program call graph (R6/R7) ---- *)

module Graph = Zygoscope_lib.Graph
module Report = Zygoscope_lib.Report

(* Typecheck a fixture and run the whole-program analysis on it alone. *)
let graph_of ?(name = "lib/fix.ml") code =
  let summaries, aliases =
    Lint.summarize_structure ~modname:"Fix" ~file:name (Lint.typecheck_string ~name code)
  in
  Graph.analyze ~aliases summaries

let check_graph_active what expected (r : Graph.result) =
  check_active what expected r.Graph.findings

let active_msgs (r : Graph.result) =
  List.map (fun f -> f.Lint.msg) (Lint.active r.Graph.findings)

let assert_some_msg what r sub =
  if not (List.exists (fun m -> contains m sub) (active_msgs r)) then
    Alcotest.failf "%s: no active finding mentions %S; got:\n%s" what sub
      (show_all (Lint.active r.Graph.findings))

let test_r6_def_site_fires () =
  let r = graph_of {|
let helper x = x + 1
let[@zygos.hot] root x = helper x
|} in
  check_graph_active "r6 def site" [ (Lint.R6, 2) ] r;
  (* the finding carries the shortest root-to-function trace *)
  assert_some_msg "r6 def site" r
    "Fix.helper is reachable from hot root Fix.root (Fix.root -> Fix.helper)"

let test_r6_clean_when_certified () =
  let r =
    graph_of {|
let[@zygos.hot] helper x = x + 1
let[@zygos.hot] root x = helper x
|}
  in
  check_graph_active "r6 certified" [] r;
  Alcotest.(check (list string)) "hot set" [ "Fix.helper"; "Fix.root" ] r.Graph.hot_set;
  Alcotest.(check (list (pair string int)))
    "per-root reachable sizes"
    [ ("Fix.helper", 1); ("Fix.root", 2) ]
    r.Graph.root_sizes

let test_r6_allow_cuts_propagation () =
  let r =
    graph_of
      {|
let helper x = x + 1
let[@zygos.hot] root x = (helper x [@zygos.allow "r6"])
|}
  in
  (* the edge is cut: helper never enters the hot set, no def-site
     finding — but the cut itself is recorded as a suppressed finding *)
  check_graph_active "r6 allow" [] r;
  Alcotest.(check (list string)) "hot set stops at the root" [ "Fix.root" ] r.Graph.hot_set;
  (match Lint.suppressed_of r.Graph.findings with
  | [ f ] ->
      Alcotest.(check bool) "edge cut recorded" true
        (contains f.Lint.msg "call edge out of Fix.root")
  | fs -> Alcotest.failf "expected one suppressed edge-cut, got:\n%s" (show_all fs))

let test_r6_alloc_in_transitive_callee () =
  let r =
    graph_of {|
let mk x = Some x
let mid x = mk x
let[@zygos.hot] root x = mid x
|}
  in
  (* def-site findings for both unannotated links plus the allocation
     inside the leaf, each carrying the full transitive trace *)
  check_graph_active "r6 alloc chain" [ (Lint.R6, 2); (Lint.R6, 2); (Lint.R6, 3) ] r;
  assert_some_msg "r6 alloc chain" r
    "constructor Some allocated in Fix.mk, reachable from hot root Fix.root \
     (Fix.root -> Fix.mid -> Fix.mk)"

let test_r6_unknown_callee () =
  let r = graph_of {|
let[@zygos.hot] apply f x = f x
|} in
  (match Lint.active r.Graph.findings with
  | [ f ] ->
      Alcotest.(check bool) "refuses to certify what it cannot see" true
        (contains f.Lint.msg "unknown callee")
  | fs -> Alcotest.failf "expected one unknown-callee finding, got:\n%s" (show_all fs));
  (* with the edge explicitly allowed the finding is only recorded *)
  let r' = graph_of {|
let[@zygos.hot] apply f x = (f x [@zygos.allow "r6"])
|} in
  check_graph_active "r6 unknown allowed" [] r';
  Alcotest.(check int) "recorded as suppressed" 1
    (List.length (Lint.suppressed_of r'.Graph.findings))

let test_r6_allocating_external () =
  let r = graph_of {|
let[@zygos.hot] mk n = Array.make n 0
|} in
  (match Lint.active r.Graph.findings with
  | [ f ] ->
      Alcotest.(check bool) "allocating external flagged" true
        (contains f.Lint.msg "allocating external caml_make_vect")
  | fs -> Alcotest.failf "expected one prim finding, got:\n%s" (show_all fs));
  (* the hot-alloc allow covers graph-level allocation findings too *)
  let r' =
    graph_of {|
let[@zygos.hot] mk n = (Array.make n 0 [@zygos.allow "hot-alloc"])
|}
  in
  check_graph_active "prim allowed" [] r';
  Alcotest.(check int) "recorded" 1 (List.length (Lint.suppressed_of r'.Graph.findings))

(* ---- call-graph resolution fixtures ---- *)

let test_graph_module_alias () =
  let r =
    graph_of
      {|
module Dep = struct
  let tick x = x + 1
end
module A = Dep
let[@zygos.hot] root x = A.tick x
|}
  in
  (* the call through the alias resolves to the definition inside Dep *)
  assert_some_msg "module alias" r "Fix.Dep.tick is reachable from hot root Fix.root"

let test_graph_functor_application () =
  let r =
    graph_of
      {|
module type S = sig
  val step : int -> int
end

module Make (M : S) = struct
  let run x = M.step x
end

module Inst = Make (struct
  let step x = x + 2
end)

let[@zygos.hot] root x = Inst.run x
|}
  in
  (* Inst.run resolves through the instantiation alias to the functor
     body; the call through the module parameter inside it is the top of
     the callee lattice and keeps the body uncertifiable *)
  assert_some_msg "functor app: body reached" r "Fix.Make.run is reachable from hot root Fix.root";
  assert_some_msg "functor app: parameter call is unknown" r "unknown callee"

let test_graph_partial_application () =
  let r =
    graph_of {|
let add a b = a + b
let mk a = add a
let[@zygos.hot] root a = mk a
|}
  in
  assert_some_msg "partial app: callee reached" r "Fix.mk is reachable from hot root Fix.root";
  assert_some_msg "partial app: closure alloc surfaced" r "partial application (closure)"

let test_graph_mutual_recursion () =
  (* propagation terminates on cycles and flags each link exactly once *)
  let r =
    graph_of
      {|
let rec even n = if n = 0 then true else odd (n - 1)
and odd n = if n = 0 then false else even (n - 1)
let[@zygos.hot] parity n = even n
|}
  in
  check_graph_active "mutual recursion" [ (Lint.R6, 2); (Lint.R6, 3) ] r;
  assert_some_msg "even flagged" r "Fix.even is reachable from hot root Fix.parity";
  assert_some_msg "odd flagged" r "Fix.odd is reachable from hot root Fix.parity"

(* ---- hand-built summaries: cross-unit aliasing and R7 ---- *)

let mk_call ?(ret_float = false) ?(arg_float = false) ?(allows = []) ~line callee =
  {
    Lint.cs_line = line;
    cs_col = 0;
    cs_callee = callee;
    cs_ret_float = ret_float;
    cs_arg_float = arg_float;
    cs_allows = allows;
  }

let mk_sum ?(hot = false) ?(calls = []) ?(allocs = []) ~file ~line name =
  {
    Lint.fs_name = name;
    fs_file = file;
    fs_line = line;
    fs_hot = hot;
    fs_calls = calls;
    fs_allocs = allocs;
  }

let test_graph_cross_unit_alias () =
  (* a functor instantiation exported by one compilation unit resolves
     call sites in another *)
  let summaries =
    [
      mk_sum ~hot:true ~file:"lib/a.ml" ~line:1 "A.caller"
        ~calls:[ mk_call ~line:2 (Lint.Callee "Core.Q.f") ];
      mk_sum ~file:"lib/b.ml" ~line:5 "Core.Impl.f";
    ]
  in
  let r = Graph.analyze ~aliases:[ ("Core.Q", "Core.Impl") ] summaries in
  (match Lint.active r.Graph.findings with
  | [ f ] ->
      Alcotest.(check bool) "resolved through the alias" true
        (contains f.Lint.msg "Core.Impl.f is reachable from hot root A.caller")
  | fs -> Alcotest.failf "expected one def-site finding, got:\n%s" (show_all fs))

let r7_of ?(ret_float = true) ?(arg_float = false) ?(allows = []) ~callee_file callee_name =
  let summaries =
    [
      mk_sum ~hot:true ~file:"lib/a.ml" ~line:1 "A.caller"
        ~calls:[ mk_call ~ret_float ~arg_float ~allows ~line:2 (Lint.Callee callee_name) ];
      mk_sum ~hot:true ~file:callee_file ~line:1 callee_name;
    ]
  in
  Graph.analyze summaries

let test_r7_cross_unit_float () =
  let r = r7_of ~callee_file:"lib/b.ml" "B.f" in
  (match Lint.active r.Graph.findings with
  | [ f ] ->
      Alcotest.(check bool) "is R7" true (f.Lint.rule = Lint.R7);
      Alcotest.(check bool) "names the boundary" true
        (contains f.Lint.msg "bare float returned across the A.caller -> B.f call boundary")
  | fs -> Alcotest.failf "expected one R7 finding, got:\n%s" (show_all fs));
  (* an argument crossing is worded differently *)
  let r = r7_of ~ret_float:false ~arg_float:true ~callee_file:"lib/b.ml" "B.f" in
  (match Lint.active r.Graph.findings with
  | [ f ] -> Alcotest.(check bool) "passed across" true (contains f.Lint.msg "passed across")
  | fs -> Alcotest.failf "expected one R7 arg finding, got:\n%s" (show_all fs))

let test_r7_boundaries_and_suppression () =
  (* same compilation unit: unboxed across the call, no finding *)
  check_active "r7 same file" [] (r7_of ~callee_file:"lib/a.ml" "A.g").Graph.findings;
  (* the keyed hand-off entry points are the sanctioned boundary *)
  check_active "r7 sanctioned" []
    (r7_of ~callee_file:"lib/b.ml" "B.pop_into").Graph.findings;
  check_active "r7 sanctioned keyed" []
    (r7_of ~callee_file:"lib/b.ml" "Engine.Sim.schedule_fn_keyed").Graph.findings;
  (* [@zygos.allow "r7"] downgrades to suppressed-but-recorded *)
  let r = r7_of ~allows:[ Lint.R7 ] ~callee_file:"lib/b.ml" "B.f" in
  check_active "r7 allowed" [] r.Graph.findings;
  Alcotest.(check int) "recorded" 1 (List.length (Lint.suppressed_of r.Graph.findings))

let test_r7_only_in_hot_set () =
  (* a cold caller may box floats at will: only the hot set is scanned *)
  let summaries =
    [
      mk_sum ~file:"lib/a.ml" ~line:1 "A.cold"
        ~calls:[ mk_call ~ret_float:true ~line:2 (Lint.Callee "B.f") ];
      mk_sum ~file:"lib/b.ml" ~line:1 "B.f";
    ]
  in
  check_active "r7 cold" [] (Graph.analyze summaries).Graph.findings

(* ---- qcheck: the propagated hot set is a fixed point ---- *)

(* Annotating exactly the functions the analysis says are hot-reachable
   must converge: re-running on the annotated program reproduces the same
   hot set and leaves no reachable-but-unannotated findings. This is the
   contract that makes R6 fixes terminate for users. *)
let hot_fixed_point_prop =
  QCheck.Test.make ~count:200 ~name:"R6 hot set is a fixed point"
    QCheck.(pair (small_list (pair small_nat small_nat)) (small_list small_nat))
    (fun (edges, hots) ->
      let n = 8 in
      let name i = Printf.sprintf "Q.f%d" i in
      let calls = Array.make n [] in
      List.iter
        (fun (a, b) ->
          let a = a mod n and b = b mod n in
          calls.(a) <- mk_call ~line:(b + 1) (Lint.Callee (name b)) :: calls.(a))
        edges;
      let sums =
        List.init n (fun i ->
            mk_sum
              ~hot:(List.exists (fun h -> h mod n = i) hots)
              ~file:"lib/q.ml" ~line:(i + 1) ~calls:calls.(i) (name i))
      in
      let r1 = Graph.analyze sums in
      let sums' =
        List.map
          (fun s ->
            if List.mem s.Lint.fs_name r1.Graph.hot_set then { s with Lint.fs_hot = true }
            else s)
          sums
      in
      let r2 = Graph.analyze sums' in
      r2.Graph.hot_set = r1.Graph.hot_set
      && List.for_all
           (fun (f : Lint.finding) ->
             not (contains f.Lint.msg "is reachable from hot root"))
           (Lint.active r2.Graph.findings))

(* ---- whole-program runs over the built library tree ---- *)

let lib_root () =
  match List.find_opt Sys.file_exists [ "../lib"; "_build/default/lib" ] with
  | Some r -> r
  | None -> Alcotest.failf "built library tree not found (cwd %s)" (Sys.getcwd ())

let lib_summaries () =
  let cmts = Lint.find_cmts [] (lib_root ()) in
  List.fold_left
    (fun (sums, als) path ->
      match Lint.analyze_cmt path with
      | Ok r -> (r.Lint.summaries @ sums, r.Lint.aliases @ als)
      | Error e -> Alcotest.failf "%s" e)
    ([], []) cmts

let test_whole_program_certified () =
  let sums, aliases = lib_summaries () in
  let r = Graph.analyze ~aliases sums in
  (match Lint.active r.Graph.findings with
  | [] -> ()
  | fs -> Alcotest.failf "active graph findings in lib/:\n%s" (show_all fs));
  Alcotest.(check bool)
    (Printf.sprintf "substantial root count (%d)" r.Graph.stats.Graph.gs_roots)
    true
    (r.Graph.stats.Graph.gs_roots > 100);
  Alcotest.(check bool) "hot set covers the roots" true
    (r.Graph.stats.Graph.gs_hot >= r.Graph.stats.Graph.gs_roots);
  Alcotest.(check bool) "edges resolved" true (r.Graph.stats.Graph.gs_edges > 1000)

(* The certification is load-bearing: deleting a single [@zygos.hot]
   from lib/engine/sim.ml surfaces an active R6 finding whose message
   names the hot root and the transitive trace — exactly what would fail
   [dune build @lint]. *)
let test_hot_deletion_in_sim_breaks_certification () =
  let sums, aliases = lib_summaries () in
  let sim_hot =
    List.filter
      (fun s -> s.Lint.fs_hot && contains s.Lint.fs_file "lib/engine/sim.ml")
      sums
    |> List.sort (fun a b -> compare a.Lint.fs_name b.Lint.fs_name)
  in
  Alcotest.(check bool) "sim.ml has hot roots" true (sim_hot <> []);
  let broken_by =
    List.filter
      (fun victim ->
        let sums' =
          List.map
            (fun s ->
              if s.Lint.fs_name = victim.Lint.fs_name && s.Lint.fs_file = victim.Lint.fs_file
              then { s with Lint.fs_hot = false }
              else s)
            sums
        in
        let r = Graph.analyze ~aliases sums' in
        List.exists
          (fun f ->
            contains f.Lint.msg (victim.Lint.fs_name ^ " is reachable from hot root")
            && contains f.Lint.msg " -> ")
          (Lint.active r.Graph.findings))
      sim_hot
  in
  if broken_by = [] then
    Alcotest.failf
      "deleting [@zygos.hot] from any of the %d hot functions in sim.ml leaves the \
       gate green — the certification is not load-bearing"
      (List.length sim_hot)

(* Introducing one allocating call into a certified hot function is
   caught even when the function itself keeps its annotation. *)
let test_seeded_allocating_call_breaks_certification () =
  let sums, aliases = lib_summaries () in
  let victim =
    List.filter
      (fun s -> s.Lint.fs_hot && contains s.Lint.fs_file "lib/engine/sim.ml")
      sums
    |> List.sort (fun a b -> compare a.Lint.fs_name b.Lint.fs_name)
    |> function
    | v :: _ -> v
    | [] -> Alcotest.failf "no hot function in sim.ml to seed"
  in
  let sums' =
    List.map
      (fun s ->
        if s.Lint.fs_name = victim.Lint.fs_name && s.Lint.fs_file = victim.Lint.fs_file
        then
          {
            s with
            Lint.fs_calls =
              s.Lint.fs_calls
              @ [ mk_call ~line:999 (Lint.Callee_prim ("caml_make_vect", true)) ];
          }
        else s)
      sums
  in
  let r = Graph.analyze ~aliases sums' in
  let hits =
    List.filter
      (fun f -> contains f.Lint.msg "allocating external caml_make_vect on hot path from root")
      (Lint.active r.Graph.findings)
  in
  (match hits with
  | f :: _ ->
      Alcotest.(check bool) "finding lands in sim.ml" true
        (contains f.Lint.file "lib/engine/sim.ml")
  | [] -> Alcotest.failf "seeded allocating call not caught")

(* ---- report determinism, roundtrip, ratchet ---- *)

let test_report_deterministic () =
  let sums, aliases = lib_summaries () in
  let render sums =
    let r = Graph.analyze ~aliases sums in
    Report.to_string
      (Report.report_json
         ~active:(Lint.active r.Graph.findings)
         ~suppressed:(Lint.suppressed_of r.Graph.findings)
         ~graph:r)
  in
  (* byte-identical regardless of summary arrival order (-j reordering) *)
  Alcotest.(check string) "order-independent bytes" (render sums) (render (List.rev sums))

let test_report_roundtrip () =
  let sums, aliases = lib_summaries () in
  let r = Graph.analyze ~aliases sums in
  let j =
    Report.report_json
      ~active:(Lint.active r.Graph.findings)
      ~suppressed:(Lint.suppressed_of r.Graph.findings)
      ~graph:r
  in
  Alcotest.(check bool) "parse inverts to_string" true (Report.parse (Report.to_string j) = j)

let test_ratchet_detects_regressions () =
  let graph0 = Graph.analyze [] in
  let f_active =
    { Lint.file = "lib/x.ml"; line = 3; col = 0; rule = Lint.R6; msg = "boom"; suppressed = false }
  in
  let f_sup = { f_active with Lint.rule = Lint.R2; suppressed = true } in
  let report ~active ~suppressed = Report.report_json ~active ~suppressed ~graph:graph0 in
  let baseline = report ~active:[] ~suppressed:[ f_sup ] in
  let current = report ~active:[ f_active ] ~suppressed:[] in
  let violations = Report.ratchet ~baseline ~current in
  Alcotest.(check int) "two violations" 2 (List.length violations);
  Alcotest.(check bool) "new finding reported" true
    (List.exists (fun v -> contains v "new finding") violations);
  Alcotest.(check bool) "vanished suppression reported" true
    (List.exists (fun v -> contains v "suppression vanished") violations);
  (* the ratchet holds against itself *)
  Alcotest.(check int) "self-ratchet clean" 0
    (List.length (Report.ratchet ~baseline:current ~current));
  (* pure line drift does not churn: keys exclude line/col *)
  let drifted = report ~active:[ { f_active with Lint.line = 99 } ] ~suppressed:[] in
  Alcotest.(check int) "line drift tolerated" 0
    (List.length (Report.ratchet ~baseline:current ~current:drifted))

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "R1 fires" `Quick test_r1_fires;
          Alcotest.test_case "R1 scope off" `Quick test_r1_scoped_off_outside_deterministic_dirs;
          Alcotest.test_case "R1 scope on" `Quick test_r1_active_in_deterministic_dirs;
          Alcotest.test_case "R2 fires" `Quick test_r2_fires;
          Alcotest.test_case "R2 arity regression" `Quick test_r2_arity_regression;
          Alcotest.test_case "R3 fires" `Quick test_r3_fires;
          Alcotest.test_case "R3 shadow" `Quick test_r3_local_shadow_ignored;
          Alcotest.test_case "R4 fires" `Quick test_r4_fires;
          Alcotest.test_case "R4 scope off" `Quick test_r4_off_by_default_elsewhere;
          Alcotest.test_case "R5 fires" `Quick test_r5_fires;
          Alcotest.test_case "R8 fires, owned is load-bearing" `Quick
            test_r8_fires_and_owned_is_load_bearing;
        ] );
      ( "callgraph",
        [
          Alcotest.test_case "R6 def site" `Quick test_r6_def_site_fires;
          Alcotest.test_case "R6 certified chain" `Quick test_r6_clean_when_certified;
          Alcotest.test_case "R6 allow cuts propagation" `Quick test_r6_allow_cuts_propagation;
          Alcotest.test_case "R6 transitive alloc" `Quick test_r6_alloc_in_transitive_callee;
          Alcotest.test_case "R6 unknown callee" `Quick test_r6_unknown_callee;
          Alcotest.test_case "R6 allocating external" `Quick test_r6_allocating_external;
          Alcotest.test_case "module alias" `Quick test_graph_module_alias;
          Alcotest.test_case "functor application" `Quick test_graph_functor_application;
          Alcotest.test_case "partial application" `Quick test_graph_partial_application;
          Alcotest.test_case "mutual recursion" `Quick test_graph_mutual_recursion;
          Alcotest.test_case "cross-unit alias" `Quick test_graph_cross_unit_alias;
          Alcotest.test_case "R7 cross-unit float" `Quick test_r7_cross_unit_float;
          Alcotest.test_case "R7 boundaries + suppression" `Quick
            test_r7_boundaries_and_suppression;
          Alcotest.test_case "R7 only in hot set" `Quick test_r7_only_in_hot_set;
          QCheck_alcotest.to_alcotest hot_fixed_point_prop;
        ] );
      ( "suppressions",
        [
          Alcotest.test_case "allow is load-bearing" `Quick
            test_allow_suppresses_and_is_load_bearing;
          Alcotest.test_case "floating allow" `Quick test_floating_allow_covers_file;
          Alcotest.test_case "hot-alloc allow" `Quick test_hot_alloc_allow;
          Alcotest.test_case "rule selection" `Quick test_rule_selection;
          Alcotest.test_case "rule names" `Quick test_unknown_rule_names;
          Alcotest.test_case "duplicate tokens rejected" `Quick
            test_split_rules_rejects_duplicates;
          Alcotest.test_case "warnings at attribute location" `Quick
            test_allow_warnings_at_attribute_location;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "lib/ tree clean" `Quick test_lib_tree_clean;
          Alcotest.test_case "whole-program certified" `Quick test_whole_program_certified;
          Alcotest.test_case "hot deletion breaks the gate" `Quick
            test_hot_deletion_in_sim_breaks_certification;
          Alcotest.test_case "seeded alloc breaks the gate" `Quick
            test_seeded_allocating_call_breaks_certification;
          Alcotest.test_case "report bytes deterministic" `Quick test_report_deterministic;
          Alcotest.test_case "report parse roundtrip" `Quick test_report_roundtrip;
          Alcotest.test_case "ratchet detects regressions" `Quick
            test_ratchet_detects_regressions;
        ] );
    ]

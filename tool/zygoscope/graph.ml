(* Whole-program call-graph analysis over Lint.fsummary values.

   Hotness is a *certification*: every function reachable from a
   [@zygos.hot] root through resolved call edges must itself carry the
   annotation (R2 then audits each annotated body per-file). The
   propagation lattice is deliberately one-sided — a call edge either
   resolves to a summarized function (Known), to a primitive with a
   known allocation bit, stays inside the current summary (Local), or
   is Unknown (computed head, call through a parameter, @@/|>). An
   Unknown edge out of the hot set cannot be followed, so it is itself
   an R6 finding: the analysis refuses to certify what it cannot see.

   Findings emitted here:
   - R6 at a definition site: function reachable from a hot root but
     not annotated [@zygos.hot]; the message carries the shortest
     root-to-function trace (ties broken toward the lexicographically
     first root) so the fix is actionable.
   - R6 at a call site: unknown callee / unsummarized external /
     allocating external reached from the hot set.
   - R6 at an allocation site inside a reachable-but-unannotated
     function (annotated bodies are R2's job; no double reporting).
   - R6 suppressed finding at a call edge carrying
     [@zygos.allow "r6"]: the edge is recorded and propagation stops.
   - R7 at a call site in the hot set where a bare float crosses a
     compilation-unit boundary (result or argument), outside the keyed
     key_buffer/pop_into hand-off discipline.

   Everything is sorted before being returned, so output is
   deterministic regardless of summary arrival order or -j. *)

type stats = {
  gs_functions : int;
  gs_edges : int;
  gs_unknown : int;  (* unknown-callee edges across the whole graph *)
  gs_roots : int;  (* [@zygos.hot] annotated functions *)
  gs_hot : int;  (* size of the propagated hot set *)
}

type result = {
  findings : Lint.finding list;
  root_sizes : (string * int) list;  (* per root, reachable-set size, sorted *)
  hot_set : string list;  (* sorted canonical names *)
  stats : stats;
}

(* The PR 8 keyed hand-off: float times move through a one-element
   key_buffer, and these entry points are the sanctioned boundary. *)
let r7_sanctioned =
  [ "pop_into"; "add_key"; "schedule_fn_keyed" ]

let is_sanctioned_handoff name =
  List.exists
    (fun s ->
      name = s
      || Lint.ends_with ~suffix:("." ^ s) name)
    r7_sanctioned

let node_key (s : Lint.fsummary) = s.fs_name ^ "\x00" ^ s.fs_file

(* Stdlib functions that are let-defined (so carry no primitive
   allocation bit and no summary) but are known not to allocate. A
   float-returning use still boxes its result, so the pure-list is
   consulted only when the call's result is not a bare float. *)
let known_pure =
  [
    "min"; "max"; "abs"; "lnot"; "succ"; "pred";
    "Int.min"; "Int.max"; "Int.abs"; "Bool.not";
    "Array.blit"; "Array.fill"; "Bytes.blit"; "Bytes.fill";
    "Float.is_nan"; "Float.is_integer";
    "Atomic.get"; "Atomic.set"; "Atomic.incr"; "Atomic.decr";
    "Atomic.fetch_and_add"; "Atomic.compare_and_set"; "Atomic.exchange";
    "Option.is_some"; "Option.is_none"; "Queue.is_empty"; "Queue.length";
  ]

(* Rewrite every resolved callee through the global module-alias list
   ("Systems.Zygos.Sched.poll" -> "Core.Sched.poll") so a functor
   instantiation or module alias in one compilation unit resolves from
   call sites in another. Longest key wins; fuel bounds alias chains. *)
let canonicalize ~(aliases : (string * string) list) summaries =
  if aliases = [] then summaries
  else
    let aliases =
      List.sort
        (fun (a, _) (b, _) -> compare (String.length b) (String.length a))
        aliases
    in
    let canon name =
      let rec go fuel name =
        if fuel = 0 then name
        else
          match
            List.find_opt
              (fun (key, _) ->
                name = key
                || String.length name > String.length key
                   && String.sub name 0 (String.length key + 1) = key ^ ".")
              aliases
          with
          | Some (key, repl) when repl <> key ->
              go (fuel - 1)
                (repl
                ^ String.sub name (String.length key)
                    (String.length name - String.length key))
          | _ -> name
      in
      go 8 name
    in
    List.map
      (fun (s : Lint.fsummary) ->
        {
          s with
          Lint.fs_calls =
            List.map
              (fun (c : Lint.call_site) ->
                match c.cs_callee with
                | Lint.Callee n -> { c with Lint.cs_callee = Lint.Callee (canon n) }
                | _ -> c)
              s.fs_calls;
        })
      summaries

let compare_finding (a : Lint.finding) (b : Lint.finding) =
  let c = compare a.file b.file in
  if c <> 0 then c
  else
    let c = compare a.line b.line in
    if c <> 0 then c
    else
      let c = compare a.col b.col in
      if c <> 0 then c
      else
        let c = compare (Lint.rule_code a.rule) (Lint.rule_code b.rule) in
        if c <> 0 then c else compare a.msg b.msg

let build_nodes (summaries : Lint.fsummary list) =
  let nodes : (string, Lint.fsummary list) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (s : Lint.fsummary) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt nodes s.fs_name) in
      (* same name + same file = shadowing rebind: later definition wins *)
      let prev = List.filter (fun (p : Lint.fsummary) -> p.fs_file <> s.fs_file) prev in
      Hashtbl.replace nodes s.fs_name (s :: prev))
    summaries;
  nodes

(* Resolve a callee name from [file]'s point of view: a same-file
   definition shadows a colliding name from another compilation unit
   (two executables both define Dune.Exe.Main.main). *)
let lookup nodes ~file name =
  match Hashtbl.find_opt nodes name with
  | None | Some [] -> None
  | Some [ s ] -> Some s
  | Some l -> (
      match List.find_opt (fun (s : Lint.fsummary) -> s.fs_file = file) l with
      | Some s -> Some s
      | None ->
          Some
            (List.hd
               (List.sort
                  (fun (a : Lint.fsummary) b -> compare a.fs_file b.fs_file)
                  l)))

let sorted_roots (summaries : Lint.fsummary list) =
  List.filter (fun (s : Lint.fsummary) -> s.fs_hot) summaries
  |> List.sort (fun (a : Lint.fsummary) b ->
         let c = compare a.fs_name b.fs_name in
         if c <> 0 then c else compare a.fs_file b.fs_file)

(* Multi-source BFS from the sorted roots. Returns the hot set as a
   table keyed by [node_key], each entry holding the shortest trace
   (root first, the member itself last). FIFO order plus sorted-root
   seeding makes the depth/root tie-breaking deterministic. An edge
   carrying [@zygos.allow "r6"] is not followed. *)
let propagate nodes (roots : Lint.fsummary list) =
  let best : (string, Lint.fsummary * string list) Hashtbl.t =
    Hashtbl.create 256
  in
  let q = Queue.create () in
  List.iter
    (fun (r : Lint.fsummary) ->
      let k = node_key r in
      if not (Hashtbl.mem best k) then begin
        Hashtbl.replace best k (r, [ r.fs_name ]);
        Queue.add (r, [ r.fs_name ]) q
      end)
    roots;
  while not (Queue.is_empty q) do
    let (f : Lint.fsummary), trace = Queue.pop q in
    List.iter
      (fun (c : Lint.call_site) ->
        if not (List.memq Lint.R6 c.cs_allows) then
          match c.cs_callee with
          | Lint.Callee name -> (
              match lookup nodes ~file:f.fs_file name with
              | Some g ->
                  let k = node_key g in
                  if not (Hashtbl.mem best k) then begin
                    let tr = trace @ [ g.fs_name ] in
                    Hashtbl.replace best k (g, tr);
                    Queue.add (g, tr) q
                  end
              | None -> ())
          | Lint.Callee_prim _ | Lint.Callee_local | Lint.Callee_unknown _ -> ())
      f.fs_calls
  done;
  best

(* Reachable-set size from a single root, same edge rules. *)
let reachable_count nodes (root : Lint.fsummary) =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let q = Queue.create () in
  Hashtbl.replace seen (node_key root) ();
  Queue.add root q;
  while not (Queue.is_empty q) do
    let (f : Lint.fsummary) = Queue.pop q in
    List.iter
      (fun (c : Lint.call_site) ->
        if not (List.memq Lint.R6 c.cs_allows) then
          match c.cs_callee with
          | Lint.Callee name -> (
              match lookup nodes ~file:f.fs_file name with
              | Some g ->
                  let k = node_key g in
                  if not (Hashtbl.mem seen k) then begin
                    Hashtbl.replace seen k ();
                    Queue.add g q
                  end
              | None -> ())
          | _ -> ())
      f.fs_calls
  done;
  Hashtbl.length seen

let trace_str trace = String.concat " -> " trace

let finding file line col rule msg suppressed =
  { Lint.file; line; col; rule; msg; suppressed }

let analyze ?(aliases = []) (summaries : Lint.fsummary list) =
  let summaries = canonicalize ~aliases summaries in
  let nodes = build_nodes summaries in
  let roots = sorted_roots summaries in
  let best = propagate nodes roots in
  let hot_members =
    Hashtbl.fold (fun _ v acc -> v :: acc) best []
    |> List.sort (fun ((a : Lint.fsummary), _) (b, _) ->
           let c = compare a.fs_file b.fs_file in
           if c <> 0 then c
           else
             let c = compare a.fs_line b.fs_line in
             if c <> 0 then c else compare a.fs_name b.fs_name)
  in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let edges = ref 0 and unknown_edges = ref 0 in
  List.iter
    (fun (s : Lint.fsummary) ->
      List.iter
        (fun (c : Lint.call_site) ->
          incr edges;
          match c.cs_callee with
          | Lint.Callee_unknown _ -> incr unknown_edges
          | _ -> ())
        s.fs_calls)
    summaries;
  List.iter
    (fun ((f : Lint.fsummary), trace) ->
      let root = List.hd trace in
      let tr = trace_str trace in
      (* (a) reachable but unannotated: definition-site finding *)
      if not f.fs_hot then
        add
          (finding f.fs_file f.fs_line 0 Lint.R6
             (Printf.sprintf
                "%s is reachable from hot root %s (%s) but is not annotated \
                 [@zygos.hot]"
                f.fs_name root tr)
             false);
      (* (c) allocations inside reachable-but-unannotated bodies;
         annotated bodies are audited per-file by R2 *)
      if not f.fs_hot then
        List.iter
          (fun (a : Lint.alloc_site) ->
            add
              (finding f.fs_file a.al_line a.al_col Lint.R6
                 (Printf.sprintf
                    "%s allocated in %s, reachable from hot root %s (%s)"
                    a.al_desc f.fs_name root tr)
                 a.al_allowed))
          f.fs_allocs;
      (* (b) edges out of the hot set *)
      List.iter
        (fun (c : Lint.call_site) ->
          if List.memq Lint.R6 c.cs_allows then
            add
              (finding f.fs_file c.cs_line c.cs_col Lint.R6
                 (Printf.sprintf
                    "call edge out of %s suppressed by [@zygos.allow \"r6\"]; \
                     hot-path propagation from root %s stops here"
                    f.fs_name root)
                 true)
          else
            match c.cs_callee with
            | Lint.Callee name -> (
                match lookup nodes ~file:f.fs_file name with
                | Some _ -> () (* followed by propagation *)
                | None ->
                    if not (List.mem name known_pure && not c.cs_ret_float) then
                      add
                        (finding f.fs_file c.cs_line c.cs_col Lint.R6
                           (Printf.sprintf
                              "call to %s (no summary; assumed allocating) on \
                               hot path from root %s (%s)"
                              name root tr)
                           (List.memq Lint.R2 c.cs_allows)))
            | Lint.Callee_prim (name, allocates) ->
                if allocates then
                  add
                    (finding f.fs_file c.cs_line c.cs_col Lint.R6
                       (Printf.sprintf
                          "allocating external %s on hot path from root %s (%s)"
                          name root tr)
                       (List.memq Lint.R2 c.cs_allows))
            | Lint.Callee_local -> ()
            | Lint.Callee_unknown reason ->
                add
                  (finding f.fs_file c.cs_line c.cs_col Lint.R6
                     (Printf.sprintf
                        "unknown callee (%s) on hot path from root %s (%s)"
                        reason root tr)
                     false))
        f.fs_calls;
      (* R7: bare float crossing a compilation-unit boundary *)
      List.iter
        (fun (c : Lint.call_site) ->
          match c.cs_callee with
          | Lint.Callee name when c.cs_ret_float || c.cs_arg_float -> (
              match lookup nodes ~file:f.fs_file name with
              | Some g
                when g.fs_file <> f.fs_file && not (is_sanctioned_handoff name)
                ->
                  add
                    (finding f.fs_file c.cs_line c.cs_col Lint.R7
                       (Printf.sprintf
                          "bare float %s the %s -> %s call boundary (boxed at \
                           the call); use the keyed key_buffer/pop_into \
                           hand-off"
                          (if c.cs_ret_float then "returned across"
                           else "passed across")
                          f.fs_name name)
                       (List.memq Lint.R7 c.cs_allows))
              | _ -> ())
          | _ -> ())
        f.fs_calls)
    hot_members;
  let root_sizes =
    List.map
      (fun (r : Lint.fsummary) -> (r.fs_name, reachable_count nodes r))
      roots
  in
  let hot_set =
    List.map (fun ((s : Lint.fsummary), _) -> s.fs_name) hot_members
    |> List.sort_uniq compare
  in
  {
    findings = List.sort compare_finding !findings;
    root_sizes;
    hot_set;
    stats =
      {
        gs_functions = List.length summaries;
        gs_edges = !edges;
        gs_unknown = !unknown_edges;
        gs_roots = List.length roots;
        gs_hot = List.length hot_members;
      };
  }

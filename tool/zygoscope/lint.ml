(* zygoscope — a typedtree-based invariant linter for the ZygOS repro.

   The repository's three load-bearing guarantees — byte-identical
   figures across seeds/queues/-j, zero minor words per event on the
   simulation hot path, and safe OCaml 5 domain parallelism — are
   enforced dynamically by goldens and test_perf_guard.ml. This pass is
   their static counterpart: it walks the .cmt typedtrees dune already
   produces and rejects whole *classes* of regressions at build time,
   the same shape of guarantee ZygOS itself argues for (eliminate
   interference up front rather than measure it after the fact).

   Rules (each individually toggleable):

   - R1 "determinism": wall-clock and nondeterminism primitives
     (Unix.gettimeofday / Unix.time / Sys.time, stdlib Random.*,
     Hashtbl.hash*, Hashtbl.create ~random:true) and environment reads
     (Sys.getenv / Sys.getenv_opt: an input the seed does not fix; run
     options arrive as CLI flags) are banned inside the
     simulation-deterministic libraries (lib/{engine,systems,models,net,
     stats,experiments,cluster}) and the deterministic executables
     (bin/, examples/). lib/runtime (the domain pool, which runs no
     simulation) and bench/ are allowlisted by design (legitimate timing sites
     in bin/ and examples/ carry [@zygos.allow "determinism"]).
   - R2 "hot-alloc": inside functions annotated [@zygos.hot], typedtree
     nodes that allocate are flagged — closure/fun introduction, partial
     application, tuple/record/variant/array construction, lazy/letop,
     and let-bound floats captured by an inner closure (which forces the
     float into a box). Branches that statically raise (invalid_arg /
     failwith / raise / assert false) are cold paths and exempt.
   - R3 "poly-compare": polymorphic =, <>, compare, min, max and
     List.{mem,assoc,assoc_opt,mem_assoc,remove_assoc} at types the
     compiler cannot prove immediate (for directly applied =/<>/compare,
     types it cannot specialize: int/char/bool/unit plus float/string/
     bytes/int32/int64/nativeint) are banned everywhere in lib/.
   - R4 "domain-safety": in code that touches the domain layer
     (lib/runtime, plus any module that submits work to Runtime.Pool),
     non-Atomic mutable record fields and ref cells
     are flagged unless the declaration carries [@zygos.owned],
     documenting single-owner (or lock-protected) discipline.
   - R5 "obj": Obj.* is banned outright everywhere in lib/.
   - R6 "transitive-hot" (whole-program, see {!Graph}): hotness
     propagates from [@zygos.hot] roots through the call graph; every
     reachable function must itself be annotated (so R2 audits its
     body), and any reachable allocation or unknown-callee edge is a
     finding carrying a shortest-path trace from the hot root.
   - R7 "float-boxing" (whole-program, see {!Graph}): a float crossing
     a call boundary between two compilation units inside the hot set
     is boxed by the calling convention; the flat float-array hand-off
     (Sim.key_buffer / Heap.pop_into) is the sanctioned alternative.
   - R8 "domain-escape": a value captured by a closure handed to the
     domain layer (Runtime.Pool.run, Experiments.Sweep.run*,
     Domain.spawn) whose type transitively
     reaches non-Atomic mutable state is flagged unless the capture or
     the type carries [@zygos.owned].

   Suppression: [@zygos.allow "<rules>"] on an expression, value
   binding, type declaration or record label suppresses the named rules
   (comma/space separated; "all" suppresses everything) for that
   subtree; [@@@zygos.allow "<rules>"] suppresses for the rest of the
   file. [@zygos.owned "<why>"] is R4's dedicated suppression.
   Suppressed findings are still *recorded* (with [suppressed = true]),
   so tests can prove that deleting any one annotation would turn the
   site into a hard failure.

   Rules R1–R5 and R8 are per-file. R6 and R7 are whole-program: this
   module additionally extracts a per-function summary (allocations,
   call edges, float crossings) from every typedtree it sees, and
   {!Graph} stitches the summaries of all loaded .cmt files into an
   interprocedural call graph — resolving value paths through module
   aliases and functor applications, with a conservative unknown-callee
   lattice for higher-order calls — over which hotness propagates from
   every [@zygos.hot] root. The dynamic perf guard still backstops
   whole-path behavior; the graph makes the static gate transitive. *)

type rule = R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8

let all_rules = [ R1; R2; R3; R4; R5; R6; R7; R8 ]

let rule_code = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"
  | R7 -> "R7"
  | R8 -> "R8"

let rule_name = function
  | R1 -> "determinism"
  | R2 -> "hot-alloc"
  | R3 -> "poly-compare"
  | R4 -> "domain-safety"
  | R5 -> "obj"
  | R6 -> "transitive-hot"
  | R7 -> "float-boxing"
  | R8 -> "domain-escape"

let rule_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "r1" | "determinism" -> Some [ R1 ]
  | "r2" | "hot-alloc" | "hot_alloc" | "hotalloc" -> Some [ R2 ]
  | "r3" | "poly-compare" | "poly_compare" | "polycompare" -> Some [ R3 ]
  | "r4" | "domain-safety" | "domain_safety" | "domainsafety" -> Some [ R4 ]
  | "r5" | "obj" -> Some [ R5 ]
  | "r6" | "transitive-hot" | "transitive_hot" | "transitivehot" -> Some [ R6 ]
  | "r7" | "float-boxing" | "float_boxing" | "floatboxing" -> Some [ R7 ]
  | "r8" | "domain-escape" | "domain_escape" | "domainescape" -> Some [ R8 ]
  | "all" -> Some all_rules
  | _ -> None

type finding = {
  file : string;
  line : int;
  col : int;
  rule : rule;
  msg : string;
  suppressed : bool;  (* an in-scope [@zygos.allow]/[@zygos.owned] covers it *)
}

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d:%d: %s[%s %s] %s" f.file f.line f.col
    (if f.suppressed then "(suppressed) " else "")
    (rule_code f.rule) (rule_name f.rule) f.msg

(* ---- attribute helpers ---- *)

let string_payload (attr : Parsetree.attribute) =
  match attr.attr_payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some s
  | _ -> None

(* Split an allow payload into rule tokens. Duplicate tokens (after
   normalization: "r2, R2" or "hot-alloc hot_alloc") are rejected — the
   second occurrence is reported through [dup] and dropped — so a stale
   doubled suppression cannot silently linger when one of its copies
   stops being load-bearing. *)
let split_rules ?(dup = fun _ -> ()) s =
  let seen = ref [] in
  String.split_on_char ',' s
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter (fun x -> String.trim x <> "")
  |> List.filter (fun tok ->
         let norm =
           match rule_of_string tok with
           | Some rs -> String.concat "+" (List.map rule_code rs)
           | None -> String.lowercase_ascii (String.trim tok)
         in
         if List.mem norm !seen then begin
           dup tok;
           false
         end
         else begin
           seen := norm :: !seen;
           true
         end)

(* Warnings about malformed suppression payloads carry the *attribute's*
   own location, not the location of the expression it hangs off — the
   fix site is the annotation itself. *)
let default_warn (loc : Location.t) msg =
  let p = loc.loc_start in
  Printf.eprintf "%s:%d:%d: %s\n" p.pos_fname p.pos_lnum (p.pos_cnum - p.pos_bol) msg

(* Rules suppressed by a zygos.allow / zygos.owned attribute list.
   Unknown rule names in an allow payload are reported loudly (to stderr,
   at the attribute's location) rather than silently ignored — a typo
   must not disable a suppression. *)
let allows_of_attributes ?(warn = default_warn) attrs =
  List.concat_map
    (fun (attr : Parsetree.attribute) ->
      match attr.attr_name.txt with
      | "zygos.allow" -> (
          match string_payload attr with
          | None ->
              warn attr.attr_loc
                "zygoscope: [@zygos.allow] without a string payload is ignored";
              []
          | Some s ->
              List.concat_map
                (fun tok ->
                  match rule_of_string tok with
                  | Some rs -> rs
                  | None ->
                      warn attr.attr_loc
                        (Printf.sprintf
                           "zygoscope: unknown rule %S in [@zygos.allow] payload" tok);
                      [])
                (split_rules
                   ~dup:(fun tok ->
                     warn attr.attr_loc
                       (Printf.sprintf
                          "zygoscope: duplicate rule %S in [@zygos.allow] payload" tok))
                   s))
      | "zygos.owned" -> [ R4; R8 ]
      | _ -> [])
    attrs

let has_attr name attrs =
  List.exists (fun (a : Parsetree.attribute) -> a.attr_name.txt = name) attrs

let has_hot attrs = has_attr "zygos.hot" attrs

(* ---- path / ident helpers ---- *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let ends_with ~suffix s =
  let n = String.length s and m = String.length suffix in
  m <= n && String.sub s (n - m) m = suffix

(* Normalize a resolved path name: Stdlib.Random.int -> Random.int, and
   the flattened Stdlib__Random.int spelling likewise. *)
let norm_path p =
  let s = Path.name p in
  let strip pre s =
    if String.length s > String.length pre && String.sub s 0 (String.length pre) = pre
    then String.sub s (String.length pre) (String.length s - String.length pre)
    else s
  in
  let s = strip "Stdlib__" (strip "Stdlib." s) in
  (* Stdlib__Random.int -> Random.int keeps the submodule dot intact. *)
  s

(* A bare value named [min]/[compare]/... only counts as the polymorphic
   stdlib operation when the path actually resolves into Stdlib — a local
   binding that shadows (or merely shares) the name must not fire R3/R4. *)
let in_stdlib p =
  let s = Path.name p in
  starts_with ~prefix:"Stdlib." s || starts_with ~prefix:"Stdlib__" s

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---- per-file analysis context ---- *)

type ctx = {
  file : string;
  enabled : rule list;
  r1_active : bool;
  r4_active : bool;
  mutable hot : int;  (* > 0 inside a [@zygos.hot] body *)
  mutable fun_depth : int;  (* > 0 inside any function body *)
  mutable stack : rule list list;  (* suppression scopes *)
  mutable file_allows : rule list;  (* from floating [@@@zygos.allow] *)
  mutable findings : finding list;
  (* Local value bindings seen so far, so R8 can look through an
     intermediate [let tasks = ... in Pool.run ~tasks]. Never popped:
     idents are stamp-unique within one typedtree, so stale entries
     cannot be confused with live ones. *)
  mutable let_env : (Ident.t * Typedtree.expression) list;
}

let rule_enabled ctx = function
  | R1 -> ctx.r1_active && List.memq R1 ctx.enabled
  | R4 -> ctx.r4_active && List.memq R4 ctx.enabled
  | r -> List.memq r ctx.enabled

let suppressed ctx r =
  List.memq r ctx.file_allows || List.exists (List.memq r) ctx.stack

(* [forced_suppressed] marks findings silenced by an annotation that is
   not lexically in scope at the report site — e.g. a [@zygos.owned] on
   the captured value's *type declaration* satisfying R8. *)
let report ?(forced_suppressed = false) ctx rule (loc : Location.t) msg =
  if rule_enabled ctx rule then
    let p = loc.loc_start in
    ctx.findings <-
      {
        file = ctx.file;
        line = p.pos_lnum;
        col = p.pos_cnum - p.pos_bol;
        rule;
        msg;
        suppressed = forced_suppressed || suppressed ctx rule;
      }
      :: ctx.findings

let push ctx allows = ctx.stack <- allows :: ctx.stack

let pop ctx = match ctx.stack with [] -> () | _ :: tl -> ctx.stack <- tl

(* ---- type classification (for R3) ---- *)

type imm = Immediate | Specialized | Boxed | Unknown

(* Conservative immediacy of [ty] as seen at a use site. Alias expansion
   and cross-module enum lookups go through the (possibly summary-only)
   environment; any failure degrades to Unknown, which is treated as
   not-provably-immediate. *)
let classify env ty =
  let env = try Envaux.env_of_only_summary env with _ -> env in
  let ty = try Ctype.expand_head env ty with _ -> ty in
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
      if
        Path.same p Predef.path_int || Path.same p Predef.path_char
        || Path.same p Predef.path_bool || Path.same p Predef.path_unit
      then Immediate
      else if
        Path.same p Predef.path_float || Path.same p Predef.path_string
        || Path.same p Predef.path_bytes || Path.same p Predef.path_int32
        || Path.same p Predef.path_int64 || Path.same p Predef.path_nativeint
      then Specialized
      else (
        try
          let decl = Env.find_type p env in
          match decl.Types.type_immediate with
          | Type_immediacy.Always -> Immediate
          | _ -> Boxed
        with _ -> Unknown)
  | Types.Tvar _ | Types.Tunivar _ -> Unknown
  | _ -> Boxed

let type_to_string ty = Format.asprintf "%a" Printtyp.type_expr ty

(* Polymorphic stdlib operations R3 watches, keyed by normalized path.
   [specializable] marks the ones the native compiler rewrites to a
   monomorphic primitive when directly applied at a known base type. *)
let poly_ops =
  [
    ("=", true);
    ("<>", true);
    ("compare", true);
    ("min", false);
    ("max", false);
    ("List.mem", false);
    ("List.assoc", false);
    ("List.assoc_opt", false);
    ("List.mem_assoc", false);
    ("List.remove_assoc", false);
  ]

let raising_fns = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg"; "exit" ]

(* ---- the walker ---- *)

let is_float_ty ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> Path.same p Predef.path_float
  | _ -> false

let is_arrow_ty ty =
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

let first_arrow_arg ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, a, _, _) -> Some a
  | _ -> None

(* Declared arity of a value's *generic* type scheme: arrows up to the
   first non-arrow head. A [Tvar] result instantiated to an arrow at a
   use site does not count, so [Array.unsafe_get fns i] with [fns : (int
   -> unit) array] is recognized as a full (non-allocating) application
   even though its result is a function. *)
let rec scheme_arity ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, _, rest, _) -> 1 + scheme_arity rest
  | Types.Tpoly (ty, _) -> scheme_arity ty
  | _ -> 0

let rec is_raising (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
      List.mem (norm_path p) raising_fns
  | Texp_assert ({ exp_desc = Texp_construct (_, { cstr_name = "false"; _ }, _); _ }, _)
    ->
      true
  | Texp_sequence (_, e2) -> is_raising e2
  | Texp_let (_, _, body) -> is_raising body
  | _ -> false

let expr_mentions_construct name (e : Typedtree.expression) =
  let found = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub x ->
          (match x.exp_desc with
          | Texp_construct (_, cd, _) when cd.cstr_name = name -> found := true
          | _ -> ());
          Tast_iterator.default_iterator.expr sub x);
    }
  in
  it.expr it e;
  !found

(* Does [id] occur underneath a [fun]/[function] inside [body]? If a
   let-bound float is captured by an inner closure it must be boxed. *)
let captured_by_closure id (body : Typedtree.expression) =
  let found = ref false in
  let depth = ref 0 in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub x ->
          match x.exp_desc with
          | Texp_function _ ->
              incr depth;
              Tast_iterator.default_iterator.expr sub x;
              decr depth
          | Texp_ident (Path.Pident i, _, _) when !depth > 0 && Ident.same i id ->
              found := true
          | _ -> Tast_iterator.default_iterator.expr sub x);
    }
  in
  it.expr it body;
  !found

(* Scan a structure for references that put the file in R4 scope: any
   mention of the Runtime.Pool module means closures from this file
   cross domain boundaries. *)
let references_domain_layer (str : Typedtree.structure) =
  let found = ref false in
  let check_name s =
    if contains_sub s "Runtime.Pool" || contains_sub s "Runtime__Pool" then found := true
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub x ->
          (match x.exp_desc with
          | Texp_ident (p, _, _) -> check_name (Path.name p)
          | _ -> ());
          Tast_iterator.default_iterator.expr sub x);
      module_expr =
        (fun sub m ->
          (match m.mod_desc with
          | Tmod_ident (p, _) -> check_name (Path.name p)
          | _ -> ());
          Tast_iterator.default_iterator.module_expr sub m);
    }
  in
  it.structure it str;
  !found

let atomic_like_types =
  [ "Atomic.t"; "Stdlib.Atomic.t"; "Mutex.t"; "Condition.t"; "Semaphore.Counting.t";
    "Semaphore.Binary.t" ]

let core_type_is_atomic (ct : Typedtree.core_type) =
  match ct.ctyp_desc with
  | Ttyp_constr (p, _, _) ->
      let n = Path.name p in
      List.exists (fun a -> n = a || contains_sub n a) atomic_like_types
  | _ -> false

(* ---- R8: domain-escape ---- *)

(* Call targets that move a closure onto another domain. Matching is by
   normalized-path suffix so both [Runtime.Pool.run] and a local
   [module Pool = Runtime.Pool] alias resolve. *)
let domain_sinks =
  [ "Pool.run"; "Sweep.run"; "Sweep.run_with_stats"; "Domain.spawn" ]

let is_domain_sink name =
  List.exists (fun s -> name = s || ends_with ~suffix:("." ^ s) name) domain_sinks

let has_owned_attr attrs = has_attr "zygos.owned" attrs

let type_name_is_atomic n =
  List.exists (fun a -> n = a || contains_sub n a) atomic_like_types

(* Can a value of type [ty] transitively reach non-Atomic mutable state?
   Type-directed, conservative in structure but with two documented
   blind spots: arrow types are opaque (a captured closure may itself
   capture mutable state — that closure's own capture site is audited
   where it is built), and abstract types without a visible declaration
   classify as safe. [Owned] means the reach is sanctioned by a
   [@zygos.owned] on the type or field declaration. *)
type reach = Reach_safe | Reach_owned | Reach_mut of string

let reach_join a b =
  match (a, b) with
  | Reach_mut _, _ -> a
  | _, Reach_mut _ -> b
  | Reach_owned, _ | _, Reach_owned -> Reach_owned
  | Reach_safe, Reach_safe -> Reach_safe

let type_reaches_mutable env ty =
  let visited = ref [] in
  let rec go depth ty =
    if depth > 5 then Reach_safe
    else
      let ty = try Ctype.expand_head env ty with _ -> ty in
      match Types.get_desc ty with
      | Types.Tarrow _ | Types.Tvar _ | Types.Tunivar _ | Types.Tpackage _ ->
          Reach_safe
      | Types.Tpoly (t, _) -> go depth t
      | Types.Ttuple tys ->
          List.fold_left (fun acc t -> reach_join acc (go (depth + 1) t)) Reach_safe tys
      | Types.Tconstr (p, args, _) ->
          let n = norm_path p in
          if type_name_is_atomic (Path.name p) then Reach_safe
          else if Path.same p Predef.path_array then Reach_mut "array"
          else if Path.same p Predef.path_bytes then Reach_mut "bytes"
          else if List.exists (Path.same p) !visited then Reach_safe
          else begin
            visited := p :: !visited;
            match Env.find_type p env with
            | exception _ -> Reach_safe
            | decl ->
                if has_owned_attr decl.Types.type_attributes then Reach_owned
                else begin
                  match decl.Types.type_kind with
                  | Types.Type_record (lds, _) ->
                      List.fold_left
                        (fun acc (ld : Types.label_declaration) ->
                          let r =
                            if ld.ld_mutable = Asttypes.Mutable then
                              if has_owned_attr ld.ld_attributes then Reach_owned
                              else
                                let field_atomic =
                                  match Types.get_desc ld.ld_type with
                                  | Types.Tconstr (fp, _, _) ->
                                      type_name_is_atomic (Path.name fp)
                                  | _ -> false
                                in
                                if field_atomic then Reach_safe
                                else
                                  Reach_mut
                                    (Printf.sprintf "mutable field %s of %s"
                                       (Ident.name ld.ld_id) n)
                            else go (depth + 1) ld.ld_type
                          in
                          reach_join acc r)
                        Reach_safe lds
                  | Types.Type_variant (cds, _) ->
                      List.fold_left
                        (fun acc (cd : Types.constructor_declaration) ->
                          let tys =
                            match cd.cd_args with
                            | Types.Cstr_tuple tys -> tys
                            | Types.Cstr_record lds ->
                                List.map (fun (l : Types.label_declaration) -> l.ld_type)
                                  lds
                          in
                          List.fold_left
                            (fun acc t -> reach_join acc (go (depth + 1) t))
                            acc tys)
                        Reach_safe cds
                  | Types.Type_abstract | Types.Type_open -> (
                      (* visible manifest was already chased by expand_head;
                         also look through the params we were given *)
                      match args with
                      | [] -> Reach_safe
                      | _ ->
                          List.fold_left
                            (fun acc t -> reach_join acc (go (depth + 1) t))
                            Reach_safe args)
                end
          end
      | _ -> Reach_safe
  in
  go 0 ty

(* Free variables of a closure: idents referenced inside [e] but bound
   outside it. Binders introduced anywhere within [e] (patterns of
   nested funs/lets/matches) are excluded by stamp, so shadowing cannot
   misattribute a capture. Deduplicated by name, first use wins. *)
let closure_free_vars (e : Typedtree.expression) =
  let bound : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let free = ref [] in
  let note_bound id = Hashtbl.replace bound (Ident.unique_name id) () in
  let it =
    {
      Tast_iterator.default_iterator with
      pat =
        (fun (type k) sub (p : k Typedtree.general_pattern) ->
          (match p.pat_desc with
          | Typedtree.Tpat_var (id, _) -> note_bound id
          | Typedtree.Tpat_alias (_, id, _) -> note_bound id
          | _ -> ());
          Tast_iterator.default_iterator.pat sub p);
      expr =
        (fun sub x ->
          (match x.exp_desc with
          | Typedtree.Texp_ident (Path.Pident id, _, _)
            when not (Hashtbl.mem bound (Ident.unique_name id)) ->
              if not (List.exists (fun (n, _, _, _) -> n = Ident.name id) !free) then
                free := (Ident.name id, id, x.exp_type, x.exp_loc) :: !free
          | _ -> ());
          Tast_iterator.default_iterator.expr sub x);
    }
  in
  it.expr it e;
  List.rev !free

(* Collect the outermost [fun] nodes within [e] — each is a closure whose
   captures must be audited when [e] flows to a domain sink. *)
let collect_closures (e : Typedtree.expression) =
  let out = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub x ->
          match x.exp_desc with
          | Typedtree.Texp_function _ -> out := x :: !out
          | _ -> Tast_iterator.default_iterator.expr sub x);
    }
  in
  it.expr it e;
  List.rev !out

let make_iterator ctx =
  let default = Tast_iterator.default_iterator in

  (* ---- rule bodies ---- *)
  let check_r1_ident loc name =
    let banned_exact = [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ] in
    let banned_hash = [ "Hashtbl.hash"; "Hashtbl.seeded_hash"; "Hashtbl.hash_param" ] in
    let banned_env = [ "Sys.getenv"; "Sys.getenv_opt" ] in
    if List.mem name banned_exact then
      report ctx R1 loc
        (Printf.sprintf "%s reads the wall clock inside a simulation-deterministic library"
           name)
    else if List.mem name banned_env then
      report ctx R1 loc
        (Printf.sprintf
           "%s reads the process environment, an input the seed does not fix; take a CLI flag"
           name)
    else if starts_with ~prefix:"Random." name then
      report ctx R1 loc
        (Printf.sprintf
           "stdlib %s is nondeterministically seeded state; use Engine.Rng streams" name)
    else if List.mem name banned_hash then
      report ctx R1 loc (Printf.sprintf "%s is not stable across OCaml versions" name)
  in
  let check_r5_ident loc name =
    if starts_with ~prefix:"Obj." name then
      report ctx R5 loc (Printf.sprintf "%s breaks the type system; banned outright" name)
  in
  (* [direct] = the operation is the head of a full application, where the
     compiler specializes =/<>/compare at known base types. *)
  let check_r3 loc name ~direct ~specializable env arg_ty =
    let verdict =
      match arg_ty with None -> Unknown | Some ty -> classify env ty
    in
    let ok =
      match verdict with
      | Immediate -> true
      | Specialized -> direct && specializable
      | Boxed | Unknown -> false
    in
    if not ok then
      let tys =
        match arg_ty with
        | Some ty -> Printf.sprintf " at type %s" (type_to_string ty)
        | None -> ""
      in
      report ctx R3 loc
        (Printf.sprintf
           "polymorphic %s%s%s; use a monomorphic comparison (e.g. String.equal / \
            Float.min / an explicit match)"
           name tys
           (match verdict with
           | Unknown -> " (cannot prove the type immediate)"
           | _ -> ""))
  in
  let check_poly_ident loc p name ~direct env arg_ty =
    if in_stdlib p then
      match List.assoc_opt name poly_ops with
      | None -> ()
      | Some specializable -> check_r3 loc name ~direct ~specializable env arg_ty
  in
  (* R8: the arguments of a domain-sink call carry closures to another
     domain. Audit the free variables of every closure lexically inside
     the arguments — looking through one level of local let-binding, so
     [let tasks = ... in Pool.run ~tasks] is not a blind spot. *)
  let check_r8_sink sink_name (args : (Asttypes.arg_label * Typedtree.expression option) list) =
    List.iter
      (fun ((_, arg) : _ * Typedtree.expression option) ->
        match arg with
        | None -> ()
        | Some a ->
            let exprs =
              match a.exp_desc with
              | Texp_ident (Path.Pident id, _, _) -> (
                  match
                    List.find_opt (fun (i, _) -> Ident.same i id) ctx.let_env
                  with
                  | Some (_, bound) -> [ bound ]
                  | None -> [ a ])
              | _ -> [ a ]
            in
            List.iter
              (fun e ->
                List.iter
                  (fun (closure : Typedtree.expression) ->
                    List.iter
                      (fun (name, _id, ty, (loc : Location.t)) ->
                        match type_reaches_mutable closure.exp_env ty with
                        | Reach_safe -> ()
                        | Reach_owned ->
                            report ~forced_suppressed:true ctx R8 loc
                              (Printf.sprintf
                                 "%s is captured by a closure passed to %s; mutable \
                                  reach is documented by [@zygos.owned] on its type"
                                 name sink_name)
                        | Reach_mut what ->
                            report ctx R8 loc
                              (Printf.sprintf
                                 "%s is captured by a closure passed to %s and reaches \
                                  %s; use Atomic.t or document the single-owner \
                                  discipline with [@zygos.owned]"
                                 name sink_name what))
                      (closure_free_vars closure))
                  (collect_closures e))
              exprs)
      args
  in

  let hot_node_checks (e : Typedtree.expression) =
    if ctx.hot > 0 then
      match e.exp_desc with
      | Texp_function _ ->
          report ctx R2 e.exp_loc "closure allocated on the hot path"
      | Texp_tuple _ -> report ctx R2 e.exp_loc "tuple allocated on the hot path"
      | Texp_construct (_, cd, args) when args <> [] ->
          report ctx R2 e.exp_loc
            (Printf.sprintf "constructor %s allocates a block on the hot path"
               cd.cstr_name)
      | Texp_record _ -> report ctx R2 e.exp_loc "record allocated on the hot path"
      | Texp_array (_ :: _) -> report ctx R2 e.exp_loc "array literal allocated on the hot path"
      | Texp_lazy _ -> report ctx R2 e.exp_loc "lazy block allocated on the hot path"
      | Texp_letop _ -> report ctx R2 e.exp_loc "binding operator allocates on the hot path"
      | Texp_pack _ -> report ctx R2 e.exp_loc "first-class module allocated on the hot path"
      | Texp_object _ -> report ctx R2 e.exp_loc "object allocated on the hot path"
      | _ -> ()
  in

  (* Unwrap the parameter chain of a hot function: the outer fun nodes are
     the function's own arity, allocated once at definition site, not per
     call. Guards and nested bodies are visited hot. *)
  let rec visit_hot_body it (e : Typedtree.expression) =
    push ctx (allows_of_attributes e.exp_attributes);
    (match e.exp_desc with
    | Texp_function { cases; _ } ->
        ctx.fun_depth <- ctx.fun_depth + 1;
        List.iter
          (fun (c : _ Typedtree.case) ->
            it.Tast_iterator.pat it c.c_lhs;
            Option.iter (it.Tast_iterator.expr it) c.c_guard;
            visit_hot_body it c.c_rhs)
          cases;
        ctx.fun_depth <- ctx.fun_depth - 1
    | _ -> it.Tast_iterator.expr it e);
    pop ctx
  in

  let enter_hot it e =
    if ctx.hot = 0 then begin
      ctx.hot <- 1;
      visit_hot_body it e;
      ctx.hot <- 0
    end
    else visit_hot_body it e
  in

  let expr it (e : Typedtree.expression) =
    let allows = allows_of_attributes e.exp_attributes in
    push ctx allows;
    (if has_hot e.exp_attributes then enter_hot it e
     else if ctx.hot > 0 && is_raising e then begin
       (* Statically raising branch: cold path, exempt from R2 (but the
          other rules still apply inside). *)
       let h = ctx.hot in
       ctx.hot <- 0;
       default.expr it e;
       ctx.hot <- h
     end
     else begin
       hot_node_checks e;
       match e.exp_desc with
       | Texp_function _ ->
           ctx.fun_depth <- ctx.fun_depth + 1;
           default.expr it e;
           ctx.fun_depth <- ctx.fun_depth - 1
       | Texp_apply (({ exp_desc = Texp_ident (p, _, vd); _ } as hd), args) ->
           let name = norm_path p in
           check_r1_ident hd.exp_loc name;
           check_r5_ident hd.exp_loc name;
           if is_domain_sink name then check_r8_sink name args;
           (* Hashtbl.create ~random:true (or a random flag we cannot
              prove false) seeds the hash nondeterministically. *)
           (if name = "Hashtbl.create" then
              List.iter
                (fun (lbl, arg) ->
                  match (lbl, arg) with
                  | (Asttypes.Labelled "random" | Asttypes.Optional "random"), Some a ->
                      (* Omitted optional args show up as a compiler-built
                         [None] with a ghost location — only an explicit
                         [true] in the payload is a finding. *)
                      if expr_mentions_construct "true" a then
                        report ctx R1 a.exp_loc
                          "Hashtbl.create ~random:true randomizes iteration order"
                  | _ -> ())
                args);
           let first_arg_ty =
             List.find_map
               (fun (lbl, arg) ->
                 match (lbl, arg) with
                 | Asttypes.Nolabel, Some (a : Typedtree.expression) -> Some a.exp_type
                 | _ -> None)
               args
           in
           let first_arg_ty =
             match first_arg_ty with
             | Some t -> Some t
             | None -> first_arrow_arg hd.exp_type
           in
           check_poly_ident hd.exp_loc p name ~direct:true e.exp_env first_arg_ty;
           (* Only module-level refs: those are the globals every domain can
              reach. Function-local refs are owned by their frame unless
              captured, which the field/record rule covers at the type. *)
           if name = "ref" && in_stdlib p && ctx.fun_depth = 0 then
             report ctx R4 e.exp_loc
               "module-level ref cell reachable from domain-crossing code; use Atomic.t \
                or annotate the owner with [@zygos.owned]";
           if ctx.hot > 0 then begin
             if List.exists (fun (_, a) -> a = None) args then
               report ctx R2 e.exp_loc
                 "partial application (omitted argument) allocates a closure on the hot \
                  path"
             else if is_arrow_ty e.exp_type && List.length args < scheme_arity vd.val_type
             then
               (* [args] shorter than the declared arity: a genuine partial
                  application. A full application whose *result* is a
                  function (arrow from a [Tvar] instantiation) passes. *)
               report ctx R2 e.exp_loc
                 "partial application allocates a closure on the hot path"
           end;
           List.iter (fun (_, a) -> Option.iter (it.Tast_iterator.expr it) a) args
       | Texp_apply (hd, args) ->
           if ctx.hot > 0 && is_arrow_ty e.exp_type then
             report ctx R2 e.exp_loc
               "partial application allocates a closure on the hot path";
           it.Tast_iterator.expr it hd;
           List.iter (fun (_, a) -> Option.iter (it.Tast_iterator.expr it) a) args
       | Texp_ident (p, _, _) ->
           let name = norm_path p in
           check_r1_ident e.exp_loc name;
           check_r5_ident e.exp_loc name;
           (* A polymorphic comparison passed as a value (List.sort compare)
              is never specialized, whatever the type. *)
           check_poly_ident e.exp_loc p name ~direct:false e.exp_env
             (first_arrow_arg e.exp_type);
           if name = "ref" && in_stdlib p && ctx.fun_depth = 0 then
             report ctx R4 e.exp_loc
               "module-level ref cell reachable from domain-crossing code; use Atomic.t \
                or annotate the owner with [@zygos.owned]"
       | Texp_match (({ exp_desc = Texp_tuple els; _ } as scrut), cases, _) ->
           (* [match a, b with] compiles to direct accesses — the literal
              tuple scrutinee is never built. *)
           push ctx (allows_of_attributes scrut.exp_attributes);
           List.iter (it.Tast_iterator.expr it) els;
           pop ctx;
           List.iter
             (fun (c : _ Typedtree.case) ->
               it.Tast_iterator.pat it c.c_lhs;
               Option.iter (it.Tast_iterator.expr it) c.c_guard;
               it.Tast_iterator.expr it c.c_rhs)
             cases
       | Texp_let (_, vbs, body) ->
           List.iter
             (fun (vb : Typedtree.value_binding) ->
               match vb.vb_pat.pat_desc with
               | Tpat_var (id, _) -> ctx.let_env <- (id, vb.vb_expr) :: ctx.let_env
               | _ -> ())
             vbs;
           if ctx.hot > 0 then
             List.iter
               (fun (vb : Typedtree.value_binding) ->
                 match vb.vb_pat.pat_desc with
                 | Tpat_var (id, _) when is_float_ty vb.vb_expr.exp_type ->
                     if captured_by_closure id body then
                       report ctx R2 vb.vb_pat.pat_loc
                         (Printf.sprintf
                            "float %s is captured by a closure and must be boxed on the \
                             hot path"
                            (Ident.name id))
                 | _ -> ())
               vbs;
           default.expr it e
       | _ -> default.expr it e
     end);
    pop ctx
  in

  let value_binding it (vb : Typedtree.value_binding) =
    (match vb.vb_pat.pat_desc with
    | Tpat_var (id, _) -> ctx.let_env <- (id, vb.vb_expr) :: ctx.let_env
    | _ -> ());
    let attrs = vb.vb_attributes @ vb.vb_pat.pat_attributes in
    push ctx (allows_of_attributes attrs);
    it.Tast_iterator.pat it vb.vb_pat;
    if has_hot attrs then enter_hot it vb.vb_expr
    else it.Tast_iterator.expr it vb.vb_expr;
    pop ctx
  in

  let type_declaration it (td : Typedtree.type_declaration) =
    push ctx (allows_of_attributes td.typ_attributes);
    (match td.typ_kind with
    | Ttype_record lds ->
        List.iter
          (fun (ld : Typedtree.label_declaration) ->
            if ld.ld_mutable = Asttypes.Mutable && not (core_type_is_atomic ld.ld_type)
            then begin
              push ctx (allows_of_attributes ld.ld_attributes);
              report ctx R4 ld.ld_loc
                (Printf.sprintf
                   "mutable field %s is reachable from domain-crossing code; make it \
                    Atomic.t or document the single-owner discipline with [@zygos.owned]"
                   ld.ld_name.txt);
              pop ctx
            end)
          lds
    | _ -> ());
    default.type_declaration it td;
    pop ctx
  in

  let structure_item it (si : Typedtree.structure_item) =
    (match si.str_desc with
    | Tstr_attribute attr ->
        ctx.file_allows <- allows_of_attributes [ attr ] @ ctx.file_allows
    | _ -> ());
    default.structure_item it si
  in

  {
    default with
    Tast_iterator.expr;
    value_binding;
    type_declaration;
    structure_item;
  }

(* ---- entry points ---- *)

let deterministic_dirs =
  [ "lib/engine"; "lib/systems"; "lib/models"; "lib/net"; "lib/stats"; "lib/experiments";
    "lib/cluster"; "bin"; "examples" ]

let norm_file f =
  String.map (fun c -> if c = '\\' then '/' else c) f

let r1_active_for_file file =
  let f = norm_file file in
  List.exists (fun d -> contains_sub f (d ^ "/")) deterministic_dirs
  && not (contains_sub f "lib/runtime/")

let r4_active_for_file file str =
  contains_sub (norm_file file) "lib/runtime/" || references_domain_layer str

(* Analyze one typedtree. [r1]/[r4] force rule applicability (tests use
   this); by default applicability is derived from [file] and, for R4,
   from whether the structure references the domain layer. *)
let analyze_structure ?(enabled = all_rules) ?r1 ?r4 ~file (str : Typedtree.structure) =
  let ctx =
    {
      file;
      enabled;
      r1_active = (match r1 with Some b -> b | None -> r1_active_for_file file);
      r4_active = (match r4 with Some b -> b | None -> r4_active_for_file file str);
      hot = 0;
      fun_depth = 0;
      stack = [];
      file_allows = [];
      findings = [];
      let_env = [];
    }
  in
  let it = make_iterator ctx in
  it.structure it str;
  List.sort
    (fun a b ->
      match compare a.line b.line with 0 -> compare a.col b.col | c -> c)
    (List.rev ctx.findings)

let active fs = List.filter (fun f -> not f.suppressed) fs
let suppressed_of fs = List.filter (fun f -> f.suppressed) fs

(* ---- whole-program function summaries (consumed by Graph for R6/R7) ----

   One summary per syntactic function binding, keyed by a canonical
   dotted name ("Engine.Wheel.add"). Canonicalization undoes dune's
   [Lib__Module] name mangling and resolves local module aliases and
   functor instantiations ([module Inst = Make (Arg)]: calls through
   [Inst.f] resolve to the functor body's [...Make.f]).
   Higher-order calls — a computed head, a call through a function
   parameter — resolve to [Callee_unknown], the top of the callee
   lattice: the graph must assume they may allocate. *)

type callee =
  | Callee of string  (* resolved dotted name; a summary may or may not exist *)
  | Callee_prim of string * bool  (* primitive / external, [allocates] *)
  | Callee_local  (* locally-bound lambda: its body is part of this summary *)
  | Callee_unknown of string  (* higher-order; payload is the reason *)

type call_site = {
  cs_line : int;
  cs_col : int;
  cs_callee : callee;
  cs_ret_float : bool;  (* full application whose result is a bare float *)
  cs_arg_float : bool;  (* a supplied argument is a bare float *)
  cs_allows : rule list;  (* suppressions lexically in scope at the site *)
}

type alloc_site = { al_line : int; al_col : int; al_desc : string; al_allowed : bool }

type fsummary = {
  fs_name : string;
  fs_file : string;
  fs_line : int;
  fs_hot : bool;
  fs_calls : call_site list;
  fs_allocs : alloc_site list;
}

(* "Engine__Wheel" -> ["Engine"; "Wheel"]; leaves ordinary names alone. *)
let split_mangling comp =
  let n = String.length comp in
  let out = ref [] and start = ref 0 in
  let i = ref 0 in
  while !i < n - 1 do
    if comp.[!i] = '_' && comp.[!i + 1] = '_' && !i > !start then begin
      out := String.sub comp !start (!i - !start) :: !out;
      i := !i + 2;
      start := !i
    end
    else incr i
  done;
  out := String.sub comp !start (n - !start) :: !out;
  List.rev_map String.capitalize_ascii !out

let rec path_components (p : Path.t) acc =
  match p with
  | Path.Pident id -> Ident.name id :: acc
  | Path.Pdot (p, s) -> path_components p (s :: acc)
  | Path.Papply (f, _) -> path_components f acc
  | Path.Pextra_ty (p, _) -> path_components p acc

let prim_allocates (p : Primitive.description) =
  let n = p.prim_name in
  if String.length n > 0 && n.[0] = '%' then false else p.prim_alloc

let silent_warn (_ : Location.t) (_ : string) = ()

let summarize_structure ?(warn = silent_warn) ~modname ~file
    (str : Typedtree.structure) =
  let aliases : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  let by_ident : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let work = ref [] in
  let file_allows = ref [] in
  (* module aliases visible at a canonical path, exported for cross-file
     resolution ("Systems.Zygos.Sched" -> "Core.Sched") *)
  let galiases = ref [] in
  let resolve_comps comps =
    let rec go fuel comps =
      if fuel = 0 then comps
      else
        match comps with
        | [] -> []
        | c :: rest -> (
            match split_mangling c with
            | [ _ ] -> (
                match Hashtbl.find_opt aliases c with
                | Some repl when repl <> comps && List.hd repl <> c ->
                    go (fuel - 1) (repl @ rest)
                | _ -> comps)
            | parts -> go (fuel - 1) (parts @ rest))
    in
    match go 8 comps with "Stdlib" :: (_ :: _ as rest) -> rest | r -> r
  in
  let is_fun_expr (e : Typedtree.expression) =
    match e.exp_desc with Texp_function _ -> true | _ -> false
  in
  let rec unwrap_mod (me : Typedtree.module_expr) =
    match me.mod_desc with Tmod_constraint (me, _, _, _) -> unwrap_mod me | _ -> me
  in
  let rec collect prefix (items : Typedtree.structure_item list) =
    List.iter
      (fun (si : Typedtree.structure_item) ->
        match si.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                match vb.vb_pat.pat_desc with
                | Tpat_var (id, _) when is_fun_expr vb.vb_expr ->
                    let name = String.concat "." (prefix @ [ Ident.name id ]) in
                    Hashtbl.replace by_ident (Ident.unique_name id) name;
                    work := (name, vb) :: !work
                | _ -> ())
              vbs
        | Tstr_module mb -> collect_module prefix mb
        | Tstr_recmodule mbs -> List.iter (collect_module prefix) mbs
        | Tstr_attribute attr ->
            file_allows := allows_of_attributes ~warn [ attr ] @ !file_allows
        | _ -> ())
      items
  and collect_module prefix (mb : Typedtree.module_binding) =
    match mb.mb_id with
    | None -> ()
    | Some id -> (
        let name = Ident.name id in
        match (unwrap_mod mb.mb_expr).mod_desc with
        | Tmod_structure s ->
            Hashtbl.replace aliases name (prefix @ [ name ]);
            collect (prefix @ [ name ]) s.str_items
        | Tmod_functor (_, body) -> (
            match (unwrap_mod body).mod_desc with
            | Tmod_structure s ->
                Hashtbl.replace aliases name (prefix @ [ name ]);
                collect (prefix @ [ name ]) s.str_items
            | _ -> ())
        | Tmod_ident (p, _) ->
            let repl = resolve_comps (path_components p []) in
            Hashtbl.replace aliases name repl;
            galiases :=
              (String.concat "." (prefix @ [ name ]), String.concat "." repl)
              :: !galiases
        | Tmod_apply _ as d ->
            (* module M = F (X): calls through M resolve to the functor's
               own body; the argument side stays behind the functor's
               parameter, i.e. unknown — the conservative direction. *)
            let rec head = function
              | Typedtree.Tmod_apply (f, _, _) -> head (unwrap_mod f).mod_desc
              | Tmod_ident (p, _) -> Some (path_components p [])
              | _ -> None
            in
            Option.iter
              (fun comps ->
                let repl = resolve_comps comps in
                Hashtbl.replace aliases name repl;
                galiases :=
                  (String.concat "." (prefix @ [ name ]), String.concat "." repl)
                  :: !galiases)
              (head d)
        | _ -> ())
  in
  collect (split_mangling modname) str.str_items;
  let summarize (name, (vb : Typedtree.value_binding)) =
    let calls = ref [] and allocs = ref [] in
    let local_fns : (string, unit) Hashtbl.t = Hashtbl.create 8 in
    let stack = ref [ allows_of_attributes ~warn vb.vb_attributes ] in
    let in_scope () = !file_allows @ List.concat !stack in
    let record_alloc (loc : Location.t) desc =
      let allows = in_scope () in
      let p = loc.loc_start in
      allocs :=
        {
          al_line = p.pos_lnum;
          al_col = p.pos_cnum - p.pos_bol;
          al_desc = desc;
          al_allowed = List.memq R6 allows || List.memq R2 allows;
        }
        :: !allocs
    in
    let record_call (loc : Location.t) callee ~ret_float ~arg_float =
      let p = loc.loc_start in
      calls :=
        {
          cs_line = p.pos_lnum;
          cs_col = p.pos_cnum - p.pos_bol;
          cs_callee = callee;
          cs_ret_float = ret_float;
          cs_arg_float = arg_float;
          cs_allows = in_scope ();
        }
        :: !calls
    in
    let resolve_value_path p =
      match p with
      | Path.Pident id ->
          let u = Ident.unique_name id in
          if Hashtbl.mem local_fns u then Callee_local
          else (
            match Hashtbl.find_opt by_ident u with
            | Some n -> Callee n
            | None ->
                Callee_unknown
                  (Printf.sprintf "higher-order call through %s" (Ident.name id)))
      | _ ->
          let rec head = function
            | Path.Pident id -> id
            | Path.Pdot (p, _) | Path.Papply (p, _) | Path.Pextra_ty (p, _) ->
                head p
          in
          let h = head p in
          (* A non-persistent head module that we did not collect in this
             unit is a functor parameter (or an unregistered local): its
             implementation is not knowable here — Unknown, not Known. *)
          if (not (Ident.global h)) && not (Hashtbl.mem aliases (Ident.name h))
          then
            Callee_unknown
              (Printf.sprintf "call through module parameter %s" (Ident.name h))
          else Callee (String.concat "." (resolve_comps (path_components p [])))
    in
    let float_ty env ty =
      let ty = try Ctype.expand_head env ty with _ -> ty in
      is_float_ty ty
    in
    let default = Tast_iterator.default_iterator in
    (* [chain] > 0 while unwrapping the binding's own parameter lambdas —
       definition-site arity, not a per-call closure. *)
    let chain = ref 1 in
    let expr it (e : Typedtree.expression) =
      let allows = allows_of_attributes ~warn e.exp_attributes in
      stack := allows :: !stack;
      (if is_raising e then () (* cold branch: neither allocs nor calls *)
       else
         let was_chain = !chain in
         match e.exp_desc with
         | Texp_function { cases; _ } ->
             (* a curried parameter chain compiles to ONE closure: record
                the outermost lambda, then treat the rest as in-chain *)
             if was_chain = 0 then record_alloc e.exp_loc "closure";
             List.iter
               (fun (c : _ Typedtree.case) ->
                 chain := 0;
                 Option.iter (it.Tast_iterator.expr it) c.c_guard;
                 chain := 1;
                 it.Tast_iterator.expr it c.c_rhs;
                 chain := was_chain)
               cases
         | _ -> (
             chain := 0;
             match e.exp_desc with
             | Texp_apply (({ exp_desc = Texp_ident (p, _, vd); _ } as hd), args) ->
                 let omitted = List.exists (fun (_, a) -> a = None) args in
                 let n_args = List.length args in
                 let partial =
                   omitted
                   || is_arrow_ty e.exp_type && n_args < scheme_arity vd.val_type
                 in
                 if partial then
                   record_alloc e.exp_loc "partial application (closure)";
                 let callee =
                   match vd.val_kind with
                   | Types.Val_prim prim ->
                       if prim.prim_name = "%apply" || prim.prim_name = "%revapply"
                       then Callee_unknown "function applied via @@ or |>"
                       else Callee_prim (prim.prim_name, prim_allocates prim)
                   | _ -> resolve_value_path p
                 in
                 let arg_float =
                   List.exists
                     (fun ((_, a) : _ * Typedtree.expression option) ->
                       match a with
                       | Some a -> float_ty a.exp_env a.exp_type
                       | None -> false)
                     args
                 in
                 record_call hd.exp_loc callee
                   ~ret_float:((not partial) && float_ty e.exp_env e.exp_type)
                   ~arg_float;
                 List.iter (fun (_, a) -> Option.iter (it.Tast_iterator.expr it) a) args
             | Texp_apply (hd, args) ->
                 if is_arrow_ty e.exp_type then
                   record_alloc e.exp_loc "partial application (closure)";
                 record_call hd.exp_loc
                   (Callee_unknown "higher-order call (computed function)")
                   ~ret_float:(float_ty e.exp_env e.exp_type)
                   ~arg_float:
                     (List.exists
                        (fun ((_, a) : _ * Typedtree.expression option) ->
                          match a with
                          | Some a -> float_ty a.exp_env a.exp_type
                          | None -> false)
                        args);
                 it.Tast_iterator.expr it hd;
                 List.iter (fun (_, a) -> Option.iter (it.Tast_iterator.expr it) a) args
             | Texp_match (({ exp_desc = Texp_tuple els; _ } as scrut), cases, _) ->
                 (* [match a, b with] never builds the scrutinee tuple *)
                 ignore scrut;
                 List.iter (it.Tast_iterator.expr it) els;
                 List.iter
                   (fun (c : _ Typedtree.case) ->
                     it.Tast_iterator.pat it c.c_lhs;
                     Option.iter (it.Tast_iterator.expr it) c.c_guard;
                     it.Tast_iterator.expr it c.c_rhs)
                   cases
             | Texp_let (_, vbs, _) ->
                 List.iter
                   (fun (vb : Typedtree.value_binding) ->
                     match vb.vb_pat.pat_desc with
                     | Tpat_var (id, _) when is_fun_expr vb.vb_expr ->
                         Hashtbl.replace local_fns (Ident.unique_name id) ()
                     | _ -> ())
                   vbs;
                 default.expr it e
             | Texp_tuple _ -> record_alloc e.exp_loc "tuple"; default.expr it e
             | Texp_construct (_, cd, cargs) ->
                 if cargs <> [] then
                   record_alloc e.exp_loc
                     (Printf.sprintf "constructor %s" cd.cstr_name);
                 default.expr it e
             | Texp_record _ -> record_alloc e.exp_loc "record"; default.expr it e
             | Texp_array (_ :: _) ->
                 record_alloc e.exp_loc "array literal";
                 default.expr it e
             | Texp_lazy _ -> record_alloc e.exp_loc "lazy block"; default.expr it e
             | Texp_letop _ ->
                 record_alloc e.exp_loc "binding operator";
                 default.expr it e
             | Texp_pack _ ->
                 record_alloc e.exp_loc "first-class module";
                 default.expr it e
             | Texp_object _ -> record_alloc e.exp_loc "object"; default.expr it e
             | _ -> default.expr it e));
      chain := (match e.exp_desc with Texp_function _ -> !chain | _ -> 0);
      stack := List.tl !stack
    in
    let it = { default with Tast_iterator.expr } in
    it.expr it vb.vb_expr;
    let p = vb.vb_pat.pat_loc.loc_start in
    {
      fs_name = name;
      fs_file = file;
      fs_line = p.pos_lnum;
      fs_hot = has_hot (vb.vb_attributes @ vb.vb_pat.pat_attributes);
      fs_calls = List.rev !calls;
      fs_allocs = List.rev !allocs;
    }
  in
  (List.rev_map summarize !work, List.rev !galiases)

(* ---- cmt loading ---- *)

let load_path_initialized = ref false

let init_load_path dirs =
  if not !load_path_initialized then begin
    Load_path.init ~auto_include:Load_path.no_auto_include [ Config.standard_library ];
    load_path_initialized := true
  end;
  List.iter Load_path.add_dir dirs

(* Make the cmt's recorded (relative) load-path entries absolute so env
   reconstruction works from any cwd. They are relative to the dune
   context root at build time, but [cmt_builddir] may be stale (the tree
   can have been built under a different mount point), so recover the
   context root from the cmt's own location: its directory ends with one
   of the recorded entries (its own objs dir). Fall back to builddir,
   then cwd. *)
let cmt_dirs cmt_path (cmt : Cmt_format.cmt_infos) =
  let entries = List.filter (fun d -> d <> "") cmt.cmt_loadpath in
  let cmt_dir = norm_file (Filename.dirname cmt_path) in
  let root =
    List.find_map
      (fun d ->
        if Filename.is_relative d && ends_with ~suffix:(norm_file d) cmt_dir then
          Some (String.sub cmt_dir 0 (String.length cmt_dir - String.length d))
        else None)
      entries
  in
  List.map
    (fun d ->
      if not (Filename.is_relative d) then d
      else
        let candidates =
          (match root with Some r -> [ Filename.concat r d ] | None -> [])
          @ [ Filename.concat cmt.cmt_builddir d; d ]
        in
        match List.find_opt Sys.file_exists candidates with
        | Some abs -> abs
        | None -> Filename.concat cmt.cmt_builddir d)
    entries

type cmt_result = {
  source : string;
  findings : finding list;
  summaries : fsummary list;  (* whole-program input for Graph (R6/R7) *)
  aliases : (string * string) list;  (* canonical module aliases, for Graph *)
}

let analyze_cmt ?(enabled = all_rules) ?r1 ?r4 path =
  match Cmt_format.read_cmt path with
  | exception e ->
      Error (Printf.sprintf "%s: cannot read cmt (%s)" path (Printexc.to_string e))
  | cmt -> (
      match cmt.cmt_annots with
      | Implementation str ->
          init_load_path (cmt_dirs path cmt);
          Envaux.reset_cache ();
          let source =
            match cmt.cmt_sourcefile with Some s -> s | None -> path
          in
          let summaries, aliases =
            summarize_structure ~modname:cmt.cmt_modname ~file:source str
          in
          Ok
            {
              source;
              findings = analyze_structure ~enabled ?r1 ?r4 ~file:source str;
              summaries;
              aliases;
            }
      | _ -> Ok { source = path; findings = []; summaries = []; aliases = [] })

let rec find_cmts acc path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry -> find_cmts acc (Filename.concat path entry))
      acc (Sys.readdir path)
  else if Filename.check_suffix path ".cmt" then path :: acc
  else acc

(* ---- in-process typechecking (for tests and fixtures) ---- *)

let typecheck_initialized = ref false

let typecheck_string ~name code =
  if not !typecheck_initialized then begin
    Clflags.dont_write_files := true;
    Compmisc.init_path ();
    load_path_initialized := true;
    typecheck_initialized := true
  end;
  let lb = Lexing.from_string code in
  Location.init lb name;
  let past = Parse.implementation lb in
  let env = Compmisc.initial_env () in
  match Typemod.type_structure env past with
  | str, _, _, _, _ -> str
  | exception e ->
      let msg =
        match Location.error_of_exn e with
        | Some (`Ok err) -> Format.asprintf "%a" Location.print_report err
        | _ -> Printexc.to_string e
      in
      failwith (Printf.sprintf "zygoscope: fixture %s does not typecheck:\n%s" name msg)

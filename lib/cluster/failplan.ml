type event =
  | Crash of { server : int; start : float; duration : float }
  | Degraded of { server : int; slowdown : float; start : float; duration : float }

type t = event list

let none : t = []

let validate ~servers plan =
  let window what server start duration =
    if server < 0 || server >= servers then
      invalid_arg (Printf.sprintf "Failplan: %s server %d outside rack of %d" what server servers);
    if Float.is_nan start || start < 0. then
      invalid_arg (Printf.sprintf "Failplan: %s start < 0" what);
    if Float.is_nan duration || duration <= 0. then
      invalid_arg (Printf.sprintf "Failplan: %s duration <= 0" what)
  in
  List.iter
    (function
      | Crash { server; start; duration } -> window "crash" server start duration
      | Degraded { server; slowdown; start; duration } ->
          window "degraded" server start duration;
          if Float.is_nan slowdown || slowdown < 1. then
            invalid_arg "Failplan: degraded slowdown < 1")
    plan

(* Is [server] inside one of its crash windows at [now]? O(plan length);
   plans are a handful of events, and the dispatcher caches nothing so a
   window opening mid-run needs no extra machinery. *)
let crashed plan ~server ~now =
  List.exists
    (function
      | Crash { server = s; start; duration } ->
          s = server && now >= start && now < start +. duration
      | Degraded _ -> false)
    plan

let has_crash plan ~server =
  List.exists (function Crash { server = s; _ } -> s = server | Degraded _ -> false) plan

(* Straggler specs for [server]'s intra-server params: a degraded server
   runs every one of its cores [slowdown]x slower inside the window —
   the rack-level fault intra-server work stealing cannot absorb. *)
let stragglers plan ~server ~cores =
  List.concat_map
    (function
      | Degraded { server = s; slowdown; start; duration } when s = server ->
          List.init cores (fun core -> Core.Corefault.{ core; start; duration; slowdown })
      | Degraded _ | Crash _ -> [])
    plan

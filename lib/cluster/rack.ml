module Sim = Engine.Sim
module Rng = Engine.Rng
module Request = Net.Request

type config = {
  servers : int;
  policy : Policy.t;
  feedback_delay : float;
  feedback_until : float;
  detect : Dispatch.detect option;
  hedge : float option;
  failplan : Failplan.t;
}

let config ?(feedback_delay = 0.) ?(feedback_until = 0.) ?detect ?hedge
    ?(failplan = Failplan.none) ~servers ~policy () =
  if servers < 1 then invalid_arg "Rack: servers < 1";
  if servers > 62 then invalid_arg "Rack: more than 62 servers";
  Policy.validate policy;
  if Float.is_nan feedback_delay || feedback_delay < 0. then
    invalid_arg "Rack: feedback_delay < 0";
  Failplan.validate ~servers failplan;
  { servers; policy; feedback_delay; feedback_until; detect; hedge; failplan }

type t = { iface : Systems.Iface.t; dispatch : Dispatch.t }

(* Build a list strictly left to right: several steps below split RNG
   streams or construct simulator state per server, so evaluation order is
   part of the determinism contract ([Array.init] leaves it unspecified). *)
let init_ordered n f =
  let rec go i acc = if i = n then List.rev acc else go (i + 1) (f i :: acc) in
  go 0 []

(* Sum per-server info lists key-wise, in server order. Every server runs
   one system model, so every list has the same keys in the same order.
   A ratio does not sum: [steal_fraction] is recomputed from the summed
   event counts (0 when both are 0, as [Sched.steal_fraction]), and
   [preemptions_per_request], whose denominator no server reports, is
   left out. *)
let sum_infos = function
  | [] -> []
  | first :: rest ->
      let sums = List.fold_left (List.map2 (fun (k, acc) (_, v) -> (k, acc +. v))) first rest in
      let sum key =
        List.fold_left (fun acc (k, v) -> if String.equal k key then v else acc) 0. sums
      in
      let local = sum "local_events" and stolen = sum "stolen_events" in
      List.filter_map
        (fun (k, v) ->
          match k with
          | "steal_fraction" ->
              Some (k, if local +. stolen = 0. then 0. else stolen /. (local +. stolen))
          | "preemptions_per_request" -> None
          | _ -> Some (k, v))
        sums

let create sim cfg ~rng ~pool ~make_server ~respond =
  let n = cfg.servers in
  (* RNG stream discipline: server streams split first, in index order, so
     a 1-server rack consumes exactly the splits a bare system run does
     (loadgen, then system); the dispatcher's stream comes after and is
     never drawn from in the degenerate configuration. *)
  let server_rngs = Array.of_list (init_ordered n (fun _ -> Rng.split rng)) in
  let dispatcher_rng = Rng.split rng in
  let dispatch =
    Dispatch.create sim ~pool ~n ~policy:cfg.policy ~rng:dispatcher_rng
      ~feedback_delay:cfg.feedback_delay ~feedback_until:cfg.feedback_until
      ?detect:cfg.detect ?hedge:cfg.hedge ~respond ()
  in
  let lost_requests = ref 0 in (* swallowed by a crash window on ingress *)
  let lost_responses = ref 0 in (* suppressed by a crash window on egress *)
  let crash_windows =
    List.exists (function Failplan.Crash _ -> true | Failplan.Degraded _ -> false) cfg.failplan
  in
  (* Egress: a crashed server's responses are lost; everything else goes
     through the dispatcher (credit return, health, dedupe, client). *)
  let egress i (req : Request.t) =
    if crash_windows && Failplan.crashed cfg.failplan ~server:i ~now:(Sim.now sim) then
      incr lost_responses
    else Dispatch.on_response dispatch ~server:i req
  in
  let server_ifaces =
    Array.of_list
      (init_ordered n (fun i -> make_server ~i ~rng:server_rngs.(i) ~respond:(egress i)))
  in
  (* Ingress: the crash filter, then the server NIC. A server with no
     crash window adds no layer. *)
  let forwards =
    Array.mapi
      (fun i (s : Systems.Iface.t) ->
        let submit = s.submit in
        if crash_windows && Failplan.has_crash cfg.failplan ~server:i then fun req ->
          if Failplan.crashed cfg.failplan ~server:i ~now:(Sim.now sim) then incr lost_requests
          else submit req
        else submit)
      server_ifaces
  in
  Dispatch.set_forward dispatch (fun i req -> forwards.(i) req);
  let info () =
    Dispatch.info dispatch
    @ [
        ("rack_servers", float_of_int n);
        ("rack_lost_requests", float_of_int !lost_requests);
        ("rack_lost_responses", float_of_int !lost_responses);
      ]
    @ sum_infos
        (Array.to_list (Array.map (fun s -> s.Systems.Iface.info ()) server_ifaces))
  in
  { iface = { Systems.Iface.submit = (fun req -> Dispatch.submit dispatch req); info }; dispatch }

let iface t = t.iface

let dispatch t = t.dispatch

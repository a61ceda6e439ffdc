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

(* Sum per-server info lists key-wise, preserving the key order of the
   first list (all servers run the same system model, so the key sets
   match; unseen keys are appended in encounter order). *)
let sum_infos infos =
  match infos with
  | [] -> []
  | first :: _ ->
      let tbl = Hashtbl.create 32 in
      let extra = ref [] in
      List.iter
        (fun info ->
          List.iter
            (fun (k, v) ->
              match Hashtbl.find_opt tbl k with
              | Some acc -> Hashtbl.replace tbl k (acc +. v)
              | None ->
                  Hashtbl.replace tbl k v;
                  if not (List.exists (fun (k0, _) -> String.equal k0 k) first) then
                    extra := k :: !extra)
            info)
        infos;
      List.map (fun (k, _) -> (k, Hashtbl.find tbl k)) first
      @ List.rev_map (fun k -> (k, Hashtbl.find tbl k)) !extra

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
  let iface =
    Systems.Iface.
      {
        name = Printf.sprintf "rack%d-%s" n (Policy.name cfg.policy);
        submit = (fun req -> Dispatch.submit dispatch req);
        info;
      }
  in
  { iface; dispatch }

let iface t = t.iface

let dispatch t = t.dispatch

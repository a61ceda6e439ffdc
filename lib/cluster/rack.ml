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
     (loadgen, then system); dispatcher and link streams come after and
     are never drawn from in the degenerate configuration. *)
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
    List.exists
      (function Failplan.Crash _ -> true | Failplan.Blackhole _ | Failplan.Degraded _ -> false)
      cfg.failplan
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
  (* Ingress: crash filter, then the server's link fault layer (its
     blackhole window) when it has one, then the server NIC. Fault-free
     links are composed out entirely so a clean rack adds no layers. *)
  let links = ref [] in
  let forwards =
    Array.of_list
      (init_ordered n (fun i ->
           let submit = server_ifaces.(i).Systems.Iface.submit in
           let deliver =
             match Failplan.link_plan cfg.failplan ~server:i with
             | None -> submit
             | Some plan ->
                 let f = Net.Faults.create sim ~rng:(Rng.split rng) ~plan () in
                 links := f :: !links;
                 fun req -> Net.Faults.apply f req ~deliver:submit
           in
           if crash_windows && Failplan.has_crash cfg.failplan ~server:i then
             fun req ->
               if Failplan.crashed cfg.failplan ~server:i ~now:(Sim.now sim) then
                 incr lost_requests
               else deliver req
           else deliver))
  in
  Dispatch.set_forward dispatch (fun i req -> forwards.(i) req);
  let links = List.rev !links in
  let info () =
    Dispatch.info dispatch
    @ [
        ("rack_servers", float_of_int n);
        ("rack_lost_requests", float_of_int !lost_requests);
        ("rack_lost_responses", float_of_int !lost_responses);
      ]
    @ sum_infos (List.map Net.Faults.info links)
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

module Sim = Engine.Sim
module Request = Net.Request

type policy = No_shed | Queue_length of int

let validate_policy = function
  | No_shed -> ()
  | Queue_length k -> if k < 1 then invalid_arg "Overload: Queue_length bound < 1"

type t = {
  sim : Sim.t;
  pool : Request.pool;
  policy : policy;
  live : (int, unit) Hashtbl.t;  (* admitted request ids awaiting a response *)
  mutable inflight : int;
  mutable admitted : int;
  mutable shed : int;
  mutable peak : int;
}

let create sim ~pool ~policy () =
  validate_policy policy;
  {
    sim;
    pool;
    policy;
    live = Hashtbl.create 1024;
    inflight = 0;
    admitted = 0;
    shed = 0;
    peak = 0;
  }

let over_limit t =
  match t.policy with No_shed -> false | Queue_length k -> t.inflight >= k

let track t (req : Request.t) =
  let id = Request.id t.pool req in
  if not (Hashtbl.mem t.live id) then begin
    Hashtbl.replace t.live id ();
    t.inflight <- t.inflight + 1;
    if t.inflight > t.peak then t.peak <- t.inflight
  end

let admit t (req : Request.t) ~forward =
  if over_limit t then t.shed <- t.shed + 1
  else begin
    t.admitted <- t.admitted + 1;
    track t req;
    forward req
  end

let note_response t (req : Request.t) =
  let id = Request.id t.pool req in
  if Hashtbl.mem t.live id then begin
    Hashtbl.remove t.live id;
    t.inflight <- t.inflight - 1
  end

let info t =
  [
    ("admitted", float_of_int t.admitted);
    ("shed", float_of_int t.shed);
    ("inflight_peak", float_of_int t.peak);
    (* Exact engine-level queue depth ([Sim.live], which excludes
       lazily-cancelled entries, unlike [Sim.pending]): the shedding
       decisions above key off [inflight], and this snapshot lets a
       sweep correlate them with the simulator's own backlog. *)
    ("sim_live", float_of_int (Sim.live t.sim));
    ("sim_pending", float_of_int (Sim.pending t.sim));
  ]

module Request = Net.Request

let validate_bound k = if k < 1 then invalid_arg "Overload: in-flight bound < 1"

type t = {
  pool : Request.pool;
  bound : int;
  live : (int, unit) Hashtbl.t;  (* admitted request ids awaiting a response *)
  mutable inflight : int;
  mutable admitted : int;
  mutable shed : int;
  mutable peak : int;
}

let create ~pool ~bound =
  validate_bound bound;
  { pool; bound; live = Hashtbl.create 1024; inflight = 0; admitted = 0; shed = 0; peak = 0 }

let track t (req : Request.t) =
  let id = Request.id t.pool req in
  if not (Hashtbl.mem t.live id) then begin
    Hashtbl.replace t.live id ();
    t.inflight <- t.inflight + 1;
    if t.inflight > t.peak then t.peak <- t.inflight
  end

let admit t (req : Request.t) ~forward =
  if t.inflight >= t.bound then t.shed <- t.shed + 1
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
  ]

(* Consecutive timeouts that mark a server down, and the µs between
   probes of a down server. *)
let down_after = 3
let probe_interval = 500.

type server = {
  mutable down : bool;
  mutable consecutive_timeouts : int;
  mutable last_probe : float;  (* sim time of the last probe admitted while down *)
  mutable down_since : float;
}

type t = {
  servers : server array;
  mutable timeouts : int;
  mutable detections : int;
  mutable probes : int;
  mutable recoveries : int;
  mutable down_time : float;  (* accumulated across servers *)
}

let create ~n =
  if n < 1 then invalid_arg "Health: n < 1";
  {
    servers =
      Array.init n (fun _ ->
          { down = false; consecutive_timeouts = 0; last_probe = neg_infinity;
            down_since = nan });
    timeouts = 0;
    detections = 0;
    probes = 0;
    recoveries = 0;
    down_time = 0.;
  }

let is_down t i = t.servers.(i).down

let note_timeout t i ~now =
  let s = t.servers.(i) in
  t.timeouts <- t.timeouts + 1;
  s.consecutive_timeouts <- s.consecutive_timeouts + 1;
  if (not s.down) && s.consecutive_timeouts >= down_after then begin
    s.down <- true;
    s.down_since <- now;
    (* The next probe waits a full interval: the timeouts that led here
       already count as the failed probe. *)
    s.last_probe <- now;
    t.detections <- t.detections + 1
  end

let note_response t i ~now =
  let s = t.servers.(i) in
  s.consecutive_timeouts <- 0;
  if s.down then begin
    s.down <- false;
    t.recoveries <- t.recoveries + 1;
    t.down_time <- t.down_time +. (now -. s.down_since);
    s.down_since <- nan
  end

(* May server [i] receive a request at [now]? An up server always; a down
   one only as a probe, one per probe interval. Pure: policies scan
   servers several times while choosing, so the probe slot is only
   consumed when the dispatcher actually sends ({!note_probe}). *)
let routable t i ~now =
  let s = t.servers.(i) in
  (not s.down) || now -. s.last_probe >= probe_interval

(* The dispatcher picked a down server: that dispatch is the probe. *)
let note_probe t i ~now =
  let s = t.servers.(i) in
  if s.down then begin
    s.last_probe <- now;
    t.probes <- t.probes + 1
  end

let down_count t = Array.fold_left (fun acc s -> if s.down then acc + 1 else acc) 0 t.servers

let info t =
  [
    ("health_timeouts", float_of_int t.timeouts);
    ("health_detections", float_of_int t.detections);
    ("health_probes", float_of_int t.probes);
    ("health_recoveries", float_of_int t.recoveries);
    ("health_down", float_of_int (down_count t));
    ("health_down_time", t.down_time);
  ]

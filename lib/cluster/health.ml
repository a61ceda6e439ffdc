type state = Up | Suspect | Down

(* Consecutive timeouts that mark a server [Down], and the µs between
   probes of a [Down] server. *)
let suspect_after = 3
let probe_interval = 500.

type server = {
  mutable state : state;
  mutable consecutive_timeouts : int;
  mutable last_probe : float;  (* sim time of the last probe admitted while Down *)
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
          { state = Up; consecutive_timeouts = 0; last_probe = neg_infinity;
            down_since = nan });
    timeouts = 0;
    detections = 0;
    probes = 0;
    recoveries = 0;
    down_time = 0.;
  }

let state t i = t.servers.(i).state

let note_timeout t i ~now =
  let s = t.servers.(i) in
  t.timeouts <- t.timeouts + 1;
  s.consecutive_timeouts <- s.consecutive_timeouts + 1;
  match s.state with
  | Down -> ()
  | Up | Suspect ->
      if s.consecutive_timeouts >= suspect_after then begin
        s.state <- Down;
        s.down_since <- now;
        (* The next probe waits a full interval: the timeouts that led
           here already count as the failed probe. *)
        s.last_probe <- now;
        t.detections <- t.detections + 1
      end
      else s.state <- Suspect

let note_response t i ~now =
  let s = t.servers.(i) in
  s.consecutive_timeouts <- 0;
  match s.state with
  | Up -> ()
  | Suspect -> s.state <- Up
  | Down ->
      s.state <- Up;
      t.recoveries <- t.recoveries + 1;
      t.down_time <- t.down_time +. (now -. s.down_since);
      s.down_since <- nan

(* May server [i] receive a request at [now]? Up/Suspect always; Down only
   as a probe, one per probe interval. Pure: policies scan servers several
   times while choosing, so the probe slot is only consumed when the
   dispatcher actually sends ({!note_probe}). *)
let routable t i ~now =
  let s = t.servers.(i) in
  match s.state with
  | Up | Suspect -> true
  | Down -> now -. s.last_probe >= probe_interval

(* The dispatcher picked a Down server: that dispatch is the probe. *)
let note_probe t i ~now =
  let s = t.servers.(i) in
  match s.state with
  | Up | Suspect -> ()
  | Down ->
      s.last_probe <- now;
      t.probes <- t.probes + 1

let down_count t =
  Array.fold_left
    (fun acc s -> match s.state with Down -> acc + 1 | Up | Suspect -> acc)
    0 t.servers

let info t =
  [
    ("health_timeouts", float_of_int t.timeouts);
    ("health_detections", float_of_int t.detections);
    ("health_probes", float_of_int t.probes);
    ("health_recoveries", float_of_int t.recoveries);
    ("health_down", float_of_int (down_count t));
    ("health_down_time", t.down_time);
  ]

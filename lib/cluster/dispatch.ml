module Sim = Engine.Sim
module Rng = Engine.Rng
module Request = Net.Request

type detect = Net.Loadgen.retry

let no_handle : Sim.handle = Sim.no_handle

(* Per logical request in flight; allocated only when detection or hedging
   is enabled (the clean path tracks nothing per request). *)
type entry = {
  e_id : int;
  e_req : Request.t;  (* the first copy: failover and hedge copies read its fields *)
  mutable e_attempts : int;  (* failover re-dispatches sent so far *)
  mutable e_server : int;  (* server of the latest primary dispatch; -1 = queued *)
  mutable e_hedge_server : int;  (* -1 = no hedge copy in flight *)
  mutable e_timeout : Sim.handle;  (* detection timer of the latest primary *)
  mutable e_hedge : Sim.handle;  (* pending hedge trigger *)
  mutable e_done : bool;
}

type t = {
  sim : Sim.t;
  rng : Rng.t;
  pool : Request.pool;
  n : int;
  policy : Policy.t;
  bound : int;
  rss : Net.Rss.t;
  outstanding : float array;  (* exact ToR-side in-flight per server *)
  est : Estimate.t;
  visible : float array;  (* [Estimate.visible est]: what policies rank *)
  detect : detect option;
  health : Health.t option;  (* Some iff detect *)
  hedge_delay : float;  (* nan = hedging off *)
  tracked : bool;  (* detect or hedge on: per-request entries + dedupe *)
  entries : (int, entry) Hashtbl.t;
  tor_queue : Engine.Intq.t;  (* JBSQ central FIFO of request handles *)
  copy_times : float array;  (* 2-slot scratch: a copy's arrival and service *)
  mutable forward : int -> Request.t -> unit;
  respond : Request.t -> unit;
  (* counters *)
  mutable dispatched : int;
  per_server : int array;
  mutable tor_queued : int;
  mutable tor_peak : int;
  mutable no_route_drops : int;
  mutable failovers : int;
  mutable failover_exhausted : int;
  mutable hedges : int;
  mutable hedge_wins : int;
  mutable duplicates_dropped : int;
  mutable credit_resyncs : int;
  mutable fn_timeout : int -> unit;
  mutable fn_failover : int -> unit;
  mutable fn_hedge : int -> unit;
}

let hedging t = not (Float.is_nan t.hedge_delay)

(* The request path ([@zygos.hot] below) allocates nothing and makes no
   clock call on a clean rack. The detection, hedging and health branches
   are off that path and carry [@zygos.allow]: their entries, hashtables
   and boxed [Sim.now] reads stay there. *)

(* The bit set of servers other than [exclude] (-1: none) that may take a
   request: the exact credit gate (JBSQ's credits are an explicit ack
   channel, not telemetry; other policies' bound, [max_int], is never
   reached) and the health mask. Ranking estimates stay stale. *)
let[@zygos.hot] routable_set t ~exclude =
  let bound = float_of_int t.bound in
  let set = ref 0 in
  for i = 0 to t.n - 1 do
    if i <> exclude && t.outstanding.(i) < bound then set := !set lor (1 lsl i)
  done;
  (match t.health with
  | None -> ()
  | Some h ->
      (* [Health.routable] is pure, so one call per server is exact *)
      (let now = Sim.now t.sim in
       for i = 0 to t.n - 1 do
         if not (Health.routable h i ~now) then set := !set land lnot (1 lsl i)
       done)
      [@zygos.allow "r6,r7"]);
  !set

let[@zygos.hot] choose t ~conn ~exclude =
  let s =
    Policy.choose t.policy ~rss:t.rss ~rng:t.rng ~estimates:t.visible
      ~routable:(routable_set t ~exclude) ~n:t.n ~conn
  in
  if s >= 0 || exclude < 0 then s
  else
    (* The excluded server is the only candidate left: better than dropping. *)
    Policy.choose t.policy ~rss:t.rss ~rng:t.rng ~estimates:t.visible
      ~routable:(routable_set t ~exclude:(-1)) ~n:t.n ~conn

(* Physical dispatch: credit, probe bookkeeping, forward to the server's
   ingress (link faults and crash filters are composed outside). *)
let[@zygos.hot] send t server (req : Request.t) =
  t.outstanding.(server) <- t.outstanding.(server) +. 1.;
  t.dispatched <- t.dispatched + 1;
  t.per_server.(server) <- t.per_server.(server) + 1;
  (match t.health with
  | None -> ()
  | Some h -> (Health.note_probe h server ~now:(Sim.now t.sim) [@zygos.allow "r6,r7"]));
  (* the rack's ingress, ending in the server's [@zygos.hot] submit *)
  (t.forward server req [@zygos.allow "r6"])

let arm_detection t e =
  match t.detect with
  | None -> ()
  | Some d ->
      (Sim.key_buffer t.sim).(0) <- Sim.now t.sim +. d.timeout;
      e.e_timeout <- Sim.schedule_fn_keyed t.sim t.fn_timeout e.e_id

let arm_hedge t e =
  if hedging t && t.n > 1 && e.e_hedge = no_handle && e.e_hedge_server < 0 then begin
    (Sim.key_buffer t.sim).(0) <- Sim.now t.sim +. t.hedge_delay;
    e.e_hedge <- Sim.schedule_fn_keyed t.sim t.fn_hedge e.e_id
  end

(* Dispatch [req] as the current primary copy of [e]. *)
let dispatch_primary t e (req : Request.t) server =
  e.e_server <- server;
  arm_detection t e;
  arm_hedge t e;
  send t server req

let[@zygos.hot] enqueue_tor t (req : Request.t) =
  Engine.Intq.push t.tor_queue req;
  t.tor_queued <- t.tor_queued + 1;
  let depth = Engine.Intq.length t.tor_queue in
  if depth > t.tor_peak then t.tor_peak <- depth

(* JBSQ handoff: responses (and recoveries) free credits; drain the
   central FIFO into whichever servers have slots. *)
let[@zygos.hot] drain_tor t =
  if t.bound < max_int then begin
    let continue_ = ref true in
    while !continue_ && not (Engine.Intq.is_empty t.tor_queue) do
      match
        choose t ~conn:(Request.conn t.pool (Engine.Intq.peek t.tor_queue)) ~exclude:(-1)
      with
      | -1 -> continue_ := false
      | server ->
          let req = Engine.Intq.pop t.tor_queue in
          if t.tracked then
            (match Hashtbl.find_opt t.entries (Request.id t.pool req) with
            | Some e when not e.e_done -> dispatch_primary t e req server
            | Some _ | None -> ())
            [@zygos.allow "r6"]
          else send t server req
    done
  end

(* A down server whose probe slot is open, or -1. Queue-aware policies
   would never volunteer one (its leaked credits keep its estimate high),
   so probing is the dispatcher's job: the next fresh arrival is routed to
   it as the probe, bypassing the policy and the JBSQ bound (a dead
   server's stuck credits must not block its own liveness check). *)
let[@zygos.hot] probe_target t =
  match t.health with
  | None -> -1
  | Some h ->
      (let now = Sim.now t.sim in
       let rec scan i =
         if i >= t.n then -1
         else if Health.is_down h i && Health.routable h i ~now then i
         else scan (i + 1)
       in
       scan 0)
      [@zygos.allow "hot-alloc,r6,r7"]

(* Route [req] ([e]'s first copy or a failover copy when tracked) to the
   policy's choice among the servers other than [exclude]. Under JBSQ it
   never overtakes requests already held at the ToR (FIFO fairness) and
   waits there when no server has a credit; under other policies a request
   with no routable server is lost (a client retry layer may resend it
   under a fresh id). *)
let[@zygos.hot] route t e (req : Request.t) ~exclude =
  if t.bound < max_int && not (Engine.Intq.is_empty t.tor_queue) then enqueue_tor t req
  else
    match choose t ~conn:(Request.conn t.pool req) ~exclude with
    | -1 ->
        if t.bound < max_int then enqueue_tor t req
        else t.no_route_drops <- t.no_route_drops + 1
    | server -> (
        match e with
        | None -> send t server req
        | Some e -> (dispatch_primary t e req server [@zygos.allow "r6"]))

let[@zygos.hot] submit t (req : Request.t) =
  let e =
    if not t.tracked then None
    else
      (* one entry per logical request, holding its first copy *)
      (let id = Request.id t.pool req in
       let e =
         {
           e_id = id;
           e_req = req;
           e_attempts = 0;
           e_server = -1;
           e_hedge_server = -1;
           e_timeout = no_handle;
           e_hedge = no_handle;
           e_done = false;
         }
       in
       Hashtbl.replace t.entries id e;
       Some e)
      [@zygos.allow "hot-alloc,r6"]
  in
  let probe = probe_target t in
  if probe < 0 then route t e req ~exclude:(-1)
  else
    match e with
    | None -> send t probe req
    | Some e -> (dispatch_primary t e req probe [@zygos.allow "r6"])

(* Copy a request for a failover or hedge dispatch: same logical identity
   (id, conn, arrival, service, measured) so client-side latency spans
   from the original arrival, but a fresh pool slot so two servers never
   race on the same mutable started/completion fields. A copying rack
   never recycles its pool: a copy can outlive the first completion. *)
let copy_req t (req : Request.t) =
  let p = t.pool in
  let s = Request.slot p req in
  t.copy_times.(0) <- (Request.arrivals p).(s);
  t.copy_times.(1) <- (Request.services p).(s);
  Request.alloc p ~id:(Request.id_at p s) ~conn:(Request.conn_at p s)
    ~measured:(Request.measured_at p s) t.copy_times

let on_timeout t id =
  match Hashtbl.find_opt t.entries id with
  | None -> ()
  | Some e ->
      e.e_timeout <- no_handle;
      if not e.e_done then begin
        match t.detect with
        | None -> ()
        | Some d ->
            let now = Sim.now t.sim in
            (match t.health with
            | None -> ()
            | Some h -> Health.note_timeout h e.e_server ~now);
            if e.e_attempts >= d.max_retries then
              t.failover_exhausted <- t.failover_exhausted + 1
            else begin
              e.e_attempts <- e.e_attempts + 1;
              let delay = Net.Loadgen.backoff t.rng ~attempt:e.e_attempts in
              (Sim.key_buffer t.sim).(0) <- Sim.now t.sim +. delay;
              ignore (Sim.schedule_fn_keyed t.sim t.fn_failover id : Sim.handle)
            end
      end

let on_failover t id =
  match Hashtbl.find_opt t.entries id with
  | None -> ()
  | Some e ->
      if not e.e_done then begin
        t.failovers <- t.failovers + 1;
        (* Prefer any server other than the one that just timed out. *)
        route t (Some e) (copy_req t e.e_req) ~exclude:e.e_server
      end

let on_hedge t id =
  match Hashtbl.find_opt t.entries id with
  | None -> ()
  | Some e ->
      e.e_hedge <- no_handle;
      if (not e.e_done) && t.n > 1 then
        (* Hedge to the best server other than the primary; the copy
           carries no detection timer — the primary's timer still governs
           failover. *)
        match choose t ~conn:(Request.conn t.pool e.e_req) ~exclude:e.e_server with
        | -1 -> ()
        | server ->
            let req = copy_req t e.e_req in
            e.e_hedge_server <- server;
            t.hedges <- t.hedges + 1;
            send t server req

let[@zygos.hot] on_response t ~server (req : Request.t) =
  let left = t.outstanding.(server) -. 1. in
  t.outstanding.(server) <- (if left > 0. then left else 0.);
  (match t.health with
  | None -> ()
  | Some h ->
      (let was_down = Health.is_down h server in
       Health.note_response h server ~now:(Sim.now t.sim);
       if was_down then begin
         (* Reconnect semantics: timeouts may have leaked credits while the
            server was unreachable; restart its window from empty and push
            the corrected value past the feedback delay. *)
         t.outstanding.(server) <- 0.;
         Estimate.force t.est server;
         t.credit_resyncs <- t.credit_resyncs + 1
       end)
      [@zygos.allow "r6,r7"]);
  (* [respond] is the client's [@zygos.hot] completion *)
  (if not t.tracked then (t.respond req [@zygos.allow "r6"])
   else
     (match Hashtbl.find_opt t.entries (Request.id t.pool req) with
     | None -> t.respond req
     | Some e ->
         if e.e_done then t.duplicates_dropped <- t.duplicates_dropped + 1
         else begin
           e.e_done <- true;
           if server = e.e_hedge_server then t.hedge_wins <- t.hedge_wins + 1;
           if e.e_timeout <> no_handle then begin
             Sim.cancel t.sim e.e_timeout;
             e.e_timeout <- no_handle
           end;
           if e.e_hedge <> no_handle then begin
             Sim.cancel t.sim e.e_hedge;
             e.e_hedge <- no_handle
           end;
           t.respond req
         end)
     [@zygos.allow "r6"]);
  drain_tor t

let create sim ~pool ~n ~policy ~rng ?(feedback_delay = 0.) ?(feedback_until = 0.) ?detect
    ?hedge ~respond () =
  if n < 1 then invalid_arg "Dispatch: n < 1";
  if n > 62 then invalid_arg "Dispatch: more than 62 servers";
  Policy.validate policy;
  Option.iter Net.Loadgen.validate_retry detect;
  (match hedge with
  | None -> ()
  | Some h ->
      if Float.is_nan h || h <= 0. then invalid_arg "Dispatch: hedge delay <= 0");
  let outstanding = Array.make n 0. in
  let tracked = Option.is_some detect || Option.is_some hedge in
  let est = Estimate.create sim ~live:outstanding ~delay:feedback_delay ~until:feedback_until () in
  let t =
    {
      sim;
      rng;
      pool;
      n;
      policy;
      bound = Policy.bound policy;
      rss = Net.Rss.create ~queues:n ();
      outstanding;
      est;
      visible = Estimate.visible est;
      detect;
      health = Option.map (fun _ -> Health.create ~n) detect;
      hedge_delay = (match hedge with Some h -> h | None -> nan);
      tracked;
      entries = Hashtbl.create (if tracked then 4096 else 1);
      tor_queue = Engine.Intq.create ();
      copy_times = [| 0.; 0. |];
      forward = (fun _ _ -> invalid_arg "Dispatch: no servers attached");
      respond;
      dispatched = 0;
      per_server = Array.make n 0;
      tor_queued = 0;
      tor_peak = 0;
      no_route_drops = 0;
      failovers = 0;
      failover_exhausted = 0;
      hedges = 0;
      hedge_wins = 0;
      duplicates_dropped = 0;
      credit_resyncs = 0;
      fn_timeout = ignore;
      fn_failover = ignore;
      fn_hedge = ignore;
    }
  in
  t.fn_timeout <- (fun id -> on_timeout t id);
  t.fn_failover <- (fun id -> on_failover t id);
  t.fn_hedge <- (fun id -> on_hedge t id);
  t

let set_forward t forward = t.forward <- forward

let tor_depth t = Engine.Intq.length t.tor_queue

let health t = t.health

let info t =
  let base =
    [
      ("rack_dispatched", float_of_int t.dispatched);
      ("rack_tor_queued", float_of_int t.tor_queued);
      ("rack_tor_peak", float_of_int t.tor_peak);
      ("rack_no_route_drops", float_of_int t.no_route_drops);
      ("rack_failovers", float_of_int t.failovers);
      ("rack_failover_exhausted", float_of_int t.failover_exhausted);
      ("rack_hedges", float_of_int t.hedges);
      ("rack_hedge_wins", float_of_int t.hedge_wins);
      ("rack_duplicates_dropped", float_of_int t.duplicates_dropped);
      ("rack_credit_resyncs", float_of_int t.credit_resyncs);
      ("est_refreshes", float_of_int (Estimate.refreshes t.est));
    ]
  in
  let per_server =
    List.init t.n (fun i ->
        (Printf.sprintf "rack_dispatched_s%d" i, float_of_int t.per_server.(i)))
  in
  let health = match t.health with None -> [] | Some h -> Health.info h in
  base @ per_server @ health

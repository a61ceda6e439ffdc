module Sim = Engine.Sim
module Rng = Engine.Rng
module Dist = Engine.Dist

type conn_selection =
  | Uniform
  | Hot_cold of { hot_fraction : float; hot_load : float }

type retry = { timeout : float; max_retries : int }

let validate_retry r =
  if Float.is_nan r.timeout || r.timeout <= 0. then invalid_arg "Loadgen.retry: timeout <= 0";
  if r.max_retries < 0 then invalid_arg "Loadgen.retry: max_retries < 0"

let retry ?(timeout = 200.) ?(max_retries = 3) () =
  let r = { timeout; max_retries } in
  validate_retry r;
  r

(* Backoff before a retransmission: the first waits [backoff_base] µs,
   each later one twice the last, up to [backoff_max], stretched by a
   jitter factor in [1, 1 + jitter). *)
let backoff_base = 50.
let backoff_max = 800.
let jitter = 0.2

let[@zygos.hot] backoff rng ~attempt =
  if attempt < 1 then invalid_arg "Loadgen.backoff: attempt < 1";
  (* The exponent is bounded first so huge attempt numbers cannot
     overflow the float. *)
  let doublings = min (attempt - 1) 60 in
  let nominal = backoff_base *. Float.pow 2. (float_of_int doublings) in
  let nominal = if nominal > backoff_max then backoff_max else nominal in
  (* Sampling returns a fresh float by contract; the box is part of the
     measured per-retry budget. *)
  nominal *. (1. +. (jitter *. (Rng.float rng [@zygos.allow "r7"])))

(* One logical request whose response is still awaited: the original send
   plus any retransmissions. Only allocated when retries are enabled. *)
type pending = {
  p_id : int;  (* logical id = physical id of the original send *)
  p_conn : int;
  p_service : float;
  p_measured : bool;
  p_first_arrival : float;
  mutable p_attempts : int;  (* retransmissions sent so far *)
  mutable p_timeout : Sim.handle;  (* [no_timeout] when no timer is armed *)
  mutable p_done : bool;
}

(* Stored flat instead of as a [handle option]: saves a [Some]
   allocation per armed timeout. *)
let no_timeout : Sim.handle = Sim.no_handle

type t = {
  sim : Sim.t;
  clk : float array;  (* [Sim.clock_buffer sim]: inline now-reads on hot paths *)
  kbuf : float array;  (* [Sim.key_buffer sim]: keyed schedules, no boxed time *)
  rng : Rng.t;
  pool : Request.pool;  (* the experiment's request arena *)
  conns : int;
  rate : float;
  gap : Dist.t;  (* inter-arrival gaps: exponential, mean [1 / rate] *)
  service : Dist.t;
  (* Flat floats, so none crosses a call boxed: the next request's
     arrival and service (what [Request.alloc] reads), then a gap or a
     latency. *)
  scratch : float array;
  selection : conn_selection;
  slo : float;
  retry : retry option;
  retry_rng : Rng.t;  (* dedicated stream for backoff jitter *)
  pending : (int, pending) Hashtbl.t;  (* logical id -> state *)
  phys2log : (int, int) Hashtbl.t;  (* retransmission id -> logical id *)
  mutable target : (Request.t -> unit) option;
  mutable next_id : int;
  mutable generated : int;
  mutable measured_generated : int;
  mutable measured_completed : int;
  mutable order_violations : int;
  mutable duplicate_completions : int;
  mutable retries : int;
  mutable timeouts : int;
  mutable retry_exhausted : int;
  mutable goodput_completions : int;
  mutable measure_span : float;
  mutable measure_start : float;
  mutable measure_end : float;
  mutable window_completions : int;
  latencies : Stats.Tally.t;
  outstanding : Engine.Intqs.t;  (* per-conn FIFOs of pending request ids *)
  (* Long-lived timeout/retransmit dispatch fns ([Sim.schedule_fn_keyed]),
     keyed by logical request id; bound in [create] when retries are on. *)
  mutable fn_timeout : int -> unit;
  mutable fn_retry : int -> unit;
}

let set_target t f = t.target <- Some f

let[@zygos.hot] send t req =
  match t.target with
  (* Dynamic dispatch: the target is the server's ingress, itself a
     certified [@zygos.hot] entry point ([Zygos.handle_request]). *)
  | Some f -> (f req [@zygos.allow "r6"])
  | None -> invalid_arg "Loadgen: no target set"

(* ---- client-side resilience: timeouts, capped backoff, retransmission ---- *)

let[@zygos.hot] arm_timeout t p (r : retry) =
  (* Keyed hand-off: the expiry time is written flat into the key
     buffer instead of boxed at the call. *)
  t.kbuf.(0) <- t.clk.(0) +. r.timeout;
  p.p_timeout <- Sim.schedule_fn_keyed t.sim t.fn_timeout p.p_id

let[@zygos.hot] on_timeout t p r =
  t.timeouts <- t.timeouts + 1;
  if p.p_attempts >= r.max_retries then
    (* Retry budget exhausted: give up on this request. A straggling
       response may still arrive and complete it (late, beyond SLO). *)
    t.retry_exhausted <- t.retry_exhausted + 1
  else begin
    p.p_attempts <- p.p_attempts + 1;
    let delay = backoff t.retry_rng ~attempt:p.p_attempts in
    (* Keyed hand-off, as in [arm_timeout]: bit-identical fire time. *)
    t.kbuf.(0) <- t.clk.(0) +. delay;
    let _ : Sim.handle = Sim.schedule_fn_keyed t.sim t.fn_retry p.p_id in
    ()
  end

and retransmit t p r =
  let id = t.next_id in
  t.scratch.(0) <- t.clk.(0);
  t.scratch.(1) <- p.p_service;
  let req = Request.alloc t.pool ~id ~conn:p.p_conn ~measured:false t.scratch in
  t.next_id <- t.next_id + 1;
  t.retries <- t.retries + 1;
  Hashtbl.replace t.phys2log id p.p_id;
  arm_timeout t p r;
  send t req

let create sim ~rng ~pool ~conns ~rate ~service ?(selection = Uniform) ?(slo = infinity)
    ?retry () =
  if conns < 1 then invalid_arg "Loadgen.create: conns < 1";
  if Float.is_nan rate || rate <= 0. then invalid_arg "Loadgen.create: rate <= 0";
  if Float.is_nan slo || slo <= 0. then invalid_arg "Loadgen.create: slo <= 0";
  Option.iter validate_retry retry;
  (match selection with
  | Uniform -> ()
  | Hot_cold { hot_fraction; hot_load } ->
      if
        not (hot_fraction > 0. && hot_fraction < 1. && hot_load > 0. && hot_load < 1.)
      then invalid_arg "Loadgen.create: Hot_cold fractions must be in (0, 1)");
  let t =
    {
      sim;
      clk = Sim.clock_buffer sim;
      kbuf = Sim.key_buffer sim;
      rng;
      pool;
      conns;
      rate;
      gap = Dist.exponential (1. /. rate);
      service;
      scratch = Array.make 3 0.;
      selection;
      slo;
      retry;
      (* Split only when retries are on: with [retry = None] the generator's
         draw sequence is bit-identical to the pre-retry implementation,
         and nothing draws from [retry_rng]. *)
      retry_rng = (match retry with Some _ -> Rng.split rng | None -> rng);
      pending = Hashtbl.create (if Option.is_none retry then 1 else 1024);
      phys2log = Hashtbl.create (if Option.is_none retry then 1 else 1024);
      target = None;
      next_id = 0;
      generated = 0;
      measured_generated = 0;
      measured_completed = 0;
      order_violations = 0;
      duplicate_completions = 0;
      retries = 0;
      timeouts = 0;
      retry_exhausted = 0;
      goodput_completions = 0;
      measure_span = 0.;
      measure_start = infinity;
      measure_end = infinity;
      window_completions = 0;
      latencies = Stats.Tally.create ();
      outstanding = Engine.Intqs.create ~queues:conns ();
      fn_timeout = ignore;
      fn_retry = ignore;
    }
  in
  (match retry with
  | None -> ()
  | Some r ->
      (* Pending entries are never removed (p_done guards stale copies),
         so a fired timer always finds its state. *)
      t.fn_timeout <-
        (fun id ->
          match Hashtbl.find_opt t.pending id with
          | None -> ()
          | Some p ->
              p.p_timeout <- no_timeout;
              if not p.p_done then on_timeout t p r) [@zygos.hot];
      t.fn_retry <-
        (fun id ->
          match Hashtbl.find_opt t.pending id with
          | Some p when not p.p_done -> retransmit t p r
          | Some _ | None -> ()) [@zygos.hot]);
  t

let[@zygos.hot] emit t ~measure_start ~stop_at =
  let now = t.clk.(0) in
  let conn =
    match t.selection with
    | Uniform -> Rng.int t.rng t.conns
    | Hot_cold { hot_fraction; hot_load } ->
        let hot_count = max 1 (int_of_float (hot_fraction *. float_of_int t.conns)) in
        (* Biased coin per arrival: the boxed probability argument is part
           of the measured per-request budget. *)
        if (Rng.bernoulli t.rng hot_load [@zygos.allow "r7"]) then Rng.int t.rng hot_count
        else if t.conns > hot_count then hot_count + Rng.int t.rng (t.conns - hot_count)
        else Rng.int t.rng t.conns
  in
  t.scratch.(0) <- now;
  Dist.sample_into t.service t.rng t.scratch 1;
  let measured = now >= measure_start && now < stop_at in
  let id = t.next_id in
  let req = Request.alloc t.pool ~id ~conn ~measured t.scratch in
  t.next_id <- t.next_id + 1;
  t.generated <- t.generated + 1;
  if measured then t.measured_generated <- t.measured_generated + 1;
  (match t.retry with
  | None ->
      (* Per-connection ordering bookkeeping (see [complete]). With retries
         on, the queues are unused: retransmissions make the FIFO invariant
         meaningless, so losses surface as timeouts instead. *)
      Engine.Intqs.push t.outstanding conn id
  | Some r ->
      (* Per-logical-request state, retry mode only: one record per
         request for its whole lifetime, not per event. *)
      let p =
        {
          p_id = id;
          p_conn = conn;
          p_service = t.scratch.(1);
          p_measured = measured;
          p_first_arrival = now;
          p_attempts = 0;
          p_timeout = no_timeout;
          p_done = false;
        }
        [@zygos.allow "hot-alloc"]
      in
      (* Retry mode only: one table write per logical request lifetime. *)
      (Hashtbl.replace t.pending p.p_id p [@zygos.allow "hot-alloc"]);
      arm_timeout t p r);
  send t req

let start t ~warmup ~measure =
  if Option.is_none t.target then invalid_arg "Loadgen.start: no target set";
  (* Written so NaN fails too; an infinite window would never stop
     generating. *)
  if not (measure > 0. && measure < infinity) then
    invalid_arg "Loadgen.start: measure must be finite and > 0";
  if not (warmup >= 0. && warmup < infinity) then
    invalid_arg "Loadgen.start: warmup must be finite and >= 0";
  let t0 = Sim.now t.sim in
  let measure_start = t0 +. warmup in
  let stop_at = measure_start +. measure in
  t.measure_span <- measure;
  t.measure_start <- measure_start;
  t.measure_end <- stop_at;
  (* Room for the window's Poisson arrival count up to mean + 4 sigma,
     so the reservoir does not double, leaving garbage, in the window. *)
  let expected = t.rate *. measure in
  Stats.Tally.reserve t.latencies (int_of_float (expected +. (4. *. sqrt expected) +. 16.));
  (* The next arrival is one drawn gap after now, handed over flat. *)
  let rec schedule_arrival () =
    Dist.sample_into t.gap t.rng t.scratch 2;
    t.kbuf.(0) <- t.clk.(0) +. t.scratch.(2);
    ignore (Sim.schedule_fn_keyed t.sim arrival 0 : Sim.handle)
  and arrival _ =
    if t.clk.(0) < stop_at then begin
      emit t ~measure_start ~stop_at;
      schedule_arrival ()
    end
  in
  schedule_arrival ()

(* Record a distinct logical completion, now, with its latency in
   scratch slot 2. *)
let[@zygos.hot] record_completion t ~measured =
  let now = t.clk.(0) in
  if now >= t.measure_start && now < t.measure_end then
    t.window_completions <- t.window_completions + 1;
  if measured then begin
    if now < t.measure_end then begin
      t.measured_completed <- t.measured_completed + 1;
      (* Goodput: distinct measured requests whose response made the SLO,
         completed inside the window — the metric that collapses under a
         retry storm while raw throughput still looks healthy. *)
      if t.scratch.(2) <= t.slo then
        t.goodput_completions <- t.goodput_completions + 1
    end;
    (* Latency is recorded for every measured request, so overload shows
       up in the tail. *)
    Stats.Tally.record_from t.latencies t.scratch 2
  end

let[@zygos.hot] complete t (req : Request.t) =
  let s = Request.slot t.pool req in
  let completions = Request.completions t.pool in
  if completions.(s) >= 0. then
    (* Duplicate responses are legitimate under packet duplication and
       under client retries; count them instead of raising. *)
    t.duplicate_completions <- t.duplicate_completions + 1
  else begin
    completions.(s) <- t.clk.(0);
    let rid = Request.id_at t.pool s in
    (match t.retry with
    | None ->
        (* Per-connection ordering check (§4.3): the completed request must
           be the oldest outstanding one on its connection. *)
        let conn = Request.conn_at t.pool s in
        let popped = Engine.Intqs.pop t.outstanding conn in
        if popped <> rid then begin
          t.order_violations <- t.order_violations + 1;
          (* Drop the stale entry for this id so the queue does not grow.
             (Matches the historical repair: the mismatched head stays
             dropped, later copies of [rid] are filtered out.) *)
          Engine.Intqs.remove_all t.outstanding conn rid
        end;
        t.scratch.(2) <- completions.(s) -. (Request.arrivals t.pool).(s);
        record_completion t ~measured:(Request.measured_at t.pool s)
    | Some _ -> (
        (* Retry-mode lookups; the [Some] boxes are retry bookkeeping,
           absent from the clean fast path. *)
        let log_id =
          match (Hashtbl.find_opt t.phys2log rid [@zygos.allow "hot-alloc"]) with
          | Some l -> l
          | None -> rid
        in
        match (Hashtbl.find_opt t.pending log_id [@zygos.allow "hot-alloc"]) with
        | None -> ()  (* completed before [start] armed any state; ignore *)
        | Some p ->
            if p.p_done then
              (* A different copy of this logical request already came
                 back: the response this retransmission earned. *)
              t.duplicate_completions <- t.duplicate_completions + 1
            else begin
              p.p_done <- true;
              if p.p_timeout <> no_timeout then begin
                Sim.cancel t.sim p.p_timeout;
                p.p_timeout <- no_timeout
              end;
              (* Client-observed latency spans from the first send, not the
                 retransmission that finally got through. *)
              t.scratch.(2) <- t.clk.(0) -. p.p_first_arrival;
              record_completion t ~measured:p.p_measured
            end));
    (* The client is the end of the line for a response: hand the slot
       back. A no-op unless the pool recycles (clean fast path only). *)
    Request.release_at t.pool s
  end

let tally t = t.latencies

let generated t = t.generated

let measured_generated t = t.measured_generated

let measured_completed t = t.measured_completed

let order_violations t = t.order_violations

let duplicate_completions t = t.duplicate_completions

let retries t = t.retries

let timeouts t = t.timeouts

let retry_exhausted t = t.retry_exhausted

let throughput t =
  if t.measure_span = 0. then 0. else float_of_int t.window_completions /. t.measure_span

let goodput t =
  if t.measure_span = 0. then 0. else float_of_int t.goodput_completions /. t.measure_span

module Sim = Engine.Sim
module Request = Net.Request

(* Context-switch cost of a preemption (µs). *)
let switch_cost = 0.3

(* The consolidation controller's window (µs), the utilization below which
   it parks a core and above which it unparks one, and a woken core's
   wakeup latency (µs). *)
let window = 200.
let low_util = 0.5
let high_util = 0.85
let unpark_latency = 10.

type state = {
  runq : Engine.Intq.t;  (* centralized, preemptible run queue of request handles *)
  mutable remaining : float array;  (* per request slot: service µs still to run *)
  mutable dispatched : bool array;  (* per request slot: receive path paid *)
  mutable idle_cores : int;
  mutable parked : int;  (* consolidation: cores taken out of service *)
  mutable active_target : int;
  conn_busy : bool array;
  conn_pending : Engine.Intqs.t;  (* per-connection requests parked behind a busy one *)
  mutable preemptions : int;
  mutable completed : int;
  totals : float array;
      (* [| core-busy µs, for utilization; active cores integrated over
         time |]: a mutable float field here would box every update *)
  mutable windows : int;
}

let create sim (p : Params.t) ~quantum ~pool ~conns ~respond ?(consolidate = false) () =
  let p = Params.validate p in
  if Float.is_nan quantum || quantum <= 0. then invalid_arg "Preemptive.create: quantum <= 0";
  (* Slices migrate between cores, so a per-core slowdown window has no
     core to slow down. *)
  if not (Core.Corefault.is_none (Params.corefaults p)) then
    invalid_arg "Preemptive.create: straggler windows are not modelled";
  let st =
    {
      runq = Engine.Intq.create ();
      remaining = Array.make 64 0.;
      dispatched = Array.make 64 false;
      idle_cores = p.cores;
      parked = 0;
      active_target = p.cores;
      conn_busy = Array.make conns false;
      conn_pending = Engine.Intqs.create ~queues:conns ();
      preemptions = 0;
      completed = 0;
      totals = Array.make 2 0.;
      windows = 0;
    }
  in
  let pkts = float_of_int p.rpc_packets in
  let clk = Sim.clock_buffer sim and kbuf = Sim.key_buffer sim in
  let active () = p.cores - st.parked in
  (* Events carry the request handle as their int payload, and a job's
     state lives in the per-slot columns, so per-slice and
     per-completion events allocate nothing. [submit] grows the columns
     to cover every slot before the job can start. A duplicated packet
     re-submits the same handle, so starting resets both columns and the
     copy pays the receive path again. *)
  let[@zygos.hot] start req =
    let s = Request.slot pool req in
    st.remaining.(s) <- (Request.services pool).(s);
    st.dispatched.(s) <- false
  in
  let[@zygos.hot] rec run_slice ~resume_cost req =
    let s = Request.slot pool req in
    let slice = Float.min quantum st.remaining.(s) in
    let setup =
      if st.dispatched.(s) then resume_cost
      else begin
        (* First dispatch pays the receive path. *)
        st.dispatched.(s) <- true;
        p.dp_loop +. (pkts *. p.dp_rx)
      end
    in
    let starteds = Request.starteds pool in
    if starteds.(s) < 0. then
      starteds.(s) <- Sim.now sim +. setup;
    st.totals.(0) <- st.totals.(0) +. setup +. slice;
    kbuf.(0) <- clk.(0) +. (setup +. slice);
    let _ : Sim.handle = Sim.schedule_fn_keyed sim fn_slice_end req in
    ()
  and fn_slice_end req =
    (let s = Request.slot pool req in
     (* [remaining] is untouched between schedule and fire, so this
        recomputes exactly the slice the event was scheduled for. *)
     let slice = Float.min quantum st.remaining.(s) in
     st.remaining.(s) <- st.remaining.(s) -. slice;
     if st.remaining.(s) <= 1e-9 then finish req else preempt req)
  [@@zygos.hot]
  and finish req =
    (st.totals.(0) <- st.totals.(0) +. (pkts *. p.dp_tx);
     kbuf.(0) <- clk.(0) +. (pkts *. p.dp_tx);
     let _ : Sim.handle = Sim.schedule_fn_keyed sim fn_finish req in
     ())
  [@@zygos.hot]
  and fn_finish req =
    (st.completed <- st.completed + 1;
     (* The handle dies at [respond] (the client may recycle its slot), so
        the connection is read out first. *)
     let conn = Request.conn pool req in
     respond req;
     (* Per-connection serialization (§4.3): promote the next queued
        request of this connection, if any. *)
     (if Engine.Intqs.is_empty st.conn_pending conn then st.conn_busy.(conn) <- false
      else begin
        let next = Engine.Intqs.pop st.conn_pending conn in
        start next;
        Engine.Intq.push st.runq next
      end);
     next_work ())
  [@@zygos.hot]
  and preempt req =
    (if Engine.Intq.is_empty st.runq then
       (* Nothing else to run: keep going, no context switch to pay. *)
       run_slice ~resume_cost:0. req
     else begin
       st.preemptions <- st.preemptions + 1;
       Engine.Intq.push st.runq req;
       run_slice ~resume_cost:switch_cost (Engine.Intq.pop st.runq)
     end)
  [@@zygos.hot]
  and next_work () =
    (* Consolidation: surplus cores park instead of idling. *)
    (if not (Engine.Intq.is_empty st.runq) then
       run_slice ~resume_cost:switch_cost (Engine.Intq.pop st.runq)
     else if active () > st.active_target then st.parked <- st.parked + 1
     else st.idle_cores <- st.idle_cores + 1)
  [@@zygos.hot]
  and fn_first req = (run_slice ~resume_cost:0. req) [@@zygos.hot] in
  let submit req =
    let s = Request.slot pool req in
    let cap = Array.length st.remaining in
    if s >= cap then begin
      let grown = max (2 * cap) (s + 1) in
      st.remaining <- Array.append st.remaining (Array.make (grown - cap) 0.);
      st.dispatched <- Array.append st.dispatched (Array.make (grown - cap) false)
    end;
    let conn = Request.conn pool req in
    if st.conn_busy.(conn) then Engine.Intqs.push st.conn_pending conn req
    else begin
      st.conn_busy.(conn) <- true;
      start req;
      if st.idle_cores > 0 then begin
        st.idle_cores <- st.idle_cores - 1;
        (* An idle core notices the packet within one poll iteration. *)
        kbuf.(0) <- clk.(0) +. p.dp_loop;
        let _ : Sim.handle = Sim.schedule_fn_keyed sim fn_first req in
        ()
      end
      else Engine.Intq.push st.runq req
    end
  in
  (* ---- consolidation controller ---- *)
  if consolidate then begin
    let last_busy = ref 0. in
    let quiet = ref 0 in
    (* The woken core joins the pool and pulls work if any. *)
    let woken (_ : int) =
      if Engine.Intq.is_empty st.runq then st.idle_cores <- st.idle_cores + 1
      else run_slice ~resume_cost:switch_cost (Engine.Intq.pop st.runq)
    in
    let unpark () =
      st.parked <- st.parked - 1;
      kbuf.(0) <- clk.(0) +. unpark_latency;
      let _ : Sim.handle = Sim.schedule_fn_keyed sim woken 0 in
      ()
    in
    let rec tick (_ : int) =
      st.windows <- st.windows + 1;
      let act = active () in
      st.totals.(1) <- st.totals.(1) +. (float_of_int act *. window);
      let busy = st.totals.(0) -. !last_busy in
      last_busy := st.totals.(0);
      let util = busy /. (float_of_int (max 1 act) *. window) in
      if busy = 0. && Engine.Intq.is_empty st.runq then incr quiet else quiet := 0;
      if util < low_util && st.active_target > 1 then begin
        st.active_target <- st.active_target - 1;
        (* Park an idle core immediately if one exists. *)
        if active () > st.active_target && st.idle_cores > 0 then begin
          st.idle_cores <- st.idle_cores - 1;
          st.parked <- st.parked + 1
        end
      end
      else if util > high_util && st.active_target < p.cores then begin
        st.active_target <- st.active_target + 1;
        if st.parked > 0 then unpark ()
      end;
      if !quiet < 2 then arm ()
    and arm () =
      kbuf.(0) <- clk.(0) +. window;
      ignore (Sim.schedule_fn_keyed sim tick 0 : Sim.handle)
    in
    arm ()
  end;
  let info () =
    let base =
      [
        ("preemptions", float_of_int st.preemptions);
        ( "preemptions_per_request",
          if st.completed = 0 then 0.
          else float_of_int st.preemptions /. float_of_int st.completed );
      ]
    in
    if not consolidate then base
    else
      let elapsed = float_of_int st.windows *. window in
      base
      @ [
          ( "avg_active_cores",
            if elapsed = 0. then float_of_int p.cores else st.totals.(1) /. elapsed );
          ("consolidation_windows", float_of_int st.windows);
        ]
  in
  { Iface.submit; info }

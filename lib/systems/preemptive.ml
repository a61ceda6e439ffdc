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

type job = {
  req : Request.t;
  mutable remaining : float;
  mutable dispatched : bool;
  mutable slot : int;  (* index in the job registry, -1 when unregistered *)
}

(* Registry placeholder; also the content of freed registry slots. *)
let no_job = { req = Request.none; remaining = 0.; dispatched = true; slot = -1 }

type state = {
  runq : job Queue.t;  (* centralized, preemptible run queue *)
  mutable idle_cores : int;
  mutable parked : int;  (* consolidation: cores taken out of service *)
  mutable active_target : int;
  conn_busy : bool array;
  conn_pending : Engine.Intqs.t;  (* per-connection requests parked behind a busy one *)
  mutable preemptions : int;
  mutable completed : int;
  mutable busy_accum : float;  (* total core-busy µs, for utilization *)
  mutable core_time : float;  (* integral of active cores over time *)
  mutable windows : int;
}

let create sim (p : Params.t) ~quantum ~pool ~conns ~respond ?(consolidate = false) () =
  let p = Params.validate p in
  if Float.is_nan quantum || quantum <= 0. then invalid_arg "Preemptive.create: quantum <= 0";
  let st =
    {
      runq = Queue.create ();
      idle_cores = p.cores;
      parked = 0;
      active_target = p.cores;
      conn_busy = Array.make conns false;
      conn_pending = Engine.Intqs.create ~queues:conns ();
      preemptions = 0;
      completed = 0;
      busy_accum = 0.;
      core_time = 0.;
      windows = 0;
    }
  in
  let pkts = float_of_int p.rpc_packets in
  let clk = Sim.clock_buffer sim and kbuf = Sim.key_buffer sim in
  let active () = p.cores - st.parked in
  (* Job registry: maps the immediate int payload of closure-free events
     back to the job, so per-slice and per-completion events allocate
     nothing. Slots recycle through a stack, like the Sim event pool. *)
  let jobs = ref (Array.make 64 no_job) in
  let job_free = ref (Array.make 64 0) in
  let job_free_top = ref 0 in
  let job_fresh = ref 0 in
  let register_job job =
    let s =
      if !job_free_top > 0 then begin
        decr job_free_top;
        !job_free.(!job_free_top)
      end
      else begin
        if !job_fresh = Array.length !jobs then begin
          let cap = Array.length !jobs in
          let grown = Array.make (2 * cap) no_job in
          Array.blit !jobs 0 grown 0 cap;
          jobs := grown;
          let free' = Array.make (2 * cap) 0 in
          Array.blit !job_free 0 free' 0 !job_free_top;
          job_free := free'
        end;
        let s = !job_fresh in
        incr job_fresh;
        s
      end
    in
    !jobs.(s) <- job;
    job.slot <- s
  in
  let unregister_job job =
    !jobs.(job.slot) <- no_job;
    !job_free.(!job_free_top) <- job.slot;
    incr job_free_top;
    job.slot <- -1
  in
  let[@zygos.hot] rec run_slice ~resume_cost job =
    let slice = Float.min quantum job.remaining in
    let setup =
      if job.dispatched then resume_cost
      else begin
        (* First dispatch pays the receive path. *)
        job.dispatched <- true;
        p.dp_loop +. (pkts *. p.dp_rx)
      end
    in
    let starteds = Request.starteds pool and s = Request.slot pool job.req in
    if Array.unsafe_get starteds s < 0. then
      Array.unsafe_set starteds s (Sim.now sim +. setup);
    st.busy_accum <- st.busy_accum +. setup +. slice;
    Array.unsafe_set kbuf 0 (Array.unsafe_get clk 0 +. (setup +. slice));
    let _ : Sim.handle = Sim.schedule_fn_keyed sim fn_slice_end job.slot in
    ()
  and fn_slice_end s =
    (let job = !jobs.(s) in
     (* [remaining] is untouched between schedule and fire, so this
        recomputes exactly the slice the event was scheduled for. *)
     let slice = Float.min quantum job.remaining in
     job.remaining <- job.remaining -. slice;
     if job.remaining <= 1e-9 then finish job else preempt job)
  [@@zygos.hot]
  and finish job =
    (st.busy_accum <- st.busy_accum +. (pkts *. p.dp_tx);
     Array.unsafe_set kbuf 0 (Array.unsafe_get clk 0 +. (pkts *. p.dp_tx));
     let _ : Sim.handle = Sim.schedule_fn_keyed sim fn_finish job.slot in
     ())
  [@@zygos.hot]
  and fn_finish s =
    (let job = !jobs.(s) in
     unregister_job job;
     st.completed <- st.completed + 1;
     (* The handle dies at [respond] (the client may recycle its slot), so
        the connection is read out first. *)
     let conn = Request.conn pool job.req in
     respond job.req;
     (* Per-connection serialization (§4.3): promote the next queued
        request of this connection, if any. The promoted job record is a
        per-logical-request allocation, not a per-event one. *)
     (if Engine.Intqs.is_empty st.conn_pending conn then st.conn_busy.(conn) <- false
      else begin
        let next = Engine.Intqs.pop st.conn_pending conn in
        let job =
          ({ req = next; remaining = (Request.services pool).(Request.slot pool next);
             dispatched = false; slot = -1 }
          [@zygos.allow "hot-alloc"])
        in
        register_job job;
        Queue.add job st.runq
      end);
     next_work ())
  [@@zygos.hot]
  and preempt job =
    (if Queue.is_empty st.runq then
       (* Nothing else to run: keep going, no context switch to pay. *)
       run_slice ~resume_cost:0. job
     else begin
       st.preemptions <- st.preemptions + 1;
       Queue.add job st.runq;
       match Queue.take_opt st.runq with
       | Some next -> run_slice ~resume_cost:switch_cost next
       | None -> assert false
     end)
  [@@zygos.hot]
  and next_work () =
    (match Queue.take_opt st.runq with
     | Some job -> run_slice ~resume_cost:switch_cost job
     | None ->
         (* Consolidation: surplus cores park instead of idling. *)
         if active () > st.active_target then st.parked <- st.parked + 1
         else st.idle_cores <- st.idle_cores + 1)
  [@@zygos.hot]
  and fn_first s = (run_slice ~resume_cost:0. !jobs.(s)) [@@zygos.hot] in
  let submit req =
    let conn = Request.conn pool req in
    if st.conn_busy.(conn) then Engine.Intqs.push st.conn_pending conn req
    else begin
      st.conn_busy.(conn) <- true;
      let remaining = (Request.services pool).(Request.slot pool req) in
      let job = { req; remaining; dispatched = false; slot = -1 } in
      register_job job;
      if st.idle_cores > 0 then begin
        st.idle_cores <- st.idle_cores - 1;
        (* An idle core notices the packet within one poll iteration. *)
        Array.unsafe_set kbuf 0 (Array.unsafe_get clk 0 +. p.dp_loop);
        let _ : Sim.handle = Sim.schedule_fn_keyed sim fn_first job.slot in
        ()
      end
      else Queue.add job st.runq
    end
  in
  (* ---- consolidation controller ---- *)
  if consolidate then begin
    let last_busy = ref 0. in
    let quiet = ref 0 in
    let unpark () =
      st.parked <- st.parked - 1;
      let _ : Sim.handle =
        Sim.schedule_after sim ~delay:unpark_latency (fun () ->
            (* The woken core joins the pool and pulls work if any. *)
            match Queue.take_opt st.runq with
            | Some job -> run_slice ~resume_cost:switch_cost job
            | None -> st.idle_cores <- st.idle_cores + 1)
      in
      ()
    in
    let rec tick () =
      st.windows <- st.windows + 1;
      let act = active () in
      st.core_time <- st.core_time +. (float_of_int act *. window);
      let busy = st.busy_accum -. !last_busy in
      last_busy := st.busy_accum;
      let util = busy /. (float_of_int (max 1 act) *. window) in
      if busy = 0. && Queue.is_empty st.runq then incr quiet else quiet := 0;
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
      if !quiet < 2 then ignore (Sim.schedule_after sim ~delay:window tick : Sim.handle)
    in
    ignore (Sim.schedule_after sim ~delay:window tick : Sim.handle)
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
            if elapsed = 0. then float_of_int p.cores else st.core_time /. elapsed );
          ("consolidation_windows", float_of_int st.windows);
        ]
  in
  { Iface.name = Printf.sprintf "preempt-q%g" quantum; submit; info }

module Sim = Engine.Sim
module Intq = Engine.Intq
module Intqs = Engine.Intqs
module Request = Net.Request
module Corefault = Core.Corefault

(* Per-request thread-side cost: read+write syscalls plus the kernel
   TCP/IP stack each way for every packet of the request/response. *)
let thread_overhead (p : Params.t) =
  (2. *. p.linux_syscall) +. (float_of_int p.rpc_packets *. 2. *. p.linux_netstack)

(* With no fault windows both modes compute a completion inline as
   [now +. work] (what [Corefault.completion_time] returns then) and
   schedule it keyed, so the fault-free path boxes no float. *)

(* ---- Partitioned: static connection->core assignment via RSS ---- *)

type pcore = {
  id : int;
  ring : Net.Ring.t;
  mutable busy : bool;
  mutable cur : Request.t;  (* request executing on this core, else [Request.none] *)
}

let partitioned sim (p : Params.t) ~pool ~conns ~respond =
  let p = Params.validate p in
  let faults = Params.corefaults p in
  let fault_free = Corefault.is_none faults in
  let clk = Sim.clock_buffer sim and kbuf = Sim.key_buffer sim in
  let rss = Net.Rss.create ~queues:p.cores () in
  let home = Array.init conns (fun c -> Net.Rss.queue_of_conn rss c) in
  let cores =
    Array.init p.cores (fun id ->
        { id; ring = Net.Ring.create ~capacity:p.ring_capacity; busy = false;
          cur = Request.none })
  in
  let per_request_overhead = p.linux_epoll +. thread_overhead p in
  let rec run_next c =
    (let req = Net.Ring.pop_or c.ring ~default:Request.none in
     if req = Request.none then c.busy <- false
     else begin
       let s = Request.slot pool req in
       let now = clk.(0) in
       (Request.starteds pool).(s) <- now;
       let work = per_request_overhead +. (Request.services pool).(s) in
       kbuf.(0) <-
         (if fault_free then now +. work
          else Corefault.completion_time faults ~core:c.id ~now ~work);
       c.cur <- req;
       let _ : Sim.handle = Sim.schedule_fn_keyed sim fn_done c.id in
       ()
     end)
  [@@zygos.hot]
  and fn_done id =
    (let c = cores.(id) in
     let req = c.cur in
     c.cur <- Request.none;
     respond req;
     run_next c)
  [@@zygos.hot]
  and fn_wake id = (run_next cores.(id)) [@@zygos.hot] in
  let[@zygos.hot] submit req =
    let c = cores.(home.(Request.conn pool req)) in
    if Net.Ring.push c.ring req then
      if not c.busy then begin
        c.busy <- true;
        (* The thread is blocked in epoll_wait; it resumes after the wakeup
           latency and then drains its queue. *)
        kbuf.(0) <- clk.(0) +. p.linux_wakeup;
        let _ : Sim.handle = Sim.schedule_fn_keyed sim fn_wake c.id in
        ()
      end
  in
  let info () =
    [
      ("backlog", float_of_int (Array.fold_left (fun acc c -> acc + Net.Ring.length c.ring) 0 cores));
      ("ring_drops", float_of_int (Array.fold_left (fun acc c -> acc + Net.Ring.drops c.ring) 0 cores));
    ]
  in
  { Iface.name = "linux-partitioned"; submit; info }

(* ---- Floating: one shared pool, any thread serves any connection ----

   Matches the paper's implementation: EPOLLEXCLUSIVE-style single-thread
   wakeups plus "a simple locking protocol to serialize access to the same
   socket". Two serialization effects are modelled:

   - per-connection exclusivity: a connection with a request in flight
     parks later requests until it completes; the released request
     re-enters the pool;
   - the shared pool itself: handing an event from the shared epoll set to
     a thread holds the pool lock, a single serial section all threads
     contend on (this is what caps floating's throughput for tiny tasks,
     cf. Figure 9's Linux curve). *)

type fstate = {
  dispatch_queue : Intq.t;  (* waiting for the pool hand-off *)
  mutable dispatcher_busy : bool;
  ready : Intq.t;  (* dispatched, waiting for a free thread *)
  conn_busy : bool array;
  conn_pending : Intqs.t;  (* per-connection requests parked behind a busy one *)
  mutable idle_threads : int;
  mutable backlog : int;  (* accepted, execution not yet started *)
  mutable drops : int;  (* refused: kernel backlog budget exhausted *)
  mutable next_thread : int;  (* round-robin core assignment of executions *)
}

let floating sim (p : Params.t) ~pool ~conns ~respond =
  let p = Params.validate p in
  let faults = Params.corefaults p in
  let fault_free = Corefault.is_none faults in
  let clk = Sim.clock_buffer sim and kbuf = Sim.key_buffer sim in
  (* The kernel buffers bursts in per-socket receive queues, not a NIC
     ring the application sees; the aggregate socket-buffer budget still
     bounds how far the backlog can grow before packets are refused. *)
  let backlog_capacity = p.ring_capacity * p.cores in
  let st =
    {
      dispatch_queue = Intq.create ();
      dispatcher_busy = false;
      ready = Intq.create ();
      conn_busy = Array.make conns false;
      conn_pending = Intqs.create ~queues:conns ();
      idle_threads = p.cores;
      backlog = 0;
      drops = 0;
      next_thread = 0;
    }
  in
  (* Only the pool-lock hand-off serializes; each woken thread performs
     its own epoll_wait in parallel (EPOLLEXCLUSIVE). *)
  let dispatch_cost = p.linux_lock in
  let overhead = thread_overhead p in
  let rec start ~woken req =
    (st.backlog <- st.backlog - 1;
     (* Threads are unpinned; model the antagonist by spreading executions
        round-robin over the cores it may land on. *)
     let core = st.next_thread in
     st.next_thread <- (st.next_thread + 1) mod p.cores;
     let s = Request.slot pool req in
     let now = clk.(0) in
     (Request.starteds pool).(s) <- now;
     let work =
       (if woken then p.linux_wakeup else 0.)
       +. p.linux_epoll +. overhead +. (Request.services pool).(s)
     in
     kbuf.(0) <-
       (if fault_free then now +. work else Corefault.completion_time faults ~core ~now ~work);
     let _ : Sim.handle = Sim.schedule_fn_keyed sim fn_finish req in
     ())
  [@@zygos.hot]
  and fn_finish req =
    (* The handle dies at [respond] (the client may recycle its slot), so
       the connection is read out first. *)
    (let conn = Request.conn pool req in
     respond req;
     (* Socket serialization: release it, or send its next queued request
        back through the shared pool. *)
     (if Intqs.is_empty st.conn_pending conn then st.conn_busy.(conn) <- false
      else enqueue_dispatch (Intqs.pop st.conn_pending conn));
     (* This thread immediately picks up the next dispatched event. *)
     if Intq.is_empty st.ready then st.idle_threads <- st.idle_threads + 1
     else start ~woken:false (Intq.pop st.ready))
  [@@zygos.hot]
  and enqueue_dispatch req =
    (Intq.push st.dispatch_queue req;
     pump_dispatcher ())
  [@@zygos.hot]
  and pump_dispatcher () =
    (if not st.dispatcher_busy then
       if not (Intq.is_empty st.dispatch_queue) then begin
         let req = Intq.pop st.dispatch_queue in
         st.dispatcher_busy <- true;
         kbuf.(0) <- clk.(0) +. dispatch_cost;
         let _ : Sim.handle = Sim.schedule_fn_keyed sim fn_dispatched req in
         ()
       end)
  [@@zygos.hot]
  and fn_dispatched req =
    (st.dispatcher_busy <- false;
     (if st.idle_threads > 0 then begin
        st.idle_threads <- st.idle_threads - 1;
        start ~woken:true req
      end
      else Intq.push st.ready req);
     pump_dispatcher ())
  [@@zygos.hot]
  in
  let[@zygos.hot] submit req =
    if st.backlog >= backlog_capacity then st.drops <- st.drops + 1
    else begin
      st.backlog <- st.backlog + 1;
      let conn = Request.conn pool req in
      if st.conn_busy.(conn) then Intqs.push st.conn_pending conn req
      else begin
        st.conn_busy.(conn) <- true;
        enqueue_dispatch req
      end
    end
  in
  let info () =
    [
      ("backlog", float_of_int (Intq.length st.ready + Intq.length st.dispatch_queue));
      ("ring_drops", float_of_int st.drops);
    ]
  in
  { Iface.name = "linux-floating"; submit; info }

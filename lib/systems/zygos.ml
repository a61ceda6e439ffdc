module Sim = Engine.Sim
module Request = Net.Request
module Sched = Core.Sched.Sim_sched
module RQ = Core.Remote_queue.Make (Core.Platform.Nolock)

type mode = Midle | Muser | Mkernel

type trace_event =
  | Rx of { core : int; packets : int }
  | Dispatch_local of { core : int; conn : int; events : int }
  | Steal of { thief : int; victim : int; conn : int; events : int }
  | Ipi of { src : int; dst : int }
  | Remote_tx of { home : int; conn : int; responses : int }

let pp_trace_event ppf = function
  | Rx { core; packets } -> Format.fprintf ppf "core %d: rx %d packets" core packets
  | Dispatch_local { core; conn; events } ->
      Format.fprintf ppf "core %d: dispatch conn %d (%d events)" core conn events
  | Steal { thief; victim; conn; events } ->
      Format.fprintf ppf "core %d: steal conn %d (%d events) from core %d" thief conn events
        victim
  | Ipi { src; dst } -> Format.fprintf ppf "core %d: IPI -> core %d" src dst
  | Remote_tx { home; conn; responses } ->
      Format.fprintf ppf "core %d: tx %d remote responses for conn %d" home responses conn

(* A remote batched-syscall entry: the responses of a stolen batch, to be
   transmitted by (and ownership released at) the home core. The handles
   are copied out of the thief's scheduler scratch into one flat array —
   the only allocation a stolen batch costs. *)
type remote_batch = { pcb : Request.t Sched.pcb; reqs : Request.t array }

(* Sentinel for "no segment continuation armed"; compared with physical
   equality, so real continuations are never misread as it. *)
let fn_none (_ : int) = ()

type zcore = {
  id : int;
  hw : Request.t Net.Ring.t;
  remote : remote_batch RQ.t;
  policy : Core.Steal_policy.t;
  mutable mode : mode;
  mutable cur_handle : Sim.handle;  (* current timed segment; [Sim.no_handle] if none *)
  mutable cur_fn : int -> unit;  (* its completion fn ([fn_none] if none) *)
  done_buf : float array;  (* 1 slot: current segment's completion time; a
                              mutable float field of this mixed record would
                              box on every store *)
  mutable ipi_pending : bool;  (* an IPI is in flight / unhandled for this core *)
  mutable wake_sweep : int;  (* id of the pending wake sweep that will step this
                                core, or -1 if none *)
  mutable ipis_received : int;
  mutable rx_pending : int;  (* batch size of the in-flight rx segment *)
  (* Cursor of the batch walk over the scheduler's claimed scratch; the
     scratch stays valid for the whole batch because this core only
     polls again after [end_of_batch]. *)
  mutable b_idx : int;
  mutable b_stolen : int;  (* victim core, or -1 for a local batch *)
  rxbuf : Request.t array;  (* rx scratch, capacity zy_rx_batch *)
  tbuf : float array;  (* 1-slot unboxed clock for remote-tx walks *)
}

type t = {
  sim : Sim.t;
  clk : float array;  (* [Sim.clock_buffer sim]: inline now-reads on hot paths *)
  kbuf : float array;  (* [Sim.key_buffer sim]: keyed schedules, no boxed [~at] *)
  p : Params.t;
  pool : Request.pool;
  faults : Core.Corefault.t;  (* straggler schedule; [none] = exact nominal times *)
  fault_free : bool;  (* [Corefault.is_none faults]: segments cost exactly [now +. cost] *)
  sched : Request.t Sched.t;
  pcbs : Request.t Sched.pcb array;
  zcores : zcore array;
  respond : Request.t -> unit;
  trace : (float -> trace_event -> unit) option;
  mutable ipis_sent : int;
  mutable victim_orders : int;  (* randomized victim orders drawn *)
  mutable remote_batches : int;
  mutable wc_violations : int;
  mutable sweeps : int;  (* wake-sweep ids handed out so far *)
  (* Long-lived dispatch fns for [Sim.schedule_fn]: bound once in
     [create], so the hot scheduling paths allocate no closures. *)
  (* Segment-completion fns, one per segment kind (iarg = core id): the
     segment event dispatches straight into its continuation — one
     indirect call per completion, not fn_segment_done + a stored
     closure. Each fn re-arms nothing; it clears [cur_handle] first. *)
  mutable fn_step : int -> unit;  (* resume the scheduler loop *)
  mutable fn_rx_done : int -> unit;  (* deliver the [rx_pending] popped packets *)
  mutable fn_user_done : int -> unit;  (* batch walk: user segment of event [b_idx] ended *)
  mutable fn_tx_done : int -> unit;  (* batch walk: eager tx of event [b_idx] on the wire *)
  mutable fn_wake : int -> unit;  (* iarg = wake-sweep id *)
  mutable fn_ipi : int -> unit;  (* iarg = destination core id *)
  mutable fn_ipi_rx : int -> unit;  (* iarg = (rx_count lsl 16) lor core id *)
  mutable fn_remote_release : int -> unit;  (* iarg = connection id *)
}

(* ---- timed segments ----

   A core executes one timed segment at a time (user execution of one
   event, or a stretch of kernel work). IPIs extend the current segment:
   the handler's work is accounted inside the interrupted execution.

   Segments are where straggler injection lands: the nominal cost is run
   through [Corefault.completion_time], which stretches (or parks) work
   overlapping a fault window. With no straggler schedule the arithmetic
   is exactly [now +. cost], preserving bit-identical fault-free runs. *)

(* The completion event carries only the core id and dispatches directly
   into the segment's completion fn; [cur_fn] only exists so
   [extend_segment] can reschedule the same continuation. The completion
   time lives in [done_buf] / [Sim.key_buffer] flat storage end to end:
   [completion_time] is a real call with boxed float args, so the
   fault-free steady state keeps the arithmetic inline and unboxed. *)
let[@zygos.hot] start_segment t c ~mode ~cost ~finish =
  assert (c.cur_handle = Sim.no_handle);
  c.mode <- mode;
  if c.cur_fn != finish then c.cur_fn <- finish;
  let at =
    if t.fault_free then Array.unsafe_get t.clk 0 +. cost
    else
      (* fault windows active: boxed returns acceptable off steady state *)
      (Core.Corefault.completion_time t.faults ~core:c.id
         ~now:(Sim.now t.sim) ~work:cost [@zygos.allow "r7"])
  in
  Array.unsafe_set c.done_buf 0 at;
  Array.unsafe_set t.kbuf 0 at;
  c.cur_handle <- Sim.schedule_fn_keyed t.sim finish c.id

let[@zygos.hot] extend_segment t c ~extra =
  assert (c.cur_handle <> Sim.no_handle);
  assert (c.cur_fn != fn_none);
  Sim.cancel t.sim c.cur_handle;
  let prev = Array.unsafe_get c.done_buf 0 in
  let at =
    if t.fault_free then prev +. extra
    else
      (Core.Corefault.completion_time t.faults ~core:c.id ~now:prev
         ~work:extra [@zygos.allow "r7"])
  in
  Array.unsafe_set c.done_buf 0 at;
  Array.unsafe_set t.kbuf 0 at;
  c.cur_handle <- Sim.schedule_fn_keyed t.sim c.cur_fn c.id

let[@zygos.hot] emit_trace t ev =
  (* user-supplied diagnostics callback: opaque by design, and the
     timestamp argument is a fresh float by contract *)
  match t.trace with
  | Some f -> (f (Sim.now t.sim) ev [@zygos.allow "r6,r7"])
  | None -> ()

(* Trace-event constructors allocate; hot sites guard on [tracing t] so
   the untraced steady state allocates nothing. *)
let[@zygos.hot] tracing t = Option.is_some t.trace

(* ---- idle wakeups ----

   A wake is a sweep: it marks idle cores that have no wake pending with
   a fresh sweep id and schedules one event, which visits the cores in
   index order and steps each one that still carries that id, is idle
   and runs no segment. One event per marked core would be equivalent:
   scheduled back to back for one time, those events take consecutive
   sequence numbers and so fire in a row, in index order, with no other
   event between them. A core carries at most one pending sweep at a
   time, so a sweep skips cores that a different, still pending sweep
   marked.

   Every marked core still polls in the model, but the sweep does not
   step a core whose poll would find nothing: its own ring and remote
   queue are empty, no shuffle queue holds work and no core needs an
   IPI. Such a step changes no state and draws nothing, so skipping it
   is exact. *)

let rec wake t c ~delay =
  (if c.mode = Midle && c.wake_sweep < 0 then begin
     let id = t.sweeps in
     t.sweeps <- id + 1;
     c.wake_sweep <- id;
     Array.unsafe_set t.kbuf 0 (Array.unsafe_get t.clk 0 +. delay);
     let _ : Sim.handle = Sim.schedule_fn_keyed t.sim t.fn_wake id in
     ()
   end)
[@@zygos.hot]

and wake_idlers t ~delay =
  (* The first core to mark opens sweep [id] through [wake], which
     schedules its event; the rest join it. for-loop, not Array.iter:
     the iter closure would capture [t]/[delay] and be rebuilt on every
     call. *)
  (let zs = t.zcores in
   let id = t.sweeps in
   for i = 0 to Array.length zs - 1 do
     let c = zs.(i) in
     if c.mode = Midle && c.wake_sweep < 0 then
       if t.sweeps = id then wake t c ~delay else c.wake_sweep <- id
   done)
[@@zygos.hot]

(* ---- inter-processor interrupts (§4.5, exit-less per §5) ---- *)

and send_ipi t ~src v =
  (if not v.ipi_pending then begin
     v.ipi_pending <- true;
     t.ipis_sent <- t.ipis_sent + 1;
     if tracing t then (emit_trace t (Ipi { src; dst = v.id }) [@zygos.allow "hot-alloc"]);
     Array.unsafe_set t.kbuf 0 (Array.unsafe_get t.clk 0 +. t.p.zy_ipi_latency);
     let _ : Sim.handle = Sim.schedule_fn_keyed t.sim t.fn_ipi v.id in
     ()
   end)
[@@zygos.hot]

and deliver_ipi t v =
  v.ipi_pending <- false;
  match v.mode with
  | Midle ->
      (* Nothing to interrupt; treat as a wakeup hint. *)
      wake t v ~delay:0.
  | Mkernel ->
      (* The kernel executes with interrupts disabled (§4.5); its loop will
         find the pending work anyway. *)
      ()
  | Muser ->
      v.ipis_received <- v.ipis_received + 1;
      (* Handler, interrupting user-level execution: (1) process incoming
         packets if the shuffle queue is empty; (2) execute all remote
         batched syscalls and transmit (§4.5). *)
      let rx_count =
        if Sched.queue_length t.sched ~core:v.id = 0 then
          min t.p.zy_rx_batch (Net.Ring.length v.hw)
        else 0
      in
      let batches = (RQ.drain v.remote [@zygos.allow "r6"]) in
      let have_batches = match batches with [] -> false | _ :: _ -> true in
      if rx_count > 0 || have_batches then begin
        let t0 = Array.unsafe_get t.clk 0 +. t.p.zy_ipi_handler in
        let after_rx = t0 +. (float_of_int (rx_count * t.p.rpc_packets) *. t.p.dp_rx) in
        if rx_count > 0 then begin
          (* Pop the ring at the moment the handler's receive work
             completes — popping earlier and delivering later could let a
             second IPI's packets overtake these on the same connection.
             The event packs (rx_count, core id) into its int payload. *)
          Array.unsafe_set t.kbuf 0 after_rx;
          let _ : Sim.handle =
            Sim.schedule_fn_keyed t.sim t.fn_ipi_rx ((rx_count lsl 16) lor v.id)
          in
          ()
        end;
        let tx_end = transmit_batches t ~home:v.id ~from:after_rx batches in
        extend_segment t v ~extra:(tx_end -. Array.unsafe_get t.clk 0)
      end

(* ---- kernel helpers ---- *)

(* Pop up to [limit] packets into the core's rx scratch; returns the
   count. The scratch is always consumed in the same event that fills
   it ([k_rx] / [fn_ipi_rx]), so one buffer per core suffices. *)
and pop_hw v ~limit = (pop_hw_loop v ~limit 0) [@@zygos.hot]

and pop_hw_loop v ~limit n =
  (if n = limit then n
   else begin
     let req = Net.Ring.pop_or v.hw ~default:Request.none in
     if req = Request.none then n
     else begin
       Array.unsafe_set v.rxbuf n req;
       pop_hw_loop v ~limit (n + 1)
     end
   end)
[@@zygos.hot]

(* Schedule the transmit work of remote batches starting at [from]; each
   response completes after its syscall + tx cost, and each batch's
   connection is released (Sched.complete) once its replies are on the
   wire, per the §4.3 ownership rule. Returns the finish time. The
   running clock lives in the home core's 1-slot float scratch so the
   walk boxes nothing; [t.respond] is itself the [int -> unit] dispatch
   fn for each response event. *)
and transmit_batches t ~home ~from batches =
  (let c = t.zcores.(home) in
   Array.unsafe_set c.tbuf 0 from;
   transmit_go t c ~home batches;
   Array.unsafe_get c.tbuf 0)
[@@zygos.hot]

and transmit_go t c ~home batches =
  (match batches with
   | [] -> ()
   | { pcb; reqs } :: rest ->
       if tracing t then
         (emit_trace t
            (Remote_tx { home; conn = Sched.conn pcb; responses = Array.length reqs })
         [@zygos.allow "hot-alloc"]);
       for i = 0 to Array.length reqs - 1 do
         let done_at =
           Array.unsafe_get c.tbuf 0
           +. t.p.zy_remote_syscall
           +. (float_of_int t.p.rpc_packets *. t.p.dp_tx)
         in
         Array.unsafe_set t.kbuf 0 done_at;
         let _ : Sim.handle =
           Sim.schedule_fn_keyed t.sim t.respond (Array.unsafe_get reqs i)
         in
         Array.unsafe_set c.tbuf 0 done_at
       done;
       Array.unsafe_set t.kbuf 0 (Array.unsafe_get c.tbuf 0);
       let _ : Sim.handle =
         Sim.schedule_fn_keyed t.sim t.fn_remote_release (Sched.conn pcb)
       in
       transmit_go t c ~home rest)
[@@zygos.hot]

(* ---- the per-core scheduler loop ---- *)

and step t c =
  (assert (c.cur_handle = Sim.no_handle);
   if not (try_drain_remote t c) then
     if not (try_dispatch t c) then if not (try_rx t c) then go_idle t c)
[@@zygos.hot]

and try_drain_remote t c =
  (* cross-core handoff: the remote queue's lock+list drain is the
     stealing slow path, deliberately outside the certified hot set *)
  match (RQ.drain c.remote [@zygos.allow "r6"]) with
  | [] -> false
  | batches ->
      let finish_at = transmit_batches t ~home:c.id ~from:(Array.unsafe_get t.clk 0) batches in
      start_segment t c ~mode:Mkernel ~cost:(finish_at -. Array.unsafe_get t.clk 0) ~finish:t.fn_step;
      true
[@@zygos.hot]

(* Victim orders are drawn only where they decide something: a steal
   attempt with work queued elsewhere, or an IPI scan that will send.
   Each draw is a Fisher-Yates pass with fresh draws from the core's own
   stream, uniform whatever the previous arrangement, so skipping the
   draws whose order nothing reads leaves every decision's distribution
   as it was. *)
and victim_order t c =
  (if t.p.zy_poll_random then begin
     t.victim_orders <- t.victim_orders + 1;
     Core.Steal_policy.victim_order c.policy
   end
   else Core.Steal_policy.round_robin_order c.policy)
[@@zygos.hot]

and try_dispatch t c =
  (* Own shuffle queue first, then steal in randomized victim order. The
     claimed batch stays in the scheduler's per-core scratch — processed
     in place as one array walk, no per-event list. *)
  (if
     not
       (Sched.poll_local t.sched ~core:c.id
       || Sched.has_ready t.sched
          && Sched.poll t.sched ~core:c.id ~steal_order:(victim_order t c))
   then false
   else begin
     let stolen = Sched.batch_stolen_from t.sched ~core:c.id in
     (if tracing t then begin
        let pcb = Sched.batch_pcb t.sched ~core:c.id in
        let n = Sched.batch_size t.sched ~core:c.id in
        if stolen < 0 then
          (emit_trace t (Dispatch_local { core = c.id; conn = Sched.conn pcb; events = n })
          [@zygos.allow "hot-alloc"])
        else
          (emit_trace t
             (Steal { thief = c.id; victim = stolen; conn = Sched.conn pcb; events = n })
          [@zygos.allow "hot-alloc"])
      end);
     c.b_idx <- 0;
     c.b_stolen <- stolen;
     exec_next t c;
     true
   end)
[@@zygos.hot]

(* Execute the batch's events one at a time, alternating user execution
   and (for local work) eager kernel transmit — §6.2: "processes events
   individually, interleaving between user and kernel code". The walk is
   a cursor ([b_idx]) over the scheduler scratch driven by the two
   preallocated continuations [k_user_done]/[k_tx_done]; nothing is
   allocated per event. *)
and exec_next t c =
  (if c.b_idx >= Sched.batch_size t.sched ~core:c.id then end_of_batch t c
   else begin
     let req = Sched.batch_event t.sched ~core:c.id c.b_idx in
     let steal_cost = if c.b_idx = 0 && c.b_stolen >= 0 then t.p.zy_steal else 0. in
     (Request.set_started t.pool req (Array.unsafe_get t.clk 0)
     [@zygos.allow "r7"]);
     let user_cost =
       steal_cost +. t.p.zy_shuffle
       +. (Request.service t.pool req [@zygos.allow "r7"])
     in
     start_segment t c ~mode:Muser ~cost:user_cost ~finish:t.fn_user_done
   end)
[@@zygos.hot]

and end_of_batch t c =
  (let pcb = Sched.batch_pcb t.sched ~core:c.id in
   if c.b_stolen < 0 then begin
     Sched.complete t.sched pcb;
     step t c
   end
   else begin
     (* Remote core: the batch's syscalls return to the home core (§4.2
        step (b)); ownership is released there once transmitted. *)
     let home = t.zcores.(c.b_stolen) in
     let n = Sched.batch_size t.sched ~core:c.id in
     (* One response array + one record per stolen batch: the scratch is
        overwritten by the core's next poll, so the copy must outlive it. *)
     let reqs =
       (Array.init n (fun i -> Sched.batch_event t.sched ~core:c.id i)
       [@zygos.allow "hot-alloc"])
     in
     (RQ.push home.remote ({ pcb; reqs } [@zygos.allow "hot-alloc"])
     [@zygos.allow "r6"]);
     t.remote_batches <- t.remote_batches + 1;
     (match home.mode with
     | Midle -> wake t home ~delay:0.
     | Muser -> if t.p.zy_interrupts then send_ipi t ~src:c.id home
     | Mkernel -> ());
     step t c
   end)
[@@zygos.hot]

and try_rx t c =
  (if Net.Ring.is_empty c.hw then false
   else begin
     let k = min t.p.zy_rx_batch (Net.Ring.length c.hw) in
     let cost = t.p.dp_loop +. (float_of_int (k * t.p.rpc_packets) *. t.p.dp_rx) in
     (* A core runs one rx segment at a time, so parking the batch size on
        the core (for the preallocated [k_rx] continuation) is safe. *)
     c.rx_pending <- k;
     start_segment t c ~mode:Mkernel ~cost ~finish:t.fn_rx_done;
     true
   end)
[@@zygos.hot]

and go_idle t c =
  (c.mode <- Midle;
   (* Work-conservation invariant: this core just scanned every shuffle
      queue and found nothing; if anything is ready now, the scheduler
      failed to be work conserving. *)
   if Sched.has_ready t.sched then t.wc_violations <- t.wc_violations + 1;
   if t.p.zy_interrupts then scan_and_ipi t c)
[@@zygos.hot]

(* Whether an IPI to [v] would have an effect: [v] runs application
   code with no IPI pending, and either holds packets its empty shuffle
   queue cannot expose to thieves or has remote batched syscalls queued.
   Sending to one core never changes this for another. *)
and needs_ipi t v =
  (v.mode = Muser && (not v.ipi_pending)
   && ((not (Net.Ring.is_empty v.hw)) && Sched.queue_length t.sched ~core:v.id = 0
      || not (RQ.is_empty v.remote)))
[@@zygos.hot]

(* Idle-loop steps (c)/(d) of §5: look at other cores' pending packet
   queues; when a busy-at-user core has packets but an empty shuffle
   queue, interrupt it so it replenishes the shuffle queue for stealing.
   The order is drawn only when some core needs an IPI: it decides
   nothing else. *)
and scan_and_ipi t c =
  (* for-loop over the victim order, not Array.iter: the iter closure
     would capture [t]/[c] and be rebuilt per idle transition. *)
  (let zs = t.zcores in
   let i = ref 0 in
   while !i < Array.length zs && not (needs_ipi t (Array.unsafe_get zs !i)) do
     incr i
   done;
   if !i < Array.length zs then begin
     let order = victim_order t c in
     for k = 0 to Array.length order - 1 do
       let v = zs.(order.(k)) in
       if needs_ipi t v then send_ipi t ~src:c.id v
     done
   end)
[@@zygos.hot]

(* Deliver the first [n] requests of a core's rx scratch to the
   scheduler: one flat array walk, request by request in arrival order. *)
let[@zygos.hot] deliver_batch t v n =
  for i = 0 to n - 1 do
    let req = Array.unsafe_get v.rxbuf i in
    Sched.deliver t.sched t.pcbs.(Request.conn t.pool req) req
  done

let create sim (p : Params.t) ~rng ~pool ~conns ~respond ?trace () =
  let p = Params.validate p in
  let rss = Net.Rss.create ~queues:p.cores () in
  let sched = Sched.create ~cores:p.cores in
  let pcbs =
    Array.init conns (fun c -> Sched.register sched ~conn:c ~home:(Net.Rss.queue_of_conn rss c))
  in
  let zcores =
    Array.init p.cores (fun id ->
        {
          id;
          hw = Net.Ring.create ~capacity:p.ring_capacity;
          remote = RQ.create ();
          policy = Core.Steal_policy.create ~rng:(Engine.Rng.split rng) ~cores:p.cores ~self:id;
          mode = Midle;
          cur_handle = Sim.no_handle;
          cur_fn = fn_none;
          done_buf = Array.make 1 0.;
          ipi_pending = false;
          wake_sweep = -1;
          ipis_received = 0;
          rx_pending = 0;
          b_idx = 0;
          b_stolen = -1;
          rxbuf = Array.make p.zy_rx_batch Request.none;
          tbuf = Array.make 1 0.;
        })
  in
  let t =
    {
      sim;
      clk = Sim.clock_buffer sim;
      kbuf = Sim.key_buffer sim;
      p;
      pool;
      faults = Params.corefaults p;
      fault_free = Core.Corefault.is_none (Params.corefaults p);
      sched;
      pcbs;
      zcores;
      respond;
      trace;
      ipis_sent = 0;
      victim_orders = 0;
      remote_batches = 0;
      wc_violations = 0;
      sweeps = 0;
      fn_step = ignore;
      fn_rx_done = ignore;
      fn_user_done = ignore;
      fn_tx_done = ignore;
      fn_wake = ignore;
      fn_ipi = ignore;
      fn_ipi_rx = ignore;
      fn_remote_release = ignore;
    }
  in
  (* Bind the long-lived dispatch fns and per-core continuations now that
     [t] exists; every event scheduled below reaches back through these. *)
  t.fn_step <-
    (fun id ->
      let c = t.zcores.(id) in
      c.cur_handle <- Sim.no_handle;
      step t c) [@zygos.hot];
  t.fn_wake <-
    (fun id ->
      let zs = t.zcores in
      (* Whether some core needs an IPI: -1 until scanned, then 0 or 1.
         Only a step can change the answer, so the scan runs at most once
         per step taken. *)
      let ipi_due = ref (-1) in
      for i = 0 to Array.length zs - 1 do
        let c = zs.(i) in
        if c.wake_sweep = id then begin
          c.wake_sweep <- -1;
          if c.mode = Midle && c.cur_handle = Sim.no_handle then begin
            let work =
              (not (Net.Ring.is_empty c.hw))
              || (not (RQ.is_empty c.remote))
              || Sched.has_ready t.sched
            in
            if (not work) && t.p.zy_interrupts && !ipi_due < 0 then begin
              let j = ref 0 in
              while !j < Array.length zs && not (needs_ipi t (Array.unsafe_get zs !j)) do
                incr j
              done;
              ipi_due := if !j < Array.length zs then 1 else 0
            end;
            if work || !ipi_due = 1 then begin
              step t c;
              ipi_due := -1
            end
          end
        end
      done) [@zygos.hot];
  t.fn_ipi <- (fun id -> deliver_ipi t t.zcores.(id)) [@zygos.hot];
  t.fn_ipi_rx <-
    (fun packed ->
      let v = t.zcores.(packed land 0xffff) in
      let rx_count = packed lsr 16 in
      let n = pop_hw v ~limit:rx_count in
      (if tracing t then
         (emit_trace t (Rx { core = v.id; packets = n }) [@zygos.allow "hot-alloc"]));
      deliver_batch t v n;
      wake_idlers t ~delay:t.p.zy_poll_delay) [@zygos.hot];
  t.fn_remote_release <-
    (fun conn ->
      Sched.complete t.sched t.pcbs.(conn);
      wake_idlers t ~delay:t.p.zy_poll_delay) [@zygos.hot];
  t.fn_rx_done <-
    (fun id ->
      let c = t.zcores.(id) in
      c.cur_handle <- Sim.no_handle;
      let n = pop_hw c ~limit:c.rx_pending in
      (if tracing t then
         (emit_trace t (Rx { core = c.id; packets = n }) [@zygos.allow "hot-alloc"]));
      deliver_batch t c n;
      wake_idlers t ~delay:t.p.zy_poll_delay;
      step t c) [@zygos.hot];
  t.fn_user_done <-
    (fun id ->
      let c = t.zcores.(id) in
      c.cur_handle <- Sim.no_handle;
      if c.b_stolen >= 0 then begin
        c.b_idx <- c.b_idx + 1;
        exec_next t c
      end
      else
        (* Home core: transmit eagerly, in kernel mode. *)
        start_segment t c ~mode:Mkernel
          ~cost:(float_of_int t.p.rpc_packets *. t.p.dp_tx) ~finish:t.fn_tx_done)
    [@zygos.hot];
  t.fn_tx_done <-
    (fun id ->
      let c = t.zcores.(id) in
      c.cur_handle <- Sim.no_handle;
      let req = Sched.batch_event t.sched ~core:c.id c.b_idx in
      c.b_idx <- c.b_idx + 1;
      t.respond req;
      exec_next t c) [@zygos.hot];
  let[@zygos.hot] submit req =
    let c = t.zcores.(Sched.home t.pcbs.(Request.conn pool req)) in
    if Net.Ring.push c.hw req then begin
      match c.mode with
      | Midle -> wake t c ~delay:p.dp_loop
      | Muser ->
          (* The home core is executing application code: only another,
             idle, core can notice this packet (and IPI the home core). *)
          if p.zy_interrupts then wake_idlers t ~delay:p.zy_poll_delay
      | Mkernel -> ()
    end
  in
  let info () =
    let counters = Sched.total_counters t.sched in
    let drops = Array.fold_left (fun acc c -> acc + Net.Ring.drops c.hw) 0 t.zcores in
    [
      ("steal_fraction", Sched.steal_fraction t.sched);
      ("ipis_sent", float_of_int t.ipis_sent);
      ("victim_orders", float_of_int t.victim_orders);
      ("ring_drops", float_of_int drops);
      ("local_events", float_of_int counters.Sched.local_events);
      ("stolen_events", float_of_int counters.Sched.stolen_events);
      ("remote_batches", float_of_int t.remote_batches);
      ("wc_violations", float_of_int t.wc_violations);
    ]
  in
  let name = if p.zy_interrupts then "zygos" else "zygos-noint" in
  { Iface.name; submit; info }

let work_conservation_violations (iface : Iface.t) =
  match Iface.info_value iface "wc_violations" with
  | Some v -> int_of_float v
  | None -> invalid_arg "Zygos.work_conservation_violations: not a zygos system"

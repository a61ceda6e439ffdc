module Sim = Engine.Sim
module Request = Net.Request
module Sched = Core.Sched

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

(* Sentinel for "no segment continuation armed"; compared with physical
   equality, so real continuations are never misread as it. *)
let fn_none (_ : int) = ()

type zcore = {
  id : int;
  bit : int;  (* [1 lsl id]: this core's member bit in the core sets of [t] *)
  hw : Net.Ring.t;
  (* Remote batched syscalls (§4.2 step (b)): the stolen batches whose
     responses this home core must transmit, oldest first, each stored
     flat as its count followed by its request handles. *)
  remote_fifo : Engine.Intq.t;
  policy : Core.Steal_policy.t;
  mutable cur_handle : Sim.handle;  (* current timed segment; [Sim.no_handle] if none *)
  mutable cur_fn : int -> unit;  (* its completion fn ([fn_none] if none) *)
  done_buf : float array;  (* 1 slot: current segment's completion time; a
                              mutable float field of this mixed record would
                              box on every store *)
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
  kbuf : float array;  (* [Sim.key_buffer sim]: keyed schedules, no boxed time *)
  p : Params.t;
  pool : Request.pool;
  faults : Core.Corefault.t;  (* straggler schedule; [none] = exact nominal times *)
  fault_free : bool;  (* [Corefault.is_none faults]: segments cost exactly [now +. cost] *)
  sched : Sched.t;  (* events are request handles; a PCB is its connection id *)
  zcores : zcore array;
  respond : Request.t -> unit;
  trace : (float -> trace_event -> unit) option;
  (* Core sets, bit i for core i: the per-core state the idle loop reads,
     so a wake, a sweep and an IPI check cost word operations rather than
     a visit to every core. A core's mode exists only here: idle, user,
     or kernel when in neither set. *)
  mutable idle : int;
  mutable user : int;
  mutable marked : int;  (* cores a pending wake sweep will visit *)
  mutable ipi : int;  (* cores with an IPI in flight or unhandled *)
  mutable rx : int;  (* cores whose NIC ring is non-empty *)
  mutable remote : int;  (* cores whose remote FIFO is non-empty *)
  mutable ipis_sent : int;
  mutable victim_orders : int;  (* randomized victim orders drawn *)
  mutable remote_batches : int;
  mutable wc_violations : int;
  (* Long-lived dispatch fns for [Sim.schedule_fn_keyed]: bound once in
     [create], so the hot scheduling paths allocate no closures. *)
  (* Segment-completion fns, one per segment kind (iarg = core id): the
     segment event dispatches straight into its continuation — one
     indirect call per completion, not fn_segment_done + a stored
     closure. Each fn re-arms nothing; it clears [cur_handle] first. *)
  mutable fn_step : int -> unit;  (* resume the scheduler loop *)
  mutable fn_rx_done : int -> unit;  (* deliver the [rx_pending] popped packets *)
  mutable fn_user_done : int -> unit;  (* batch walk: user segment of event [b_idx] ended *)
  mutable fn_tx_done : int -> unit;  (* batch walk: eager tx of event [b_idx] on the wire *)
  mutable fn_wake : int -> unit;  (* iarg = the sweep's member set *)
  mutable fn_ipi : int -> unit;  (* iarg = destination core id *)
  mutable fn_ipi_rx : int -> unit;  (* iarg = (rx_count lsl 16) lor core id *)
  mutable fn_remote_release : int -> unit;  (* iarg = a stolen batch's last request *)
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
   fault-free steady state keeps the arithmetic inline and unboxed. Both
   are inlined, so their float [~cost] / [~extra] is never boxed. *)
let[@zygos.hot] [@inline] start_segment t c ~user ~cost ~finish =
  assert (c.cur_handle = Sim.no_handle);
  t.idle <- t.idle land lnot c.bit;
  t.user <- (if user then t.user lor c.bit else t.user land lnot c.bit);
  if c.cur_fn != finish then c.cur_fn <- finish;
  let at =
    if t.fault_free then t.clk.(0) +. cost
    else
      (* fault windows active: boxed returns acceptable off steady state *)
      (Core.Corefault.completion_time t.faults ~core:c.id
         ~now:t.clk.(0) ~work:cost [@zygos.allow "r7"])
  in
  c.done_buf.(0) <- at;
  t.kbuf.(0) <- at;
  c.cur_handle <- Sim.schedule_fn_keyed t.sim finish c.id

let[@zygos.hot] [@inline] extend_segment t c ~extra =
  assert (c.cur_handle <> Sim.no_handle);
  assert (c.cur_fn != fn_none);
  Sim.cancel t.sim c.cur_handle;
  let prev = c.done_buf.(0) in
  let at =
    if t.fault_free then prev +. extra
    else
      (Core.Corefault.completion_time t.faults ~core:c.id ~now:prev
         ~work:extra [@zygos.allow "r7"])
  in
  c.done_buf.(0) <- at;
  t.kbuf.(0) <- at;
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

(* ---- core sets ---- *)

let debruijn32 =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

(* Index of the lowest member of a non-empty core set: a de Bruijn
   multiply on whichever 32-bit half holds the lowest set bit. *)
let[@zygos.hot] lowest_core s =
  let b = s land -s in
  if b land 0xffff_ffff <> 0 then
    debruijn32.(((b * 0x077CB531) lsr 27) land 31)
  else 32 + debruijn32.((((b lsr 32) * 0x077CB531) lsr 27) land 31)

(* Whether an IPI to [v] would have an effect: [v] runs application
   code with no IPI pending, and either has remote batched syscalls
   queued or holds packets its empty shuffle queue cannot expose to
   thieves. Sending to one core never changes this for another. *)
let[@zygos.hot] needs_ipi t v =
  t.user land lnot t.ipi land v.bit <> 0
  && (t.remote land v.bit <> 0
     || (t.rx land v.bit <> 0 && Sched.queue_length t.sched ~core:v.id = 0))

(* Whether some core needs an IPI, without a call per core: only the
   cores in [user land lnot ipi land (rx lor remote)] can, as [needs_ipi]
   says. One with remote work does, and one with only packets does when
   its shuffle queue is empty. *)
let[@zygos.hot] ipi_due t =
  let cand = t.user land lnot t.ipi in
  cand land t.remote <> 0
  ||
  let s = ref (cand land t.rx) in
  while !s <> 0 && Sched.queue_length t.sched ~core:(lowest_core !s) <> 0 do
    s := !s land (!s - 1)
  done;
  !s <> 0

(* ---- idle wakeups ----

   A wake is a sweep: it marks the idle cores of a set that no pending
   sweep has marked and schedules one event, whose int payload is that
   member set. When it fires, the sweep visits its members in index
   order and steps each one whose poll can find something. One event per
   marked core would be equivalent: scheduled back to back for one time,
   those events take consecutive sequence numbers and so fire in a row,
   in index order, with no other event between them. A core carries at
   most one pending sweep, and a marked core stays idle until its sweep
   fires: only a sweep steps an idle core.

   Every member still polls in the model, but the sweep does not step a
   core whose poll would find nothing: its own ring and remote FIFO are
   empty, no shuffle queue holds work and no core needs an IPI. Such a
   step changes no state and draws nothing, so skipping it is exact. *)

let[@zygos.hot] wake_set t s ~delay =
  let members = s land t.idle land lnot t.marked in
  if members <> 0 then begin
    t.marked <- t.marked lor members;
    t.kbuf.(0) <- t.clk.(0) +. delay;
    let _ : Sim.handle = Sim.schedule_fn_keyed t.sim t.fn_wake members in
    ()
  end

let[@zygos.hot] wake t c ~delay = wake_set t c.bit ~delay

let[@zygos.hot] wake_idlers t ~delay = wake_set t (-1) ~delay

(* ---- inter-processor interrupts (§4.5, exit-less per §5) ---- *)

let[@zygos.hot] send_ipi t ~src v =
  if t.ipi land v.bit = 0 then begin
    t.ipi <- t.ipi lor v.bit;
    t.ipis_sent <- t.ipis_sent + 1;
    if tracing t then (emit_trace t (Ipi { src; dst = v.id }) [@zygos.allow "hot-alloc"]);
    t.kbuf.(0) <- t.clk.(0) +. t.p.zy_ipi_latency;
    let _ : Sim.handle = Sim.schedule_fn_keyed t.sim t.fn_ipi v.id in
    ()
  end

(* ---- kernel helpers ---- *)

(* Pop up to [limit] packets into the core's rx scratch; returns the
   count. The scratch is always consumed in the same event that fills
   it ([k_rx] / [fn_ipi_rx]), so one buffer per core suffices. *)
let[@zygos.hot] rec pop_hw_loop v ~limit n =
  if n = limit then n
  else begin
    let req = Net.Ring.pop_or v.hw ~default:Request.none in
    if req = Request.none then n
    else begin
      v.rxbuf.(n) <- req;
      pop_hw_loop v ~limit (n + 1)
    end
  end

let[@zygos.hot] pop_hw t v ~limit =
  let n = pop_hw_loop v ~limit 0 in
  if Net.Ring.is_empty v.hw then t.rx <- t.rx land lnot v.bit;
  n

(* Schedule the transmit work of the home core's stolen batches, oldest
   first, starting at [from], and empty its remote FIFO; the finish time
   is left in [c.tbuf]. Each response completes after its syscall + tx
   cost. A batch's last response event also releases its connection
   (Sched.complete) once its replies are on the wire, per the §4.3
   ownership rule. The running clock lives in the home core's 1-slot
   float scratch so the walk boxes nothing, and the function is inlined
   so [~from] is not boxed either; [t.respond] is itself the
   [int -> unit] dispatch fn for each response event. *)
let[@zygos.hot] [@inline] transmit_batches t c ~from =
  c.tbuf.(0) <- from;
  let q = c.remote_fifo in
  let count = ref (Engine.Intq.pop q) in
  while !count <> Engine.Intq.empty do
    let n = !count in
    if tracing t then
      (emit_trace t
         (Remote_tx
            { home = c.id; conn = Request.conn t.pool (Engine.Intq.peek q); responses = n })
      [@zygos.allow "hot-alloc"]);
    for i = 1 to n do
      let done_at =
        c.tbuf.(0) +. t.p.zy_remote_syscall
        +. (float_of_int t.p.rpc_packets *. t.p.dp_tx)
      in
      t.kbuf.(0) <- done_at;
      let fn = if i < n then t.respond else t.fn_remote_release in
      let _ : Sim.handle = Sim.schedule_fn_keyed t.sim fn (Engine.Intq.pop q) in
      c.tbuf.(0) <- done_at
    done;
    count := Engine.Intq.pop q
  done;
  t.remote <- t.remote land lnot c.bit

let deliver_ipi t v =
  t.ipi <- t.ipi land lnot v.bit;
  if t.idle land v.bit <> 0 then
    (* Nothing to interrupt; treat as a wakeup hint. *)
    wake t v ~delay:0.
  else if t.user land v.bit <> 0 then begin
    (* Handler, interrupting user-level execution: (1) process incoming
       packets if the shuffle queue is empty; (2) execute all remote
       batched syscalls and transmit (§4.5). A core in kernel mode runs
       with interrupts disabled (§4.5); its loop will find the pending
       work anyway. *)
    let rx_count =
      if Sched.queue_length t.sched ~core:v.id = 0 then
        min t.p.zy_rx_batch (Net.Ring.length v.hw)
      else 0
    in
    if rx_count > 0 || t.remote land v.bit <> 0 then begin
      let t0 = t.clk.(0) +. t.p.zy_ipi_handler in
      let after_rx = t0 +. (float_of_int (rx_count * t.p.rpc_packets) *. t.p.dp_rx) in
      if rx_count > 0 then begin
        (* Pop the ring at the moment the handler's receive work
           completes — popping earlier and delivering later could let a
           second IPI's packets overtake these on the same connection.
           The event packs (rx_count, core id) into its int payload. *)
        t.kbuf.(0) <- after_rx;
        let _ : Sim.handle =
          Sim.schedule_fn_keyed t.sim t.fn_ipi_rx ((rx_count lsl 16) lor v.id)
        in
        ()
      end;
      transmit_batches t v ~from:after_rx;
      extend_segment t v ~extra:(v.tbuf.(0) -. t.clk.(0))
    end
  end

(* Victim orders are drawn only where they decide something: a steal
   attempt with work queued elsewhere, or an IPI scan that will send.
   Each draw is a Fisher-Yates pass with fresh draws from the core's own
   stream, uniform whatever the previous arrangement, so skipping the
   draws whose order nothing reads leaves every decision's distribution
   as it was. *)
let[@zygos.hot] victim_order t c =
  if t.p.zy_poll_random then begin
    t.victim_orders <- t.victim_orders + 1;
    Core.Steal_policy.victim_order c.policy
  end
  else Core.Steal_policy.round_robin_order c.policy

(* Idle-loop steps (c)/(d) of §5: look at other cores' pending packet
   queues; when a busy-at-user core has packets but an empty shuffle
   queue, interrupt it so it replenishes the shuffle queue for stealing.
   The order is drawn only when some core needs an IPI: it decides
   nothing else. *)
let[@zygos.hot] scan_and_ipi t c =
  if ipi_due t then begin
    (* for-loop over the victim order, not Array.iter: the iter closure
       would capture [t]/[c] and be rebuilt per idle transition. *)
    let order = victim_order t c in
    for k = 0 to Array.length order - 1 do
      let v = t.zcores.(order.(k)) in
      if needs_ipi t v then send_ipi t ~src:c.id v
    done
  end

(* ---- the per-core scheduler loop ---- *)

let rec step t c =
  (assert (c.cur_handle = Sim.no_handle);
   if not (try_drain_remote t c) then
     if not (try_dispatch t c) then if not (try_rx t c) then go_idle t c)
[@@zygos.hot]

and try_drain_remote t c =
  (if t.remote land c.bit = 0 then false
   else begin
     transmit_batches t c ~from:t.clk.(0);
     start_segment t c ~user:false ~cost:(c.tbuf.(0) -. t.clk.(0))
       ~finish:t.fn_step;
     true
   end)
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
        let conn = Sched.batch_conn t.sched ~core:c.id in
        let n = Sched.batch_size t.sched ~core:c.id in
        if stolen < 0 then
          (emit_trace t (Dispatch_local { core = c.id; conn; events = n })
          [@zygos.allow "hot-alloc"])
        else
          (emit_trace t (Steal { thief = c.id; victim = stolen; conn; events = n })
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
     let s = Request.slot t.pool (Sched.batch_event t.sched ~core:c.id c.b_idx) in
     let steal_cost = if c.b_idx = 0 && c.b_stolen >= 0 then t.p.zy_steal else 0. in
     (Request.starteds t.pool).(s) <- t.clk.(0);
     let user_cost =
       steal_cost +. t.p.zy_shuffle +. (Request.services t.pool).(s)
     in
     start_segment t c ~user:true ~cost:user_cost ~finish:t.fn_user_done
   end)
[@@zygos.hot]

and end_of_batch t c =
  (if c.b_stolen < 0 then begin
     Sched.complete t.sched (Sched.batch_conn t.sched ~core:c.id);
     step t c
   end
   else begin
     (* Remote core: the batch's syscalls return to the home core (§4.2
        step (b)); ownership is released there once transmitted. The
        handles are copied out of the scheduler scratch, which this
        core's next poll overwrites. *)
     let home = t.zcores.(c.b_stolen) in
     let n = Sched.batch_size t.sched ~core:c.id in
     Engine.Intq.push home.remote_fifo n;
     for i = 0 to n - 1 do
       Engine.Intq.push home.remote_fifo (Sched.batch_event t.sched ~core:c.id i)
     done;
     t.remote <- t.remote lor home.bit;
     t.remote_batches <- t.remote_batches + 1;
     if t.idle land home.bit <> 0 then wake t home ~delay:0.
     else if t.user land home.bit <> 0 && t.p.zy_interrupts then send_ipi t ~src:c.id home;
     step t c
   end)
[@@zygos.hot]

and try_rx t c =
  (if t.rx land c.bit = 0 then false
   else begin
     let k = min t.p.zy_rx_batch (Net.Ring.length c.hw) in
     let cost = t.p.dp_loop +. (float_of_int (k * t.p.rpc_packets) *. t.p.dp_rx) in
     (* A core runs one rx segment at a time, so parking the batch size on
        the core (for the preallocated [k_rx] continuation) is safe. *)
     c.rx_pending <- k;
     start_segment t c ~user:false ~cost ~finish:t.fn_rx_done;
     true
   end)
[@@zygos.hot]

and go_idle t c =
  (t.idle <- t.idle lor c.bit;
   t.user <- t.user land lnot c.bit;
   (* Work-conservation invariant: this core just scanned every shuffle
      queue and found nothing; if anything is ready now, the scheduler
      failed to be work conserving. *)
   if Sched.has_ready t.sched then t.wc_violations <- t.wc_violations + 1;
   if t.p.zy_interrupts then scan_and_ipi t c)
[@@zygos.hot]

(* Deliver the first [n] requests of a core's rx scratch to the
   scheduler: one flat array walk, request by request in arrival order. *)
let[@zygos.hot] deliver_batch t v n =
  for i = 0 to n - 1 do
    let req = v.rxbuf.(i) in
    Sched.deliver t.sched (Request.conn t.pool req) req
  done

let create sim (p : Params.t) ~rng ~pool ~conns ~respond ?trace () =
  let p = Params.validate p in
  (* Core sets hold bit i for core i in an OCaml int, below its sign bit. *)
  if p.cores > 62 then invalid_arg "Zygos.create: more than 62 cores";
  let rss = Net.Rss.create ~queues:p.cores () in
  let sched = Sched.create ~cores:p.cores ~conns in
  for c = 0 to conns - 1 do
    Sched.register sched ~conn:c ~home:(Net.Rss.queue_of_conn rss c)
  done;
  let zcores =
    Array.init p.cores (fun id ->
        {
          id;
          bit = 1 lsl id;
          hw = Net.Ring.create ~capacity:p.ring_capacity;
          remote_fifo = Engine.Intq.create ();
          policy = Core.Steal_policy.create ~rng:(Engine.Rng.split rng) ~cores:p.cores ~self:id;
          cur_handle = Sim.no_handle;
          cur_fn = fn_none;
          done_buf = Array.make 1 0.;
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
      zcores;
      respond;
      trace;
      idle = (1 lsl p.cores) - 1;
      user = 0;
      marked = 0;
      ipi = 0;
      rx = 0;
      remote = 0;
      ipis_sent = 0;
      victim_orders = 0;
      remote_batches = 0;
      wc_violations = 0;
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
    (fun members ->
      assert (members land lnot t.idle = 0);
      if Sched.has_ready t.sched || (t.p.zy_interrupts && ipi_due t) then begin
        (* Whether some core needs an IPI: -1 until checked, then 0 or 1.
           Only a step can change the answer, so the check runs at most
           once per step taken. *)
        let due = ref (-1) in
        let rest = ref members in
        while !rest <> 0 do
          let c = t.zcores.(lowest_core !rest) in
          rest := !rest land (!rest - 1);
          t.marked <- t.marked land lnot c.bit;
          let work = (t.rx lor t.remote) land c.bit <> 0 || Sched.has_ready t.sched in
          if (not work) && t.p.zy_interrupts && !due < 0 then
            due := if ipi_due t then 1 else 0;
          if work || !due = 1 then begin
            step t c;
            due := -1
          end
        done
      end
      else begin
        (* No shuffle queue holds work and no core needs an IPI, so a
           member steps only for its own ring or remote FIFO: a kernel-mode
           rx or remote transmit, which readies nothing and puts no core in
           user mode. Later members thus decide as the loop above would,
           and no step reads or writes marks. *)
        t.marked <- t.marked land lnot members;
        let rest = ref (members land (t.rx lor t.remote)) in
        while !rest <> 0 do
          let c = t.zcores.(lowest_core !rest) in
          rest := !rest land (!rest - 1);
          step t c
        done
      end) [@zygos.hot];
  t.fn_ipi <- (fun id -> deliver_ipi t t.zcores.(id)) [@zygos.hot];
  t.fn_ipi_rx <-
    (fun packed ->
      let v = t.zcores.(packed land 0xffff) in
      let rx_count = packed lsr 16 in
      let n = pop_hw t v ~limit:rx_count in
      (if tracing t then
         (emit_trace t (Rx { core = v.id; packets = n }) [@zygos.allow "hot-alloc"]));
      deliver_batch t v n;
      wake_idlers t ~delay:t.p.zy_poll_delay) [@zygos.hot];
  t.fn_remote_release <-
    (fun req ->
      (* The batch's last response, then its connection's release. The
         connection is read first: responding may recycle the request. *)
      let conn = Request.conn t.pool req in
      t.respond req;
      Sched.complete t.sched conn;
      wake_idlers t ~delay:t.p.zy_poll_delay) [@zygos.hot];
  t.fn_rx_done <-
    (fun id ->
      let c = t.zcores.(id) in
      c.cur_handle <- Sim.no_handle;
      let n = pop_hw t c ~limit:c.rx_pending in
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
        start_segment t c ~user:false
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
    let c = t.zcores.(Sched.home t.sched (Request.conn pool req)) in
    if Net.Ring.push c.hw req then begin
      t.rx <- t.rx lor c.bit;
      if t.idle land c.bit <> 0 then wake t c ~delay:p.dp_loop
      else if t.user land c.bit <> 0 && p.zy_interrupts then
        (* The home core is executing application code: only another,
           idle, core can notice this packet (and IPI the home core). *)
        wake_idlers t ~delay:p.zy_poll_delay
    end
  in
  let info () =
    let drops = Array.fold_left (fun acc c -> acc + Net.Ring.drops c.hw) 0 t.zcores in
    [
      ("steal_fraction", Sched.steal_fraction t.sched);
      ("ipis_sent", float_of_int t.ipis_sent);
      ("victim_orders", float_of_int t.victim_orders);
      ("ring_drops", float_of_int drops);
      ("local_events", float_of_int (Sched.local_events t.sched));
      ("stolen_events", float_of_int (Sched.stolen_events t.sched));
      ("remote_batches", float_of_int t.remote_batches);
      ("wc_violations", float_of_int t.wc_violations);
    ]
  in
  { Iface.submit; info }

let work_conservation_violations (iface : Iface.t) =
  match Iface.info_value iface "wc_violations" with
  | Some v -> int_of_float v
  | None -> invalid_arg "Zygos.work_conservation_violations: not a zygos system"

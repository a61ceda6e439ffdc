module type S = sig
  type lock

  type state = Idle | Ready | Busy

  type 'ev pcb

  type 'ev t

  val create : cores:int -> 'ev t

  val cores : 'ev t -> int

  val register : 'ev t -> conn:int -> home:int -> 'ev pcb

  val conn : 'ev pcb -> int

  val home : 'ev pcb -> int

  val state : 'ev pcb -> state

  val pending_events : 'ev pcb -> int

  val deliver : 'ev t -> 'ev pcb -> 'ev -> unit

  val poll : 'ev t -> core:int -> steal_order:int array -> bool

  val poll_local : 'ev t -> core:int -> bool

  val batch_pcb : 'ev t -> core:int -> 'ev pcb

  val batch_size : 'ev t -> core:int -> int

  val batch_event : 'ev t -> core:int -> int -> 'ev

  val batch_stolen_from : 'ev t -> core:int -> int

  val complete : 'ev t -> 'ev pcb -> unit

  val queue_length : 'ev t -> core:int -> int

  val has_ready : 'ev t -> bool

  type counters = {
    local_dispatches : int;
    steal_dispatches : int;
    local_events : int;
    stolen_events : int;
  }

  val counters : 'ev t -> core:int -> counters

  val total_counters : 'ev t -> counters

  val steal_fraction : 'ev t -> float
end

(* Growable circular buffer, the flat replacement for the [Queue.t]s
   that used to back PCB event queues and per-core shuffle queues: a
   [Queue] allocates a 3-word cell per [add], i.e. one minor alloc per
   delivered event. The backing array is created lazily from the first
   pushed element (no dummy value exists for a polymorphic payload) and
   doubles on overflow. [pop] requires a non-empty buffer — callers
   check [len] — so no [option] is allocated either. *)
module Cq = struct
  type 'a t = { mutable buf : 'a array; mutable head : int; mutable len : int }

  let create () = { buf = [||]; head = 0; len = 0 }

  let[@zygos.hot] length q = q.len

  let[@zygos.hot] is_empty q = q.len = 0

  let[@zygos.hot] grow q x =
    let cap = Array.length q.buf in
    (* amortized doubling: O(log n) growths over a run, zero steady-state *)
    if cap = 0 then q.buf <- (Array.make 8 x [@zygos.allow "hot-alloc"])
    else begin
      let buf = (Array.make (2 * cap) x [@zygos.allow "hot-alloc"]) in
      let first = cap - q.head in
      Array.blit q.buf q.head buf 0 (min q.len first);
      if q.len > first then Array.blit q.buf 0 buf first (q.len - first);
      q.buf <- buf;
      q.head <- 0
    end

  let[@zygos.hot] push q x =
    if q.len = Array.length q.buf then grow q x;
    let cap = Array.length q.buf in
    let tail = q.head + q.len in
    let tail = if tail >= cap then tail - cap else tail in
    Array.unsafe_set q.buf tail x;
    q.len <- q.len + 1

  (* Precondition: not empty. The popped slot keeps its reference until
     overwritten; payloads here are immediates (request handles) or
     long-lived PCBs, so nothing is kept alive spuriously. *)
  let[@zygos.hot] pop q =
    let x = Array.unsafe_get q.buf q.head in
    let head = q.head + 1 in
    q.head <- (if head = Array.length q.buf then 0 else head);
    q.len <- q.len - 1;
    x
end

module Make (L : Platform.LOCK) : S with type lock = L.t = struct
  type lock = L.t

  type state = Idle | Ready | Busy

  type 'ev pcb = {
    conn_id : int;
    home_core : int;
    plock : L.t;  (* guards [events] and [pcb_state] *)
    events : 'ev Cq.t;
    mutable pcb_state : state;
  }

  type 'ev core_state = {
    qlock : L.t;  (* guards [shuffle]; §5's one spinlock per core *)
    shuffle : 'ev pcb Cq.t;
    (* Scratch for the zero-alloc dispatch API: [poll] claims a batch
       into [batch]/[batch_n] and parks the PCB in [cur] (a 1-slot array
       instead of an option, the engine's tbuf idiom). Valid until the
       core's next [poll]. *)
    mutable batch : 'ev array;
    mutable batch_n : int;
    mutable cur : 'ev pcb array;  (* [||] until the first dispatch *)
    mutable cur_src : int;  (* victim core, or -1 for a local dispatch *)
    mutable local_dispatches : int;
    mutable steal_dispatches : int;
    mutable local_events : int;
    mutable stolen_events : int;
  }

  (* [ready] counts PCBs sitting in shuffle queues, maintained inside the
     per-queue critical sections. A zero lets [poll] skip the all-cores
     scan entirely — the common case for an idle machine, where every
     fired timer used to pay cores x (lock, emptiness check, unlock).
     Cross-core reads are a snapshot: a concurrent enqueue can be missed
     for one poll, which only delays that dispatcher's next loop
     iteration (the executor polls in a retry loop; the simulator is
     single-threaded and sees the exact count). *)
  type 'ev t = { core_states : 'ev core_state array; ready : int Atomic.t }

  let create ~cores =
    if cores < 1 then invalid_arg "Sched.create: cores < 1";
    let make_core _ =
      {
        qlock = L.create ();
        shuffle = Cq.create ();
        batch = [||];
        batch_n = 0;
        cur = [||];
        cur_src = -1;
        local_dispatches = 0;
        steal_dispatches = 0;
        local_events = 0;
        stolen_events = 0;
      }
    in
    { core_states = Array.init cores make_core; ready = Atomic.make 0 }

  let cores t = Array.length t.core_states

  let register t ~conn ~home =
    if home < 0 || home >= cores t then invalid_arg "Sched.register: home out of range";
    { conn_id = conn; home_core = home; plock = L.create (); events = Cq.create ();
      pcb_state = Idle }

  let[@zygos.hot] conn pcb = pcb.conn_id

  let home pcb = pcb.home_core

  let state pcb = pcb.pcb_state

  let pending_events pcb = Cq.length pcb.events

  (* Lock order is always PCB lock before shuffle-queue lock, both here and
     in [complete]; [claim_from] takes them in the opposite nesting but
     never holds both (the queue lock is released before the PCB lock is
     taken — safe because only the dispatcher that popped the PCB can see
     it in Ready-but-not-in-queue limbo). *)
  let[@zygos.hot] enqueue_ready t pcb =
    let c = t.core_states.(pcb.home_core) in
    (L.lock c.qlock [@zygos.allow "r6"]);
    Cq.push c.shuffle pcb;
    Atomic.incr t.ready;
    (L.unlock c.qlock [@zygos.allow "r6"])

  let[@zygos.hot] deliver t pcb ev =
    (L.lock pcb.plock [@zygos.allow "r6"]);
    Cq.push pcb.events ev;
    let became_ready = pcb.pcb_state = Idle in
    if became_ready then pcb.pcb_state <- Ready;
    if became_ready then begin
      enqueue_ready t pcb;
      (L.unlock pcb.plock [@zygos.allow "r6"])
    end
    else (L.unlock pcb.plock [@zygos.allow "r6"])

  (* Cold scratch (re)sizing, out of the hot claim path. *)
  let[@zygos.hot] reserve_batch me n fill =
    if Array.length me.batch < n then begin
      let cap = max 8 (Array.length me.batch) in
      let cap = ref cap in
      while !cap < n do
        cap := 2 * !cap
      done;
      me.batch <- (Array.make !cap fill [@zygos.allow "hot-alloc"])
    end

  let[@zygos.hot] set_cur me pcb =
    if Array.length me.cur = 0 then me.cur <- (Array.make 1 pcb [@zygos.allow "hot-alloc"])
    else me.cur.(0) <- pcb

  (* Pop one ready PCB from [victim]'s shuffle queue, acquire it, and
     drain its whole event batch into [core]'s scratch slice — an array
     walk for the caller instead of a cons per event. Stealing uses
     try_lock and gives up on contention (§5). *)
  let[@zygos.hot] claim_from t ~core ~victim =
    let c = t.core_states.(victim) in
    let stealing = victim <> core in
    let locked = if stealing then (L.try_lock c.qlock [@zygos.allow "r6"]) else ((L.lock c.qlock [@zygos.allow "r6"]); true) in
    if not locked then false
    else if Cq.is_empty c.shuffle then begin
      (L.unlock c.qlock [@zygos.allow "r6"]);
      false
    end
    else begin
      let pcb = Cq.pop c.shuffle in
      Atomic.decr t.ready;
      (L.unlock c.qlock [@zygos.allow "r6"]);
      (L.lock pcb.plock [@zygos.allow "r6"]);
      assert (pcb.pcb_state = Ready);
      pcb.pcb_state <- Busy;
      let me = t.core_states.(core) in
      let n = Cq.length pcb.events in
      (* Ready implies a non-empty event queue, so peeking a fill
         element for the scratch array is safe. *)
      reserve_batch me n (Array.unsafe_get pcb.events.Cq.buf pcb.events.Cq.head);
      for i = 0 to n - 1 do
        Array.unsafe_set me.batch i (Cq.pop pcb.events)
      done;
      me.batch_n <- n;
      (L.unlock pcb.plock [@zygos.allow "r6"]);
      set_cur me pcb;
      me.cur_src <- (if stealing then victim else -1);
      if stealing then begin
        me.steal_dispatches <- me.steal_dispatches + 1;
        me.stolen_events <- me.stolen_events + n
      end
      else begin
        me.local_dispatches <- me.local_dispatches + 1;
        me.local_events <- me.local_events + n
      end;
      true
    end

  let[@zygos.hot] rec try_victims t ~core ~steal_order i n =
    if i >= n then false
    else begin
      let victim = Array.unsafe_get steal_order i in
      if victim = core then try_victims t ~core ~steal_order (i + 1) n
      else if claim_from t ~core ~victim then true
      else try_victims t ~core ~steal_order (i + 1) n
    end

  let[@zygos.hot] poll t ~core ~steal_order =
    Atomic.get t.ready <> 0
    && (claim_from t ~core ~victim:core
       || (Atomic.get t.ready <> 0
          && try_victims t ~core ~steal_order 0 (Array.length steal_order)))

  let[@zygos.hot] poll_local t ~core =
    Atomic.get t.ready <> 0 && claim_from t ~core ~victim:core

  let[@zygos.hot] batch_pcb t ~core =
    let me = t.core_states.(core) in
    if Array.length me.cur = 0 then invalid_arg "Sched.batch_pcb: nothing dispatched";
    Array.unsafe_get me.cur 0

  let[@zygos.hot] batch_size t ~core = t.core_states.(core).batch_n

  let[@zygos.hot] batch_event t ~core i =
    let me = t.core_states.(core) in
    if i < 0 || i >= me.batch_n then invalid_arg "Sched.batch_event: out of range";
    Array.unsafe_get me.batch i

  let[@zygos.hot] batch_stolen_from t ~core = t.core_states.(core).cur_src

  let[@zygos.hot] complete t pcb =
    (L.lock pcb.plock [@zygos.allow "r6"]);
    if pcb.pcb_state <> Busy then begin
      (L.unlock pcb.plock [@zygos.allow "r6"]);
      invalid_arg "Sched.complete: pcb not busy"
    end;
    if Cq.is_empty pcb.events then pcb.pcb_state <- Idle
    else begin
      pcb.pcb_state <- Ready;
      enqueue_ready t pcb
    end;
    (L.unlock pcb.plock [@zygos.allow "r6"])

  let[@zygos.hot] queue_length t ~core =
    let c = t.core_states.(core) in
    (L.lock c.qlock [@zygos.allow "r6"]);
    let n = Cq.length c.shuffle in
    (L.unlock c.qlock [@zygos.allow "r6"]);
    n

  let[@zygos.hot] has_ready t = Atomic.get t.ready <> 0

  type counters = {
    local_dispatches : int;
    steal_dispatches : int;
    local_events : int;
    stolen_events : int;
  }

  let counters t ~core =
    let c = t.core_states.(core) in
    {
      local_dispatches = c.local_dispatches;
      steal_dispatches = c.steal_dispatches;
      local_events = c.local_events;
      stolen_events = c.stolen_events;
    }

  let total_counters t =
    let add (acc : counters) (c : _ core_state) : counters =
      {
        local_dispatches = acc.local_dispatches + c.local_dispatches;
        steal_dispatches = acc.steal_dispatches + c.steal_dispatches;
        local_events = acc.local_events + c.local_events;
        stolen_events = acc.stolen_events + c.stolen_events;
      }
    in
    Array.fold_left add
      { local_dispatches = 0; steal_dispatches = 0; local_events = 0; stolen_events = 0 }
      t.core_states

  let steal_fraction t =
    let c = total_counters t in
    let total = c.local_events + c.stolen_events in
    if total = 0 then 0. else float_of_int c.stolen_events /. float_of_int total
end

module Sim_sched = Make (Platform.Nolock)
module Mt_sched = Make (Platform.Mutex_lock)

module Intq = Engine.Intq
module Intqs = Engine.Intqs

type state = Idle | Ready | Busy

type core_state = {
  shuffle : Intq.t;  (* ready connection ids, oldest first *)
  (* Scratch for the zero-alloc dispatch API: [poll] claims a batch into
     [batch]/[batch_n] and parks its connection in [cur]. Valid until
     the core's next [poll]. *)
  mutable batch : int array;
  mutable batch_n : int;
  mutable cur : int;  (* -1 until the first dispatch *)
  mutable cur_src : int;  (* victim core, or -1 for a local dispatch *)
  mutable local_dispatches : int;
  mutable steal_dispatches : int;
  mutable local_events : int;
  mutable stolen_events : int;
}

(* A PCB is its connection id: [home], [state] and [events] are indexed
   by it. [ready] counts connections sitting in shuffle queues; a zero
   lets [poll] skip the all-cores scan entirely, the common case for an
   idle machine. *)
type t = {
  core_states : core_state array;
  home : int array;  (* -1 until registered *)
  state : state array;
  events : Intqs.t;  (* per-connection pending events *)
  mutable ready : int;
}

let create ~cores ~conns =
  if cores < 1 then invalid_arg "Sched.create: cores < 1";
  if conns < 0 then invalid_arg "Sched.create: conns < 0";
  let make_core _ =
    {
      shuffle = Intq.create ();
      batch = Array.make 8 0;
      batch_n = 0;
      cur = -1;
      cur_src = -1;
      local_dispatches = 0;
      steal_dispatches = 0;
      local_events = 0;
      stolen_events = 0;
    }
  in
  {
    core_states = Array.init cores make_core;
    home = Array.make conns (-1);
    state = Array.make conns Idle;
    events = Intqs.create ~queues:conns ();
    ready = 0;
  }

let register t ~conn ~home =
  if home < 0 || home >= Array.length t.core_states then
    invalid_arg "Sched.register: home out of range";
  t.home.(conn) <- home

let[@zygos.hot] home t conn = t.home.(conn)

let state t conn = t.state.(conn)

let[@zygos.hot] enqueue_ready t conn =
  Intq.push t.core_states.(t.home.(conn)).shuffle conn;
  t.ready <- t.ready + 1

let[@zygos.hot] deliver t conn ev =
  Intqs.push t.events conn ev;
  if t.state.(conn) = Idle then begin
    t.state.(conn) <- Ready;
    enqueue_ready t conn
  end

(* Cold scratch growth, out of the steady state. *)
let[@zygos.hot] grow_batch me =
  let cap = Array.length me.batch in
  let batch = (Array.make (2 * cap) 0 [@zygos.allow "hot-alloc"]) in
  Array.blit me.batch 0 batch 0 cap;
  me.batch <- batch

(* Pop one ready connection from [victim]'s shuffle queue and drain its
   whole event batch into [core]'s scratch slice — an array walk for the
   caller instead of a cons per event. *)
let[@zygos.hot] claim_from t ~core ~victim =
  let c = t.core_states.(victim) in
  if Intq.is_empty c.shuffle then false
  else begin
    let conn = Intq.pop c.shuffle in
    t.ready <- t.ready - 1;
    assert (t.state.(conn) = Ready);
    t.state.(conn) <- Busy;
    let me = t.core_states.(core) in
    let n = ref 0 in
    while not (Intqs.is_empty t.events conn) do
      if !n = Array.length me.batch then grow_batch me;
      me.batch.(!n) <- Intqs.pop t.events conn;
      incr n
    done;
    let n = !n in
    me.batch_n <- n;
    me.cur <- conn;
    let stealing = victim <> core in
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
    let victim = steal_order.(i) in
    if victim = core then try_victims t ~core ~steal_order (i + 1) n
    else if claim_from t ~core ~victim then true
    else try_victims t ~core ~steal_order (i + 1) n
  end

let[@zygos.hot] poll t ~core ~steal_order =
  t.ready <> 0
  && (claim_from t ~core ~victim:core
     || (t.ready <> 0 && try_victims t ~core ~steal_order 0 (Array.length steal_order)))

let[@zygos.hot] poll_local t ~core = t.ready <> 0 && claim_from t ~core ~victim:core

let[@zygos.hot] batch_conn t ~core =
  let me = t.core_states.(core) in
  if me.cur < 0 then invalid_arg "Sched.batch_conn: nothing dispatched";
  me.cur

let[@zygos.hot] batch_size t ~core = t.core_states.(core).batch_n

let[@zygos.hot] batch_event t ~core i =
  let me = t.core_states.(core) in
  if i < 0 || i >= me.batch_n then invalid_arg "Sched.batch_event: out of range";
  me.batch.(i)

let[@zygos.hot] batch_stolen_from t ~core = t.core_states.(core).cur_src

let[@zygos.hot] complete t conn =
  if t.state.(conn) <> Busy then invalid_arg "Sched.complete: pcb not busy";
  if Intqs.is_empty t.events conn then t.state.(conn) <- Idle
  else begin
    t.state.(conn) <- Ready;
    enqueue_ready t conn
  end

let[@zygos.hot] queue_length t ~core = Intq.length t.core_states.(core).shuffle

let[@zygos.hot] has_ready t = t.ready <> 0

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
  let add (acc : counters) (c : core_state) : counters =
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

module Sched = Core.Sched.Mt_sched

type task = unit -> unit

type state = Created | Running | Stopped

type t = {
  sched : task Sched.t;
  pcbs : task Sched.pcb array;
  cores : int;
  seed : int;
  submitted : int Atomic.t;
  executed : int Atomic.t;
  stop_flag : bool Atomic.t;
  mutable domains : unit Domain.t list
      [@zygos.owned "lock-protected: read/written only by start/stop under [state_lock]"];
  mutable state : state
      [@zygos.owned "lock-protected: read/written only by start/stop under [state_lock]"];
  state_lock : Mutex.t;
}

let create ?(seed = 17) ~cores ~conns () =
  if cores < 1 then invalid_arg "Executor.create: cores < 1";
  if conns < 1 then invalid_arg "Executor.create: conns < 1";
  let sched = Sched.create ~cores in
  let pcbs = Array.init conns (fun c -> Sched.register sched ~conn:c ~home:(c mod cores)) in
  {
    sched;
    pcbs;
    cores;
    seed;
    submitted = Atomic.make 0;
    executed = Atomic.make 0;
    stop_flag = Atomic.make false;
    domains = [];
    state = Created;
    state_lock = Mutex.create ();
  }

(* Only this core's worker polls for [core], so its claimed batch stays
   put while the tasks run. *)
let run_batch t ~core =
  for i = 0 to Sched.batch_size t.sched ~core - 1 do
    Sched.batch_event t.sched ~core i ();
    ignore (Atomic.fetch_and_add t.executed 1 : int)
  done

let worker t ~core =
  let rng = Engine.Rng.create ~seed:(t.seed + (1000 * core)) in
  let policy = Core.Steal_policy.create ~rng ~cores:t.cores ~self:core in
  let rec loop idle_spins =
    let order = Core.Steal_policy.victim_order policy in
    if Sched.poll t.sched ~core ~steal_order:order then begin
      run_batch t ~core;
      Sched.complete t.sched (Sched.batch_pcb t.sched ~core);
      loop 0
    end
    else if Atomic.get t.stop_flag && Atomic.get t.executed = Atomic.get t.submitted then ()
    else begin
      (* Idle loop: burn a few polls, then yield the processor so this
         works on machines with fewer cores than workers. *)
      if idle_spins > 64 then Domain.cpu_relax ();
      if idle_spins > 1024 then Unix.sleepf 0.0001;
      loop (idle_spins + 1)
    end
  in
  loop 0

let start t =
  Mutex.lock t.state_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.state_lock) @@ fun () ->
  if t.state <> Created then invalid_arg "Executor.start: already started";
  t.state <- Running;
  t.domains <- List.init t.cores (fun core -> Domain.spawn (fun () -> worker t ~core))

let submit t ~conn task =
  if Atomic.get t.stop_flag then invalid_arg "Executor.submit: executor stopped";
  if conn < 0 || conn >= Array.length t.pcbs then invalid_arg "Executor.submit: conn out of range";
  ignore (Atomic.fetch_and_add t.submitted 1 : int);
  Sched.deliver t.sched t.pcbs.(conn) task

let drain t =
  while Atomic.get t.executed < Atomic.get t.submitted do
    Unix.sleepf 0.0001
  done

let stop t =
  Mutex.lock t.state_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.state_lock) @@ fun () ->
  match t.state with
  | Stopped | Created -> t.state <- Stopped
  | Running ->
      drain t;
      Atomic.set t.stop_flag true;
      List.iter Domain.join t.domains;
      t.domains <- [];
      t.state <- Stopped

type stats = {
  submitted : int;
  executed : int;
  local_batches : int;
  stolen_batches : int;
  steal_fraction : float;
}

let stats t =
  let c = Sched.total_counters t.sched in
  {
    submitted = Atomic.get t.submitted;
    executed = Atomic.get t.executed;
    local_batches = c.Sched.local_dispatches;
    stolen_batches = c.Sched.steal_dispatches;
    steal_fraction = Sched.steal_fraction t.sched;
  }

module Sim = Engine.Sim
module Request = Net.Request
module Corefault = Core.Corefault

type icore = {
  id : int;
  ring : Net.Ring.t;
  mutable busy : bool;
  batch : Request.t array;  (* scratch for the current iteration, capacity B *)
  tbuf : float array;  (* 1-slot unboxed clock accumulator (tbuf idiom) *)
}

(* Advance the core's clock slot by [work] µs, straggler-aware. With no
   fault windows this is exactly [t +. work], inline: bit-identical to the
   pre-fault model, and no float is boxed. *)
let[@inline] advance faults ~fault_free c work =
  let t = Array.unsafe_get c.tbuf 0 in
  Array.unsafe_set c.tbuf 0
    (if fault_free then t +. work else Corefault.completion_time faults ~core:c.id ~now:t ~work)

(* [route req] returns the core for a request; [note] observes the
   arrival (slot counters for the control plane). *)
let make sim (p : Params.t) ~pool ~route ~note ~respond =
  let p = Params.validate p in
  let faults = Params.corefaults p in
  let fault_free = Corefault.is_none faults in
  let clk = Sim.clock_buffer sim and kbuf = Sim.key_buffer sim in
  let cores =
    Array.init p.cores (fun id ->
        { id; ring = Net.Ring.create ~capacity:p.ring_capacity; busy = false;
          batch = Array.make p.ix_batch Request.none; tbuf = Array.make 1 0. })
  in
  (* Take up to B packets into the core's scratch slice: "adaptive"
     bounded batching processes whatever has accumulated, capped at B. *)
  let rec take c n =
    if n = p.ix_batch then n
    else begin
      let req = Net.Ring.pop_or c.ring ~default:Request.none in
      if req = Request.none then n
      else begin
        Array.unsafe_set c.batch n req;
        take c (n + 1)
      end
    end
  [@@zygos.hot]
  in
  let rec iteration c =
    (let k = take c 0 in
     if k = 0 then c.busy <- false
     else begin
       (* Strict run-to-completion bounded by B (§6.2): the whole batch
          crosses the receive stack, every request executes, and the
          responses leave together through the batched transmit/syscall
          path — request 1's response waits for request k's execution,
          which is exactly why large B hurts tail latency (Fig. 11). *)
       let pkts = float_of_int p.rpc_packets in
       (* The running clock walks the batch through the core's 1-slot
          float array, so no step boxes it. The receive path is two
          steps, preserving the left-associated sum
          [now +. dp_loop +. k*rx] bit for bit. *)
       Array.unsafe_set c.tbuf 0 (Array.unsafe_get clk 0);
       advance faults ~fault_free c p.dp_loop;
       advance faults ~fault_free c (float_of_int k *. pkts *. p.dp_rx);
       let starteds = Request.starteds pool and services = Request.services pool in
       for i = 0 to k - 1 do
         let s = Request.slot pool (Array.unsafe_get c.batch i) in
         Array.unsafe_set starteds s (Array.unsafe_get c.tbuf 0);
         advance faults ~fault_free c (Array.unsafe_get services s)
       done;
       for i = 0 to k - 1 do
         advance faults ~fault_free c (pkts *. p.dp_tx);
         Array.unsafe_set kbuf 0 (Array.unsafe_get c.tbuf 0);
         let _ : Sim.handle =
           (* [respond] is itself an [int -> unit] over the handle: the
              long-lived dispatch fn, no per-response closure. *)
           Sim.schedule_fn_keyed sim respond (Array.unsafe_get c.batch i)
         in
         ()
       done;
       Array.unsafe_set kbuf 0 (Array.unsafe_get c.tbuf 0);
       let _ : Sim.handle = Sim.schedule_fn_keyed sim fn_iteration c.id in
       ()
     end)
  [@@zygos.hot]
  (* Closure-free dispatch: one long-lived fn, core id as the payload. *)
  and fn_iteration id = (iteration cores.(id)) [@@zygos.hot] in
  let[@zygos.hot] submit req =
    note req;
    let c = cores.(route req) in
    if Net.Ring.push c.ring req then
      if not c.busy then begin
        c.busy <- true;
        (* Polling loop: an idle core notices the packet within one loop
           iteration. *)
        Array.unsafe_set kbuf 0 (Array.unsafe_get clk 0 +. p.dp_loop);
        let _ : Sim.handle = Sim.schedule_fn_keyed sim fn_iteration c.id in
        ()
      end
  in
  let info () =
    let drops = Array.fold_left (fun acc c -> acc + Net.Ring.drops c.ring) 0 cores in
    [ ("ring_drops", float_of_int drops) ]
  in
  { Iface.name = (if p.ix_batch = 1 then "ix" else Printf.sprintf "ix-b%d" p.ix_batch); submit; info }

let create sim (p : Params.t) ~pool ~conns ~respond =
  let rss = Net.Rss.create ~queues:p.cores () in
  let home = Array.init conns (fun c -> Net.Rss.queue_of_conn rss c) in
  make sim p ~pool
    ~route:(fun [@zygos.hot] req -> home.(Request.conn pool req))
    ~note:(fun _ -> ()) ~respond

let create_with_rss sim (p : Params.t) ~pool ~rss ~conns ~respond =
  let slot = Array.init conns (fun c -> Net.Rss.slot_of_conn rss c) in
  let counts = Array.make (Net.Rss.slots rss) 0 in
  let route req = Net.Rss.queue_of_slot rss slot.(Request.conn pool req) in
  let note req =
    let s = slot.(Request.conn pool req) in
    counts.(s) <- counts.(s) + 1
  in
  let iface = make sim p ~pool ~route ~note ~respond in
  let read_and_reset () =
    let snapshot = Array.copy counts in
    Array.fill counts 0 (Array.length counts) 0;
    snapshot
  in
  (iface, read_and_reset)

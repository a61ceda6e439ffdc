module Sim = Engine.Sim
module Request = Net.Request
module Corefault = Core.Corefault

type icore = {
  id : int;
  ring : Net.Ring.t;
  mutable busy : bool;
  batch : Request.t array;  (* scratch for the current iteration, capacity B *)
  mutable last : Request.t;  (* the batch's last request, answered with the next poll *)
  tbuf : float array;  (* 1-slot unboxed clock accumulator (tbuf idiom) *)
}

(* Advance the core's clock slot by [work] µs, straggler-aware. With no
   fault windows this is exactly [t +. work], inline: bit-identical to the
   pre-fault model, and no float is boxed. *)
let[@inline] advance faults ~fault_free c work =
  let t = c.tbuf.(0) in
  c.tbuf.(0) <-
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
          batch = Array.make p.ix_batch Request.none; last = Request.none;
          tbuf = Array.make 1 0. })
  in
  (* Take up to B packets into the core's scratch slice: "adaptive"
     bounded batching processes whatever has accumulated, capped at B. *)
  let rec take c n =
    if n = p.ix_batch then n
    else begin
      let req = Net.Ring.pop_or c.ring ~default:Request.none in
      if req = Request.none then n
      else begin
        c.batch.(n) <- req;
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
       c.tbuf.(0) <- clk.(0);
       advance faults ~fault_free c p.dp_loop;
       advance faults ~fault_free c (float_of_int k *. pkts *. p.dp_rx);
       let starteds = Request.starteds pool and services = Request.services pool in
       for i = 0 to k - 1 do
         let s = Request.slot pool c.batch.(i) in
         starteds.(s) <- c.tbuf.(0);
         advance faults ~fault_free c services.(s)
       done;
       c.last <- c.batch.(k - 1);
       for i = 0 to k - 1 do
         advance faults ~fault_free c (pkts *. p.dp_tx);
         kbuf.(0) <- c.tbuf.(0);
         let _ : Sim.handle =
           (* [respond] is itself an [int -> unit] over the handle: the
              long-lived dispatch fn, no per-response closure. The last
              response and the next poll are due at one instant, as
              consecutive events, so one event answers and then polls. *)
           if i < k - 1 then Sim.schedule_fn_keyed sim respond c.batch.(i)
           else Sim.schedule_fn_keyed sim fn_respond_poll c.id
         in
         ()
       done
     end)
  [@@zygos.hot]
  (* Closure-free dispatch: long-lived fns, core id as the payload. *)
  and fn_iteration id = (iteration cores.(id)) [@@zygos.hot]
  and fn_respond_poll id = (respond cores.(id).last; iteration cores.(id)) [@@zygos.hot] in
  let[@zygos.hot] submit req =
    note req;
    let c = cores.(route req) in
    if Net.Ring.push c.ring req then
      if not c.busy then begin
        c.busy <- true;
        (* Polling loop: an idle core notices the packet within one loop
           iteration. *)
        kbuf.(0) <- clk.(0) +. p.dp_loop;
        let _ : Sim.handle = Sim.schedule_fn_keyed sim fn_iteration c.id in
        ()
      end
  in
  let info () =
    let drops = Array.fold_left (fun acc c -> acc + Net.Ring.drops c.ring) 0 cores in
    [ ("ring_drops", float_of_int drops) ]
  in
  { Iface.submit; info }

let create sim (p : Params.t) ~pool ~conns ~respond =
  let rss = Net.Rss.create ~queues:p.cores () in
  let home = Array.init conns (fun c -> Net.Rss.queue_of_conn rss c) in
  make sim p ~pool
    ~route:(fun [@zygos.hot] req -> home.(Request.conn pool req))
    ~note:(fun _ -> ()) ~respond

(* The control plane's period (µs) and the hottest-to-coldest traffic
   ratio above which a slot moves. *)
let rebalance_window = 200.

let imbalance_threshold = 1.3

let rebalanced sim (p : Params.t) ~pool ~conns ~respond =
  let rss = Net.Rss.create ~queues:p.cores () in
  let conn_slot = Array.init conns Net.Rss.slot_of_conn in
  (* packets per indirection slot since the last window *)
  let counts = Array.make Net.Rss.slots 0 in
  let route req = Net.Rss.queue_of_slot rss conn_slot.(Request.conn pool req) in
  let note req =
    let s = conn_slot.(Request.conn pool req) in
    counts.(s) <- counts.(s) + 1
  in
  let iface = make sim p ~pool ~route ~note ~respond in
  let windows = ref 0 and moves = ref 0 and idle_windows = ref 0 in
  let rec tick (_ : int) =
    incr windows;
    let total = Array.fold_left ( + ) 0 counts in
    if total = 0 then incr idle_windows
    else begin
      idle_windows := 0;
      (* Aggregate slot counts into per-core load under the current
         mapping. *)
      let per_queue = Array.make p.cores 0 in
      Array.iteri
        (fun slot n ->
          let q = Net.Rss.queue_of_slot rss slot in
          per_queue.(q) <- per_queue.(q) + n)
        counts;
      let hottest = ref 0 and coldest = ref 0 in
      Array.iteri
        (fun q n ->
          if n > per_queue.(!hottest) then hottest := q;
          if n < per_queue.(!coldest) then coldest := q)
        per_queue;
      let hot = float_of_int per_queue.(!hottest) in
      let cold = float_of_int (Int.max 1 per_queue.(!coldest)) in
      if !hottest <> !coldest && hot > imbalance_threshold *. cold then begin
        (* Move the busiest slot of the hottest core, but never a slot
           so busy that moving it would just swap the imbalance. *)
        let surplus = (hot -. cold) /. 2. in
        let best = ref (-1) and best_count = ref 0 in
        Array.iteri
          (fun slot n ->
            if
              Net.Rss.queue_of_slot rss slot = !hottest
              && n > !best_count
              && float_of_int n <= surplus
            then begin
              best := slot;
              best_count := n
            end)
          counts;
        if !best >= 0 then begin
          Net.Rss.set_slot rss ~slot:!best ~queue:!coldest;
          incr moves
        end
      end
    end;
    Array.fill counts 0 (Array.length counts) 0;
    (* Re-arm while traffic flows; stop after two quiet windows so the
       simulation can drain and terminate. *)
    if !idle_windows < 2 then arm ()
  and arm () =
    (Sim.key_buffer sim).(0) <- Sim.now sim +. rebalance_window;
    ignore (Sim.schedule_fn_keyed sim tick 0 : Sim.handle)
  in
  arm ();
  let info () =
    iface.Iface.info ()
    @ [
        ("rebalance_moves", float_of_int !moves);
        ("rebalance_windows", float_of_int !windows);
      ]
  in
  { iface with Iface.info }

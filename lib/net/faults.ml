module Sim = Engine.Sim
module Rng = Engine.Rng

type plan = { drop : float; duplicate : float; reorder : float }

(* Extra latency of a reordered packet, and the lag of a duplicate
   behind its original (µs). *)
let reorder_delay = 5.
let dup_delay = 1.

let validate_plan p =
  let rate name x =
    if Float.is_nan x || x < 0. || x > 1. then
      invalid_arg (Printf.sprintf "Faults: %s rate %g outside [0, 1]" name x)
  in
  rate "drop" p.drop;
  rate "duplicate" p.duplicate;
  rate "reorder" p.reorder

let plan ?(drop = 0.) ?(duplicate = 0.) ?(reorder = 0.) () =
  let p = { drop; duplicate; reorder } in
  validate_plan p;
  p

type t = {
  sim : Sim.t;
  rng : Rng.t;
  plan : plan;
  deliver : int -> unit;
  mutable packets : int;
  mutable drops : int;
  mutable duplicates : int;
  mutable reorders : int;
  mutable injected : int;
}

let create sim ~rng ~plan ~deliver () =
  validate_plan plan;
  {
    sim;
    rng;
    plan;
    deliver;
    packets = 0;
    drops = 0;
    duplicates = 0;
    reorders = 0;
    injected = 0;
  }

(* Late copies are keyed events on [t.deliver], bound once at [create]. *)
let later t delay pkt =
  (Sim.key_buffer t.sim).(0) <- Sim.now t.sim +. delay;
  let _ : Sim.handle = Sim.schedule_fn_keyed t.sim t.deliver pkt in
  ()

let apply t pkt =
  t.packets <- t.packets + 1;
  (* Fixed draw order keeps runs comparable across plans with the same
     seed: every packet consumes exactly four draws whichever faults
     fire. The second decides nothing; it keeps every seed's stream,
     and so every pinned output, as it was. *)
  let dropped = Rng.bernoulli t.rng t.plan.drop in
  ignore (Rng.float t.rng : float);
  let duplicated = Rng.bernoulli t.rng t.plan.duplicate in
  let reordered = Rng.bernoulli t.rng t.plan.reorder in
  if dropped then begin
    t.drops <- t.drops + 1;
    t.injected <- t.injected + 1
  end
  else begin
    if duplicated || reordered then t.injected <- t.injected + 1;
    if reordered then begin
      t.reorders <- t.reorders + 1;
      later t reorder_delay pkt
    end
    else t.deliver pkt;
    if duplicated then begin
      t.duplicates <- t.duplicates + 1;
      later t (dup_delay +. if reordered then reorder_delay else 0.) pkt
    end
  end

let info t =
  [
    ("fault_packets", float_of_int t.packets);
    ("fault_drops", float_of_int t.drops);
    ("fault_duplicates", float_of_int t.duplicates);
    ("fault_reorders", float_of_int t.reorders);
    ("fault_injected", float_of_int t.injected);
  ]

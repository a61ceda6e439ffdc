(* The engine schedules only pre-bound [int -> unit] handlers with an
   int payload; a test that wants a one-off closure wraps it in one. *)
let after sim ~delay f =
  (Engine.Sim.key_buffer sim).(0) <- Engine.Sim.now sim +. delay;
  Engine.Sim.schedule_fn_keyed sim (fun (_ : int) -> f ()) 0

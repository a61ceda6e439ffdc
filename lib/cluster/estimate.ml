module Sim = Engine.Sim

type t = {
  sim : Sim.t;
  delay : float;
  until : float;
  live : float array;
  visible : float array;  (* == live when delay = 0 *)
  mutable refreshes : int;
  mutable refresh_fn : int -> unit;
}

let create sim ~live ~delay ~until () =
  if Float.is_nan delay || delay < 0. then invalid_arg "Estimate: delay < 0";
  if Float.is_nan until then invalid_arg "Estimate: until is NaN";
  let t =
    {
      sim;
      delay;
      until;
      live;
      visible = (if delay = 0. then live else Array.copy live);
      refreshes = 0;
      refresh_fn = ignore;
    }
  in
  if delay > 0. then begin
    (* Periodic snapshot: the dispatcher sees queue lengths as of the last
       refresh, i.e. stale by up to [delay] µs — the feedback-delay model
       of RackSched's evaluation. The loop stops at [until] (the end of
       request generation) so the simulation can drain and terminate;
       estimates are frozen from then on. *)
    let clk = Sim.clock_buffer sim and kbuf = Sim.key_buffer sim in
    let arm () =
      kbuf.(0) <- clk.(0) +. t.delay;
      ignore (Sim.schedule_fn_keyed t.sim t.refresh_fn 0 : Sim.handle)
    in
    t.refresh_fn <-
      (fun _ ->
        Array.blit t.live 0 t.visible 0 (Array.length t.live);
        t.refreshes <- t.refreshes + 1;
        if clk.(0) +. t.delay <= t.until then arm ());
    arm ()
  end;
  t

let visible t = t.visible

let refreshes t = t.refreshes

(* Dispatcher-side resync (e.g. on failure-detection recovery): make the
   stale view agree with the corrected live value immediately — the real
   feedback channel a detector uses is fresher than the periodic path. *)
let force t i = if t.delay > 0. then t.visible.(i) <- t.live.(i)

(* Scheduling trace: watch the shuffle layer work — receive batches,
   local dispatches, steals, IPIs and remote transmissions — on a small
   machine under a short burst of load.

   Run with:  dune exec examples/steal_trace.exe *)

let () =
  let cores = 4 and conns = 64 in
  let sim = Engine.Sim.create () in
  let params = Systems.Params.default ~cores () in
  let rng = Engine.Rng.create ~seed:7 in
  let events = ref 0 in
  let trace at ev =
    incr events;
    if !events <= 40 then
      Format.printf "%8.2fus  %a@." at Systems.Zygos.pp_trace_event ev
  in
  let pool = Net.Request.create_pool ~recycle:true () in
  (* 75% of the cores' capacity at a 10us mean service time *)
  let rate = 0.75 *. float_of_int cores /. 10. in
  let gen =
    Net.Loadgen.create sim ~rng:(Engine.Rng.split rng) ~pool ~conns ~rate
      ~service:(Engine.Dist.exponential 10.) ()
  in
  let system =
    Systems.Zygos.create sim params ~rng:(Engine.Rng.split rng) ~pool ~conns
      ~respond:(fun req -> Net.Loadgen.complete gen req)
      ~trace ()
  in
  Net.Loadgen.set_target gen system.Systems.Iface.submit;
  Net.Loadgen.start gen ~warmup:0. ~measure:400.;
  Format.printf "first 40 scheduling events (4 cores, exp 10us tasks, 75%% load):@.@.";
  Engine.Sim.run sim;
  Format.printf "@.... %d events total.  counters:@." !events;
  List.iter (fun (k, v) -> Format.printf "  %-16s %g@." k v) (system.Systems.Iface.info ());
  assert (Net.Loadgen.order_violations gen = 0)

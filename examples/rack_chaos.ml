(* Rack-tier chaos run: 4 ZygOS servers behind a JBSQ(32) ToR dispatcher,
   server 0 crashing mid-run, timeout-based detection + failover on.
   Mirrors the README's library example for the `rack` target. *)

let () =
  let cfg =
    Experiments.Rackrun.config ~servers:4 ~policy:(Cluster.Policy.Jbsq 32)
      ~service:(Engine.Dist.exponential 10.) ~feedback_delay:5.
      ~failplan:[ Cluster.Failplan.Crash { server = 0; start = 2e3; duration = 2e3 } ]
      ~detect:(Net.Loadgen.retry ~timeout:300. ())
      ()
  in
  let p = Experiments.Rackrun.run cfg ~load:0.8 in
  Printf.printf "rack p99 %.1fus, throughput %.3f MRPS\n" p.Experiments.Run.p99
    p.Experiments.Run.throughput;
  List.iter
    (fun (k, v) ->
      if
        List.exists (String.equal k)
          [ "rack_failovers"; "health_detections"; "health_recoveries"; "rack_lost_requests" ]
      then Printf.printf "  %-18s %.0f\n" k v)
    p.Experiments.Run.info

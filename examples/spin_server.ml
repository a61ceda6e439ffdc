(* The paper's synthetic microbenchmark server (§3.1/§3.3), live and end
   to end: clients frame spin requests with the binary RPC codec, the
   stream is segmented into MTU packets and reassembled per connection
   (the §6.2 byte-stream reality), decoded requests run as real spin
   tasks on the ZygOS executor over OCaml domains, and responses are
   framed, "transmitted", and verified.

   Run with:  dune exec examples/spin_server.exe *)

module Framing = Net.Framing
module Spin = Net.Framing.Spin

let () =
  let cores = 4 and conns = 16 and requests = 400 in
  let rng = Engine.Rng.create ~seed:3 in
  let spin = Engine.Dist.exponential 30. in
  (* Client side: build each connection's wire stream of framed requests,
     then chop everything into 64-byte "packets" to force fragmentation. *)
  let per_conn_reqs =
    Array.init conns (fun conn ->
        List.init (requests / conns) (fun i ->
            { Spin.id = (conn * 10_000) + i;
              spin_us = Engine.Dist.sample spin rng }))
  in
  let packets =
    Array.to_list per_conn_reqs
    |> List.mapi (fun conn reqs ->
           let stream = String.concat "" (List.map Spin.encode_request reqs) in
           List.map (fun p -> (conn, p)) (Framing.segment ~mtu:64 stream))
    |> List.concat
  in
  Printf.printf "%d requests framed into %d fragmented packets\n%!" requests
    (List.length packets);
  (* Server side: per-connection reassembly in front of the executor. *)
  let exec = Runtime.Executor.create ~cores ~conns () in
  Runtime.Executor.start exec;
  let reassemblers = Array.init conns (fun _ -> Framing.Reassembler.create ()) in
  let response_streams = Array.init conns (fun _ -> Buffer.create 256) in
  let stream_locks = Array.init conns (fun _ -> Mutex.create ()) in
  List.iter
    (fun (conn, packet) ->
      match Framing.Reassembler.feed reassemblers.(conn) packet with
      | Error e -> failwith e
      | Ok payloads ->
          List.iter
            (fun payload ->
              match Spin.decode_request payload with
              | Error e -> failwith e
              | Ok req ->
                  (* Each response stream is guarded by its per-connection
                     mutex; the arrays are fixed-shape and only indexed. *)
                  (Runtime.Executor.submit exec ~conn (fun () ->
                       Runtime.Spin.busy_wait_us (Float.min req.Spin.spin_us 100.);
                       Mutex.lock stream_locks.(conn);
                       Buffer.add_string response_streams.(conn) (Spin.encode_response req);
                       Mutex.unlock stream_locks.(conn))
                   [@zygos.owned]))
            payloads)
    packets;
  Runtime.Executor.stop exec;
  (* Client side again: decode every response stream and check ids came
     back complete and in order per connection. Written only after
     [Executor.stop]: the main domain owns it. *)
  let ok = (ref true [@zygos.owned]) in
  Array.iteri
    (fun conn buf ->
      let r = Framing.Reassembler.create () in
      let ids =
        match Framing.Reassembler.feed r (Buffer.contents buf) with
        | Ok payloads ->
            List.map
              (fun p -> match Spin.decode_response p with Ok id -> id | Error e -> failwith e)
              payloads
        | Error e -> failwith e
      in
      let expected = List.map (fun r -> r.Spin.id) per_conn_reqs.(conn) in
      if not (List.equal Int.equal ids expected) then begin
        ok := false;
        Printf.printf "conn %d: responses OUT OF ORDER or missing\n" conn
      end)
    response_streams;
  let stats = Runtime.Executor.stats exec in
  Printf.printf
    "served %d spin RPCs on %d domains (%d stolen batches, steal fraction %.1f%%)\n"
    stats.Runtime.Executor.executed cores stats.Runtime.Executor.stolen_batches
    (100. *. stats.Runtime.Executor.steal_fraction);
  Printf.printf "per-connection response ordering: %s\n" (if !ok then "OK" else "VIOLATED");
  if not !ok then exit 1

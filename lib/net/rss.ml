(* The default secret key Microsoft publishes with the RSS specification
   (also the default of many NIC drivers). *)
let default_key =
  "\x6d\x5a\x56\xda\x25\x5b\x0e\xc2\x41\x67\x25\x3d\x43\xa3\x8f\xb0\xd0\xca\x2b\xcb\xae\x7b\x30\xb4\x77\xcb\x2d\xa3\x80\x30\xf2\x0c\x6a\x42\xb7\x3b\xbe\xac\x01\xfa"

let slots = 128

(* The 4-tuple input is fixed at 12 bytes (IPv4 src/dst ip + ports), so
   the hash of an input is the XOR of 12 independent per-byte
   contributions: contribution(position, value) depends only on the key.
   [lut] tabulates all 12×256 of them once; hashing a tuple is then 12
   table loads and XORs instead of ~96 bit-serial 32-bit window
   rebuilds. Entries are 32-bit values held in immediate ints. *)
type t = { table : int array; nqueues : int }

let tuple_bytes_len = 12

(* Bit [i] of the key, MSB-first. *)
let key_bit key i = Char.code key.[i / 8] lsr (7 - (i mod 8)) land 1

(* Sliding 32-bit window of the key starting at bit [bit_pos], as an int. *)
let key_window key bit_pos =
  let w = ref 0 in
  for i = 0 to 31 do
    w := (!w lsl 1) lor key_bit key (bit_pos + i)
  done;
  !w

let build_lut key =
  let lut = Array.make (tuple_bytes_len * 256) 0 in
  for bpos = 0 to tuple_bytes_len - 1 do
    (* Contribution of each of the 8 bits of the byte at [bpos]. *)
    let w0 = key_window key (8 * bpos) in
    let w1 = key_window key ((8 * bpos) + 1) in
    let w2 = key_window key ((8 * bpos) + 2) in
    let w3 = key_window key ((8 * bpos) + 3) in
    let w4 = key_window key ((8 * bpos) + 4) in
    let w5 = key_window key ((8 * bpos) + 5) in
    let w6 = key_window key ((8 * bpos) + 6) in
    let w7 = key_window key ((8 * bpos) + 7) in
    for v = 0 to 255 do
      let h = ref 0 in
      if v land 0x80 <> 0 then h := !h lxor w0;
      if v land 0x40 <> 0 then h := !h lxor w1;
      if v land 0x20 <> 0 then h := !h lxor w2;
      if v land 0x10 <> 0 then h := !h lxor w3;
      if v land 0x08 <> 0 then h := !h lxor w4;
      if v land 0x04 <> 0 then h := !h lxor w5;
      if v land 0x02 <> 0 then h := !h lxor w6;
      if v land 0x01 <> 0 then h := !h lxor w7;
      lut.((bpos * 256) + v) <- !h
    done
  done;
  lut

(* 12*256 entries; index = byte_pos*256 + byte_value. Built once, here,
   and shared by every engine. Nothing writes it after [build_lut]
   returns, so domains running points in parallel share it safely. *)
let lut = build_lut default_key

let create ~queues () =
  if queues < 1 then invalid_arg "Rss.create: queues < 1";
  { table = Array.init slots (fun i -> i mod queues); nqueues = queues }

let toeplitz ~key input =
  let hash = ref 0l in
  (* Sliding 32-bit window of the key, starting at its first 32 bits. *)
  let key_window_at bit_pos =
    let w = ref 0l in
    for i = 0 to 31 do
      w := Int32.logor (Int32.shift_left !w 1) (Int32.of_int (key_bit key (bit_pos + i)))
    done;
    !w
  in
  let nbits = 8 * Bytes.length input in
  if String.length key * 8 < nbits + 32 then invalid_arg "Rss.toeplitz: key too short for input";
  for i = 0 to nbits - 1 do
    let byte = Char.code (Bytes.get input (i / 8)) in
    let bit = byte lsr (7 - (i mod 8)) land 1 in
    if bit = 1 then hash := Int32.logxor !hash (key_window_at i)
  done;
  !hash

(* 12-tuple fast path: byte extraction straight from the tuple ints,
   no Bytes scratch, 12 LUT loads + XORs. Bitwise-equal to
   [toeplitz ~key:default_key (tuple_bytes ...)] (qcheck-enforced). Takes the ips
   as plain 32-bit-ranged ints so the all-int callers below stay
   box-free. *)
let[@zygos.hot] hash12 si di src_port dst_port =
  let h = lut.(si lsr 24) in
  let h = h lxor lut.(256 + (si lsr 16 land 0xff)) in
  let h = h lxor lut.((2 * 256) + (si lsr 8 land 0xff)) in
  let h = h lxor lut.((3 * 256) + (si land 0xff)) in
  let h = h lxor lut.((4 * 256) + (di lsr 24)) in
  let h = h lxor lut.((5 * 256) + (di lsr 16 land 0xff)) in
  let h = h lxor lut.((6 * 256) + (di lsr 8 land 0xff)) in
  let h = h lxor lut.((7 * 256) + (di land 0xff)) in
  let h = h lxor lut.((8 * 256) + (src_port lsr 8 land 0xff)) in
  let h = h lxor lut.((9 * 256) + (src_port land 0xff)) in
  let h = h lxor lut.((10 * 256) + (dst_port lsr 8 land 0xff)) in
  let h = h lxor lut.((11 * 256) + (dst_port land 0xff)) in
  h

let hash_of_tuple ~src_ip ~dst_ip ~src_port ~dst_port =
  hash12
    (Int32.to_int src_ip land 0xffffffff)
    (Int32.to_int dst_ip land 0xffffffff)
    src_port dst_port

let[@zygos.hot] slot_of_conn c =
  if c < 0 then invalid_arg "Rss.slot_of_conn: negative conn";
  (* The synthetic 4-tuple documented at [queue_of_conn], in plain ints:
     10.0.(c/250).(c mod 250 + 1) : 1024+c -> 10.0.0.1 : 8000. *)
  let si = 0x0A000000 lor (((c / 250) lsl 8) lor ((c mod 250) + 1)) in
  hash12 si 0x0A000001 (1024 + c) 8000 land 0x7f

let[@zygos.hot] queue_of_conn t c = t.table.(slot_of_conn c)

let queue_of_slot t slot = t.table.(slot)

let set_slot t ~slot ~queue =
  if slot < 0 || slot >= slots then invalid_arg "Rss.set_slot: slot out of range";
  if queue < 0 || queue >= t.nqueues then invalid_arg "Rss.set_slot: queue out of range";
  t.table.(slot) <- queue

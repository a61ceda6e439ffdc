type t = int

let lock_bit = 1

let absent_bit = 2

let seq_shift = 2

let seq_bits = 32

let epoch_shift = seq_shift + seq_bits

let epoch_bits = 28

let seq_mask = (1 lsl seq_bits) - 1

let epoch_mask = (1 lsl epoch_bits) - 1

let zero = 0

let make ~epoch ~seq =
  if epoch < 0 || epoch > epoch_mask then invalid_arg "Tid.make: epoch out of range";
  if seq < 0 || seq > seq_mask then invalid_arg "Tid.make: seq out of range";
  (epoch lsl epoch_shift) lor (seq lsl seq_shift)

let epoch t = (t lsr epoch_shift) land epoch_mask

let seq t = (t lsr seq_shift) land seq_mask

let is_locked t = t land lock_bit <> 0

let locked t = t lor lock_bit

let unlocked t = t land lnot lock_bit

let is_absent t = t land absent_bit <> 0

let absent t = t lor absent_bit

let present t = t land lnot absent_bit

let compare_data a b =
  let ca = compare (epoch a) (epoch b) in
  if ca <> 0 then ca else compare (seq a) (seq b)

let next_after t ~epoch:e =
  if epoch t > e then invalid_arg "Tid.next_after: epoch in the past";
  if epoch t = e then make ~epoch:e ~seq:(seq t + 1) else make ~epoch:e ~seq:0


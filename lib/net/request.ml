(* SoA request arena with generation-checked int handles.

   Same discipline as the engine event pool (lib/engine/sim.ml): a
   handle packs (generation lsl slot_bits) lor slot; the generation in
   the handle must match the slot's current generation or the access
   raises. Field arrays are parallel: float fields live in flat float
   arrays (unboxed), int/bool fields in int arrays, so the per-request
   working set is a handful of adjacent array cells instead of a
   scattered 8-word heap record per message. *)

type t = int

let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1
let none = -1

type pool = {
  recycle : bool;
  mutable ids : int array;
  mutable conns : int array;
  mutable arrivals : float array;
  mutable services : float array;
  mutable starteds : float array;
  mutable completions : float array;
  mutable measureds : int array; (* 0/1; int to share the grow path idiom *)
  mutable gens : int array;
  mutable free : int array; (* stack of recycled slots *)
  mutable free_n : int;
  mutable next_slot : int; (* high-water mark: slots [0, next_slot) initialised *)
  mutable live_count : int;
  mutable alloc_count : int;
}

(* Initial slots; the arena doubles when they run out. *)
let capacity = 256

let create_pool ?(recycle = false) () =
  {
    recycle;
    ids = Array.make capacity 0;
    conns = Array.make capacity 0;
    arrivals = Array.make capacity 0.;
    services = Array.make capacity 0.;
    starteds = Array.make capacity (-1.);
    completions = Array.make capacity (-1.);
    measureds = Array.make capacity 0;
    gens = Array.make capacity 0;
    free = Array.make capacity 0;
    free_n = 0;
    next_slot = 0;
    live_count = 0;
    alloc_count = 0;
  }

(* Amortized doubling of the arena: allocation here is the documented
   cost of exceeding the pre-sized capacity, not steady-state churn.
   Top-level monomorphic helpers instead of local closures so [grow]
   allocates nothing beyond the new arrays themselves. *)
let[@zygos.hot] extend (a : int array) ncap fill =
  (let b = Array.make ncap fill in
   Array.blit a 0 b 0 (Array.length a);
   b)
  [@zygos.allow "hot-alloc"]

let[@zygos.hot] extendf (a : float array) ncap fill =
  (let b = Array.make ncap fill in
   Array.blit a 0 b 0 (Array.length a);
   b)
  [@zygos.allow "hot-alloc"]

let[@zygos.hot] grow p =
  let ncap = 2 * Array.length p.ids in
  p.ids <- extend p.ids ncap 0;
  p.conns <- extend p.conns ncap 0;
  p.arrivals <- extendf p.arrivals ncap 0.;
  p.services <- extendf p.services ncap 0.;
  p.starteds <- extendf p.starteds ncap (-1.);
  p.completions <- extendf p.completions ncap (-1.);
  p.measureds <- extend p.measureds ncap 0;
  p.gens <- extend p.gens ncap 0;
  p.free <- extend p.free ncap 0

let[@zygos.hot] slot p (h : t) =
  let slot = h land slot_mask in
  if h < 0 || slot >= p.next_slot || p.gens.(slot) <> h lsr slot_bits
  then invalid_arg "Request: stale or invalid handle";
  slot

let[@zygos.hot] alloc p ~id ~conn ~measured (times : float array) =
  let slot =
    if p.free_n > 0 then begin
      p.free_n <- p.free_n - 1;
      p.free.(p.free_n)
    end
    else begin
      if p.next_slot = Array.length p.ids then grow p;
      let s = p.next_slot in
      p.next_slot <- s + 1;
      s
    end
  in
  p.ids.(slot) <- id;
  p.conns.(slot) <- conn;
  p.arrivals.(slot) <- times.(0);
  p.services.(slot) <- times.(1);
  p.measureds.(slot) <- (if measured then 1 else 0);
  p.starteds.(slot) <- -1.;
  p.completions.(slot) <- -1.;
  p.live_count <- p.live_count + 1;
  p.alloc_count <- p.alloc_count + 1;
  (p.gens.(slot) lsl slot_bits) lor slot

let[@zygos.hot] release_at p slot =
  if p.recycle then begin
    p.gens.(slot) <- p.gens.(slot) + 1;
    if p.free_n = Array.length p.free then grow p;
    p.free.(p.free_n) <- slot;
    p.free_n <- p.free_n + 1
  end;
  p.live_count <- p.live_count - 1

let[@zygos.hot] id_at p s = p.ids.(s)
let[@zygos.hot] conn_at p s = p.conns.(s)
let[@zygos.hot] measured_at p s = p.measureds.(s) = 1
let[@zygos.hot] id p h = id_at p (slot p h)
let[@zygos.hot] conn p h = conn_at p (slot p h)
let[@zygos.hot] measured p h = measured_at p (slot p h)

(* The float columns themselves: a caller reads and writes a time at
   [slot p h], so no float crosses a call. *)
let[@zygos.hot] arrivals p = p.arrivals
let[@zygos.hot] services p = p.services
let[@zygos.hot] starteds p = p.starteds
let[@zygos.hot] completions p = p.completions

let live p = p.live_count
let allocated p = p.alloc_count
let hwm p = p.next_slot

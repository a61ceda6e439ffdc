module Rng = Engine.Rng

type t = {
  database : Db.t;
  warehouse : Db.table;
  district : Db.table;
  customer : Db.table;
  customer_by_name : Db.table;  (* (w, d, last, first, c) -> [c_id] *)
  history : Db.table;
  item : Db.table;
  stock : Db.table;
  order : Db.table;
  order_by_customer : Db.table;  (* (w, d, c, o) -> [o_id] *)
  new_order : Db.table;
  order_line : Db.table;
  history_seq : int Atomic.t;  (* history rows have no natural primary key *)
}

(* The population: one warehouse at the spec's ratios and 1/10 of its
   size (spec: 3,000 customers per district, 100k items and 3,000
   initial orders per district), loaded from seed 7. *)
let n_warehouses = 1
let n_districts = 10
let n_customers = 300  (* per district *)
let n_items = 10_000
let n_orders = 300  (* initial orders per district *)
let load_seed = 7

(* ---- column layouts ----

   Records are string arrays; money is integer cents rendered with
   [string_of_int]. The constants below name the column offsets. *)

(* warehouse: name, street, city, state, zip, tax(bp), ytd(cents) *)
let _w_tax = 5

and w_ytd = 6

(* district: name, street, city, state, zip, tax(bp), ytd(cents), next_o_id *)
let _d_tax = 5

and d_ytd = 6

and d_next_o_id = 7

(* customer *)
let _c_first = 0

and _c_last = 2

and c_credit = 10

and _c_discount = 12

and c_balance = 13

and c_ytd_payment = 14

and c_payment_cnt = 15

and c_delivery_cnt = 16

and c_data = 17

(* item: name, price(cents), data *)
let i_price = 1

(* stock: quantity, dist, ytd, order_cnt, remote_cnt, data *)
let s_quantity = 0

and s_ytd = 2

and s_order_cnt = 3

and _s_remote_cnt = 4

(* order: c_id, entry_d, carrier_id, ol_cnt, all_local *)
let o_c_id = 0

and o_carrier_id = 2

and o_ol_cnt = 3

(* order_line: i_id, supply_w, delivery_d, quantity, amount(cents), dist_info *)
let ol_i_id = 0

and ol_delivery_d = 2

and ol_amount = 4

(* ---- spec random functions ---- *)

let c_for_nurand_255 = 123 (* the spec's per-run constant C *)

let c_for_nurand_8191 = 4242

let c_for_nurand_1023 = 721

let nurand rng ~a ~c ~x ~y =
  (((Rng.int_range rng 0 a lor Rng.int_range rng x y) + c) mod (y - x + 1)) + x

let syllables =
  [| "BAR"; "OUGHT"; "ABLE"; "PRI"; "PRES"; "ESE"; "ANTI"; "CALLY"; "ATION"; "EING" |]

let last_name num =
  syllables.(num / 100 mod 10) ^ syllables.(num / 10 mod 10) ^ syllables.(num mod 10)

let rand_string rng ~min ~max =
  let len = Rng.int_range rng min max in
  String.init len (fun _ -> Char.chr (Char.code 'a' + Rng.int rng 26))

let money_to_string cents = string_of_int cents

let money_of_string s = int_of_string s

(* ---- keys ---- *)

let wkey w = Key.of_ints [ w ]

let dkey w d = Key.of_ints [ w; d ]

let ckey w d c = Key.of_ints [ w; d; c ]

let cname_key w d last first c = Key.of_ints_str [ w; d ] (last ^ "\x00" ^ first ^ "\x00") ^ Key.of_int c

let ikey i = Key.of_ints [ i ]

let skey w i = Key.of_ints [ w; i ]

let okey w d o = Key.of_ints [ w; d; o ]

let ocust_key w d c o = Key.of_ints [ w; d; c; o ]

let olkey w d o n = Key.of_ints [ w; d; o; n ]

(* ---- loading ---- *)

let load () =
  let database = Db.create () in
  let t =
    {
      database;
      warehouse = Db.add_table database "warehouse";
      district = Db.add_table database "district";
      customer = Db.add_table database "customer";
      customer_by_name = Db.add_table database "customer_by_name";
      history = Db.add_table database "history";
      item = Db.add_table database "item";
      stock = Db.add_table database "stock";
      order = Db.add_table database "order";
      order_by_customer = Db.add_table database "order_by_customer";
      new_order = Db.add_table database "new_order";
      order_line = Db.add_table database "order_line";
      history_seq = Atomic.make 0;
    }
  in
  let rng = Rng.create ~seed:load_seed in
  let put (table : Db.table) key data =
    match Btree.insert table.Db.index key (Record.create data) with
    | `Inserted -> ()
    | `Duplicate _ -> invalid_arg "Tpcc.load: duplicate key"
  in
  for i = 1 to n_items do
    put t.item (ikey i)
      [| "item" ^ string_of_int i; money_to_string (Rng.int_range rng 100 10000);
         rand_string rng ~min:26 ~max:50; string_of_int (Rng.int_range rng 1 10_000) |]
  done;
  for w = 1 to n_warehouses do
    put t.warehouse (wkey w)
      [| "wh" ^ string_of_int w; rand_string rng ~min:10 ~max:20; "city"; "ST"; "12345";
         string_of_int (Rng.int_range rng 0 2000); money_to_string 30_000_000 |];
    for i = 1 to n_items do
      put t.stock (skey w i)
        [| string_of_int (Rng.int_range rng 10 100); rand_string rng ~min:24 ~max:24;
           "0"; "0"; "0"; rand_string rng ~min:26 ~max:50 |]
    done;
    for d = 1 to n_districts do
      put t.district (dkey w d)
        [| "d" ^ string_of_int d; rand_string rng ~min:10 ~max:20; "city"; "ST"; "12345";
           string_of_int (Rng.int_range rng 0 2000); money_to_string 3_000_000;
           string_of_int (n_orders + 1) |];
      for c = 1 to n_customers do
        let last = last_name ((c - 1) mod 1000) in
        let first = "first" ^ string_of_int c in
        let credit = if Rng.bernoulli rng 0.1 then "BC" else "GC" in
        put t.customer (ckey w d c)
          [| first; "OE"; last; rand_string rng ~min:10 ~max:20; "street2"; "city"; "ST";
             "12345"; "555-1234"; "2017-10-28"; credit; money_to_string 5_000_000;
             string_of_int (Rng.int_range rng 0 5000); money_to_string (-1000);
             money_to_string 1000; "1"; "0"; rand_string rng ~min:30 ~max:50 |];
        put t.customer_by_name (cname_key w d last first c) [| string_of_int c |];
        let hseq = 1 + Atomic.fetch_and_add t.history_seq 1 in
        put t.history
          (Key.of_ints [ w; d; c; hseq ])
          [| money_to_string 1000; "2017-10-28"; "initial" |]
      done;
      (* Initial orders: customers in a random permutation, per spec. *)
      let customers = Array.init n_orders (fun i -> (i mod n_customers) + 1) in
      Rng.shuffle_in_place rng customers;
      for o = 1 to n_orders do
        let c = customers.(o - 1) in
        let ol_cnt = Rng.int_range rng 5 15 in
        let delivered = o <= n_orders * 7 / 10 in
        put t.order (okey w d o)
          [| string_of_int c; "2017-10-28";
             (if delivered then string_of_int (Rng.int_range rng 1 10) else "");
             string_of_int ol_cnt; "1" |];
        put t.order_by_customer (ocust_key w d c o) [| string_of_int o |];
        if not delivered then put t.new_order (okey w d o) [| "1" |];
        for n = 1 to ol_cnt do
          let i = Rng.int_range rng 1 n_items in
          put t.order_line (olkey w d o n)
            [| string_of_int i; string_of_int w;
               (if delivered then "2017-10-28" else "");
               "5";
               (if delivered then "0" else money_to_string (Rng.int_range rng 1 999999));
               rand_string rng ~min:24 ~max:24 |]
        done
      done
    done
  done;
  t

let db t = t.database

(* ---- transaction inputs ---- *)

type tx_type = New_order | Payment | Order_status | Delivery | Stock_level

let all_tx_types = [ New_order; Payment; Order_status; Delivery; Stock_level ]

let tx_name = function
  | New_order -> "NewOrder"
  | Payment -> "Payment"
  | Order_status -> "OrderStatus"
  | Delivery -> "Delivery"
  | Stock_level -> "StockLevel"

let standard_mix rng =
  let p = Rng.int rng 100 in
  if p < 45 then New_order
  else if p < 88 then Payment
  else if p < 92 then Order_status
  else if p < 96 then Delivery
  else Stock_level

(* One warehouse: still a draw, so every stream stays as it was. *)
let rand_warehouse rng = Rng.int_range rng 1 n_warehouses

let rand_district rng = Rng.int_range rng 1 n_districts

let rand_customer rng = nurand rng ~a:1023 ~c:c_for_nurand_1023 ~x:1 ~y:n_customers

let rand_item rng = nurand rng ~a:8191 ~c:c_for_nurand_8191 ~x:1 ~y:n_items

let rand_last_name rng =
  let num = nurand rng ~a:255 ~c:c_for_nurand_255 ~x:0 ~y:999 in
  last_name (num mod n_customers mod 1000)

(* Resolve a customer by last name: spec 2.6.2.2 picks the ceil(n/2)-th
   match ordered by first name. *)
let customer_by_last_name t txn w d last =
  let lo = Key.of_ints_str [ w; d ] (last ^ "\x00") in
  let hi = Key.of_ints_str [ w; d ] (last ^ "\x01") in
  let matches = Txn.scan txn t.customer_by_name ~lo ~hi in
  match matches with
  | [] -> None
  | _ ->
      let n = List.length matches in
      let _, data = List.nth matches ((n - 1) / 2) in
      Some (int_of_string data.(0))

let get_exn txn table key =
  match Txn.read txn table key with
  | Some data -> data
  | None -> raise Not_found

let set data idx v =
  let copy = Array.copy data in
  copy.(idx) <- v;
  copy

(* ---- the five transactions ---- *)

let new_order t txn rng =
  let w = rand_warehouse rng in
  let d = rand_district rng in
  let c = rand_customer rng in
  let ol_cnt = Rng.int_range rng 5 15 in
  let rollback = Rng.int_range rng 1 100 = 1 in
  (* The warehouse (tax) and customer (discount) rows are TPC-C's read
     set; reading them puts them under validation at commit. *)
  ignore (get_exn txn t.warehouse (wkey w) : string array);
  let dist = get_exn txn t.district (dkey w d) in
  let o_id = int_of_string dist.(d_next_o_id) in
  Txn.write txn t.district (dkey w d) (set dist d_next_o_id (string_of_int (o_id + 1)));
  ignore (get_exn txn t.customer (ckey w d c) : string array);
  for n = 1 to ol_cnt do
    (* The intentional 1% rollback: the last item id is invalid. *)
    let invalid = rollback && n = ol_cnt in
    let i_id = if invalid then n_items + 1 else rand_item rng in
    (* With one warehouse every item is supplied locally. *)
    match Txn.read txn t.item (ikey i_id) with
    | None -> raise Txn.Rollback
    | Some item_data ->
        let price = money_of_string item_data.(i_price) in
        let qty = Rng.int_range rng 1 10 in
        let stock = get_exn txn t.stock (skey w i_id) in
        let s_qty = int_of_string stock.(s_quantity) in
        let new_qty = if s_qty >= qty + 10 then s_qty - qty else s_qty - qty + 91 in
        let stock = set stock s_quantity (string_of_int new_qty) in
        let stock = set stock s_ytd (string_of_int (int_of_string stock.(s_ytd) + qty)) in
        let stock =
          set stock s_order_cnt (string_of_int (int_of_string stock.(s_order_cnt) + 1))
        in
        Txn.write txn t.stock (skey w i_id) stock;
        let amount = qty * price in
        Txn.insert txn t.order_line (olkey w d o_id n)
          [| string_of_int i_id; string_of_int w; ""; string_of_int qty;
             money_to_string amount; "dist-info-24-bytes-xxxxx" |]
  done;
  Txn.insert txn t.order (okey w d o_id)
    [| string_of_int c; "2017-10-28"; ""; string_of_int ol_cnt; "1" |];
  Txn.insert txn t.order_by_customer (ocust_key w d c o_id) [| string_of_int o_id |];
  Txn.insert txn t.new_order (okey w d o_id) [| "1" |]

let payment t txn rng =
  let w = rand_warehouse rng in
  let d = rand_district rng in
  let amount = Rng.int_range rng 100 500_000 in
  (* Spec 2.5.1.2 picks a remote warehouse's customer 15% of the time;
     with one warehouse every customer is in the home district. *)
  let c_w, c_d = (w, d) in
  let c =
    if Rng.bernoulli rng 0.6 then
      match customer_by_last_name t txn c_w c_d (rand_last_name rng) with
      | Some c -> c
      | None -> rand_customer rng
    else rand_customer rng
  in
  let wh = get_exn txn t.warehouse (wkey w) in
  Txn.write txn t.warehouse (wkey w)
    (set wh w_ytd (money_to_string (money_of_string wh.(w_ytd) + amount)));
  let dist = get_exn txn t.district (dkey w d) in
  Txn.write txn t.district (dkey w d)
    (set dist d_ytd (money_to_string (money_of_string dist.(d_ytd) + amount)));
  let cust = get_exn txn t.customer (ckey c_w c_d c) in
  let cust = set cust c_balance (money_to_string (money_of_string cust.(c_balance) - amount)) in
  let cust =
    set cust c_ytd_payment (money_to_string (money_of_string cust.(c_ytd_payment) + amount))
  in
  let cust =
    set cust c_payment_cnt (string_of_int (int_of_string cust.(c_payment_cnt) + 1))
  in
  let cust =
    if String.equal cust.(c_credit) "BC" then begin
      let info =
        Printf.sprintf "%d %d %d %d %d %d|%s" c c_d c_w d w amount cust.(c_data)
      in
      set cust c_data (if String.length info > 500 then String.sub info 0 500 else info)
    end
    else cust
  in
  Txn.write txn t.customer (ckey c_w c_d c) cust;
  let hseq = 1 + Atomic.fetch_and_add t.history_seq 1 in
  Txn.insert txn t.history
    (Key.of_ints [ c_w; c_d; c; hseq ])
    [| money_to_string amount; "2017-10-28"; "payment" |]

let order_status t txn rng =
  let w = rand_warehouse rng in
  let d = rand_district rng in
  let c =
    if Rng.bernoulli rng 0.6 then
      match customer_by_last_name t txn w d (rand_last_name rng) with
      | Some c -> c
      | None -> rand_customer rng
    else rand_customer rng
  in
  let cust = get_exn txn t.customer (ckey w d c) in
  ignore (money_of_string cust.(c_balance) : int);
  (* Most recent order of this customer. *)
  let lo = ocust_key w d c 0 and hi = ocust_key w d c max_int in
  let orders = Txn.scan txn t.order_by_customer ~lo ~hi in
  match List.rev orders with
  | [] -> ()
  | (_, last_order) :: _ ->
      let o_id = int_of_string last_order.(0) in
      let order_data = get_exn txn t.order (okey w d o_id) in
      ignore order_data.(o_carrier_id);
      let lines = Txn.scan txn t.order_line ~lo:(olkey w d o_id 0) ~hi:(olkey w d o_id 99) in
      List.iter (fun (_, line) -> ignore (money_of_string line.(ol_amount) : int)) lines

let delivery t txn rng =
  let w = rand_warehouse rng in
  let carrier = Rng.int_range rng 1 10 in
  for d = 1 to n_districts do
    (* Oldest undelivered order of the district. *)
    let pending = Txn.scan txn t.new_order ~lo:(okey w d 0) ~hi:(okey w d max_int) in
    match pending with
    | [] -> ()
    | (no_key, _) :: _ -> (
        match Key.to_ints no_key with
        | [ _; _; o_id ] ->
            Txn.delete txn t.new_order no_key;
            let order_data = get_exn txn t.order (okey w d o_id) in
            let c = int_of_string order_data.(o_c_id) in
            Txn.write txn t.order (okey w d o_id)
              (set order_data o_carrier_id (string_of_int carrier));
            let lines =
              Txn.scan txn t.order_line ~lo:(olkey w d o_id 0) ~hi:(olkey w d o_id 99)
            in
            let total = ref 0 in
            List.iter
              (fun (line_key, line) ->
                total := !total + money_of_string line.(ol_amount);
                Txn.write txn t.order_line line_key (set line ol_delivery_d "2017-10-29"))
              lines;
            let cust = get_exn txn t.customer (ckey w d c) in
            let cust =
              set cust c_balance (money_to_string (money_of_string cust.(c_balance) + !total))
            in
            let cust =
              set cust c_delivery_cnt
                (string_of_int (int_of_string cust.(c_delivery_cnt) + 1))
            in
            Txn.write txn t.customer (ckey w d c) cust
        | _ -> assert false)
  done

let stock_level t txn rng =
  let w = rand_warehouse rng in
  let d = rand_district rng in
  let threshold = Rng.int_range rng 10 20 in
  let dist = get_exn txn t.district (dkey w d) in
  let next_o = int_of_string dist.(d_next_o_id) in
  let lo = olkey w d (Int.max 1 (next_o - 20)) 0 and hi = olkey w d next_o 0 in
  let lines = Txn.scan txn t.order_line ~lo ~hi in
  let seen = Hashtbl.create 64 in
  List.iter (fun (_, line) -> Hashtbl.replace seen (int_of_string line.(ol_i_id)) ()) lines;
  let low = ref 0 in
  Hashtbl.iter
    (fun i_id () ->
      let stock = get_exn txn t.stock (skey w i_id) in
      if int_of_string stock.(s_quantity) < threshold then incr low)
    seen;
  ignore !low

type outcome = Committed | Rolled_back | Conflicted

let execute t worker rng tx =
  (* Transaction inputs must not be re-drawn on an OCC retry (the retry
     must be "the same transaction"), so derive a child stream once and
     replay a copy of it on each attempt. *)
  let snapshot = Rng.split rng in
  let result =
    Txn.run (db t) worker (fun txn ->
        let r = Rng.copy snapshot in
        match tx with
        | New_order -> new_order t txn r
        | Payment -> payment t txn r
        | Order_status -> order_status t txn r
        | Delivery -> delivery t txn r
        | Stock_level -> stock_level t txn r)
  in
  match result with
  | Txn.Committed ((), _) -> Committed
  | Txn.Rolled_back -> Rolled_back
  | Txn.Conflict_exhausted -> Conflicted

(* ---- consistency conditions (TPC-C §3.3.2.1–4) ---- *)

let fold_table (table : Db.table) ~lo ~hi ~init ~f =
  let acc = ref init in
  Btree.iter_range table.Db.index ~lo ~hi (fun key record ->
      let tid, data = Record.stable_read record in
      if not (Tid.is_absent tid) then acc := f !acc key data);
  !acc

let consistency_check t =
  let results = ref [] in
  let add name ok = results := (name, ok) :: !results in
  for w = 1 to n_warehouses do
    (* 1: W_YTD = sum of its districts' D_YTD. *)
    let wh = fold_table t.warehouse ~lo:(wkey w) ~hi:(Key.succ (wkey w)) ~init:None
        ~f:(fun _ _ data -> Some data)
    in
    let w_ytd_v = match wh with Some d -> money_of_string d.(w_ytd) | None -> -1 in
    let d_ytd_sum =
      fold_table t.district ~lo:(dkey w 0) ~hi:(dkey w max_int) ~init:0 ~f:(fun acc _ data ->
          acc + money_of_string data.(d_ytd))
    in
    add (Printf.sprintf "C1.w%d: W_YTD = sum(D_YTD)" w) (w_ytd_v = d_ytd_sum);
    for d = 1 to n_districts do
      let dist = fold_table t.district ~lo:(dkey w d) ~hi:(Key.succ (dkey w d)) ~init:None
          ~f:(fun _ _ data -> Some data)
      in
      let next_o = match dist with Some x -> int_of_string x.(d_next_o_id) | None -> -1 in
      (* 2: D_NEXT_O_ID - 1 = max(O_ID). *)
      let max_o =
        fold_table t.order ~lo:(okey w d 0) ~hi:(okey w d max_int) ~init:0 ~f:(fun acc key _ ->
            match Key.to_ints key with [ _; _; o ] -> Int.max acc o | _ -> acc)
      in
      add (Printf.sprintf "C2.w%d.d%d: next_o_id-1 = max(o_id)" w d) (next_o - 1 = max_o);
      (* 3: NEW-ORDER ids are contiguous. *)
      let ids =
        fold_table t.new_order ~lo:(okey w d 0) ~hi:(okey w d max_int) ~init:[]
          ~f:(fun acc key _ ->
            match Key.to_ints key with [ _; _; o ] -> o :: acc | _ -> acc)
      in
      let contiguous =
        match List.rev ids with
        | [] -> true
        | first :: _ as l ->
            let n = List.length l in
            let last = List.nth l (n - 1) in
            last - first + 1 = n
      in
      add (Printf.sprintf "C3.w%d.d%d: new_order contiguous" w d) contiguous;
      (* 4: sum(O_OL_CNT) = number of order lines. *)
      let ol_cnt_sum =
        fold_table t.order ~lo:(okey w d 0) ~hi:(okey w d max_int) ~init:0
          ~f:(fun acc _ data -> acc + int_of_string data.(o_ol_cnt))
      in
      let ol_rows =
        fold_table t.order_line ~lo:(olkey w d 0 0) ~hi:(olkey w d max_int 0) ~init:0
          ~f:(fun acc _ _ -> acc + 1)
      in
      add (Printf.sprintf "C4.w%d.d%d: sum(ol_cnt) = #order_lines" w d) (ol_cnt_sum = ol_rows)
    done
  done;
  List.rev !results

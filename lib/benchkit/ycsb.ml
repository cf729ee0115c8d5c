open Glassdb_util
module Kv = Txnkit.Kv

type mix = Read_heavy | Balanced | Write_heavy

let mix_name = function
  | Read_heavy -> "read-heavy"
  | Balanced -> "balanced"
  | Write_heavy -> "write-heavy"

type config = {
  record_count : int;
  ops_per_txn : int;
  value_size : int;
  theta : float;
  mix : mix;
}

let default_config =
  { record_count = 2000; ops_per_txn = 10; value_size = 64; theta = 0.;
    mix = Balanced }

let key_of i = Printf.sprintf "user%08d" i

let value_of rng cfg = Rng.alphanum rng cfg.value_size

let load client cfg =
  let value = String.make cfg.value_size 'i' in
  (* Key-value-only systems (Trillian) load through single puts. *)
  let kv_only =
    match client.System.c_execute (fun _ -> ()) with
    | Ok () -> false
    | Error _ -> true
  in
  if kv_only then
    for k = 0 to cfg.record_count - 1 do
      match client.System.c_verified_put (key_of k) value with
      | Ok () -> ()
      | Error e -> failwith ("ycsb load failed: " ^ Error.to_string e)
    done
  else begin
    let batch = 100 in
    let i = ref 0 in
    while !i < cfg.record_count do
      let hi = min cfg.record_count (!i + batch) in
      let lo = !i in
      (match
         client.System.c_execute (fun ctx ->
             for k = lo to hi - 1 do
               ctx.System.tput (key_of k) value
             done)
       with
       | Ok () -> ()
       | Error e -> failwith ("ycsb load failed: " ^ Error.to_string e));
      i := hi
    done
  end

type op = Op_get of Kv.key | Op_put of Kv.key * Kv.value

let writes_per_txn cfg =
  match cfg.mix with
  | Read_heavy -> cfg.ops_per_txn * 2 / 10
  | Balanced -> cfg.ops_per_txn * 5 / 10
  | Write_heavy -> cfg.ops_per_txn * 8 / 10

(* The Zipf table costs O(record_count) to build, so a run builds it once
   and shares it across every operation; uniform configs need none. *)
type keys = Zipf.t option

let keys cfg =
  if cfg.theta = 0. then None
  else Some (Zipf.create ~n:cfg.record_count ~theta:(max cfg.theta 0.01))

let draw_key rng cfg keys =
  match keys with
  | None -> Rng.int_below rng cfg.record_count
  | Some zipf -> Zipf.scrambled rng zipf

let txn_ops rng cfg keys =
  let writes = writes_per_txn cfg in
  (* Distinct keys per transaction avoid intra-transaction write conflicts. *)
  let seen = Hashtbl.create cfg.ops_per_txn in
  let fresh_key () =
    let rec go tries =
      let k = draw_key rng cfg keys in
      if Hashtbl.mem seen k && tries < 20 then go (tries + 1)
      else begin
        Hashtbl.replace seen k ();
        key_of k
      end
    in
    go 0
  in
  List.init cfg.ops_per_txn (fun i ->
      if i < writes then Op_put (fresh_key (), value_of rng cfg)
      else Op_get (fresh_key ()))

let body_of ops ctx =
  List.iter
    (function
      | Op_get k -> ignore (ctx.System.tget k)
      | Op_put (k, v) -> ctx.System.tput k v)
    ops

let run_txn client rng cfg keys =
  client.System.c_execute (body_of (txn_ops rng cfg keys))

let run_txn_verified client rng cfg keys =
  client.System.c_execute_verified (body_of (txn_ops rng cfg keys))

type verified_op = V_put | V_get_latest | V_get_at

let workload_x rng = if Rng.bool rng then V_put else V_get_latest

let workload_y rng =
  let r = Rng.int_below rng 10 in
  if r < 2 then V_put else if r < 6 then V_get_latest else V_get_at

let run_verified_op client rng cfg keys op =
  let key = key_of (draw_key rng cfg keys) in
  match op with
  | V_put ->
    (match client.System.c_verified_put key (value_of rng cfg) with
     | Ok () -> Ok None
     | Error e -> Error e)
  | V_get_latest ->
    (match client.System.c_verified_get_latest key with
     | Ok v -> Ok (Some v)
     | Error e -> Error e)
  | V_get_at ->
    (match client.System.c_verified_get_historical key with
     | Ok v -> Ok (Some v)
     | Error e -> Error e)

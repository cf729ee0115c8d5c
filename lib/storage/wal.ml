open Glassdb_util

type record = { seq : int; kind : string; payload : string }

type t = {
  mutable records : record list; (* newest first *)
  mutable next_seq : int;
  mutable bytes : int;
}

let create () = { records = []; next_seq = 0; bytes = 0 }

let append t ~kind ~payload =
  Work.with_component "wal" @@ fun () ->
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let r = { seq; kind; payload } in
  t.records <- r :: t.records;
  let sz = String.length kind + String.length payload + 16 in
  t.bytes <- t.bytes + sz;
  Work.note_node_write ~bytes:sz;
  seq

let records_from t n =
  List.rev (List.filter (fun r -> r.seq >= n) t.records)

let last_seq t = t.next_seq - 1

let record_bytes r = String.length r.kind + String.length r.payload + 16

let recount t =
  t.bytes <- List.fold_left (fun acc r -> acc + record_bytes r) 0 t.records

(* Crash simulation: the tail of the log past [n] never reached the disk. *)
let truncate_after t n =
  t.records <- List.filter (fun r -> r.seq <= n) t.records;
  t.next_seq <- n + 1;
  recount t

(* Crash simulation: the last record was torn mid-write — its payload is
   cut short by [drop_bytes] (dropped entirely when nothing survives).
   Replay must treat the mangled record as if it were never written. *)
let tear_last t ~drop_bytes =
  match t.records with
  | [] -> ()
  | last :: rest ->
    let keep = String.length last.payload - drop_bytes in
    if keep <= 0 then t.records <- rest
    else t.records <- { last with payload = String.sub last.payload 0 keep } :: rest;
    recount t

let size_bytes t = t.bytes

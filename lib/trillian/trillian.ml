open Glassdb_util
module Kv = Txnkit.Kv
module Merkle_log = Mtree.Merkle_log
module Smt = Mtree.Smt

type config = {
  workers : int;
  sequence_interval : float;
  backend_delay : float;
}

let default_config =
  { workers = 8;
    sequence_interval = 0.05;
    (* Each Trillian operation runs several statements against an
       out-of-process MySQL instance, serialized by the storage layer's
       sequencing transaction. *)
    backend_delay = 2e-3 }

type t = {
  cfg : config;
  log : Merkle_log.t;
  mutable pending : (Kv.key * Kv.value) list; (* newest first *)
  mutable map : Smt.t;
  mutable revision : int;
  mutable last_root_index : int; (* log index of the latest map root entry *)
  mutable last_root_entry : string;
  worker_pool : Sim.Resource.t;
  backend : Sim.Resource.t; (* the single MySQL instance *)
  mutable storage : int;
  stats : Stats.table;
  mutable ops : int;
}

let create cfg =
  { cfg;
    log = Merkle_log.create ();
    pending = [];
    map = Smt.create ();
    revision = -1;
    last_root_index = -1;
    last_root_entry = "";
    worker_pool = Sim.Resource.create cfg.workers;
    backend = Sim.Resource.create 1;
    storage = 0;
    stats = Stats.table ();
    ops = 0 }

let alive _ = true
let workers t = t.worker_pool
let backend t = t.backend
let backend_delay t = t.cfg.backend_delay

let note_phase t phase v = Stats.table_add t.stats phase v
let phase_stats t = Stats.table_bindings t.stats
let op_count t = t.ops
let reset_stats t = Stats.table_reset t.stats; t.ops <- 0

let mutation_entry k v =
  Codec.to_string
    (fun buf () ->
      Buffer.add_char buf 'M';
      Codec.write_string buf k;
      Codec.write_string buf v)
    ()

let root_entry rev root =
  Codec.to_string
    (fun buf () ->
      Buffer.add_char buf 'R';
      Codec.write_varint buf rev;
      Codec.write_string buf root)
    ()

let put t k v =
  t.ops <- t.ops + 1;
  let entry = mutation_entry k v in
  let idx = Merkle_log.append t.log entry in
  t.pending <- (k, v) :: t.pending;
  Work.note_node_write ~bytes:(String.length entry + 64);
  t.storage <- t.storage + String.length entry + 64;
  idx

let get t k =
  t.ops <- t.ops + 1;
  Smt.get t.map k

let sequence t =
  match t.pending with
  | [] -> 0
  | pending ->
    let muts = List.rev pending in
    t.pending <- [];
    t.map <- Smt.set_batch t.map muts;
    t.revision <- t.revision + 1;
    let root = Smt.root_hash t.map in
    let entry = root_entry t.revision root in
    t.last_root_index <- Merkle_log.append t.log entry;
    t.last_root_entry <- entry;
    Work.note_node_write ~bytes:(String.length entry + 64);
    t.storage <- t.storage + String.length entry + 64;
    List.length muts

let log_size t = Merkle_log.size t.log
let map_revision t = t.revision
let storage_bytes t = t.storage

type digest = { d_log_size : int; d_log_root : Hash.t; d_map_root : Hash.t }

let digest t =
  { d_log_size = Merkle_log.size t.log;
    d_log_root = Merkle_log.root t.log;
    d_map_root = Smt.root_hash t.map }

type read_proof = {
  rp_map : Smt.proof;
  rp_root_incl : Merkle_log.proof;
  rp_root_entry : string;
  rp_root_index : int;
  rp_digest : digest;
}

let read_proof_bytes p =
  Smt.proof_size_bytes p.rp_map
  + Merkle_log.proof_size_bytes p.rp_root_incl
  + String.length p.rp_root_entry + 24

let get_verified t k =
  if t.revision < 0 then None
  else
    match Smt.get t.map k with
    | None -> None
    | Some v ->
      Some
        ( v,
          { rp_map = Smt.prove t.map k;
            rp_root_incl =
              Merkle_log.inclusion_proof t.log ~index:t.last_root_index
                ~size:(Merkle_log.size t.log);
            rp_root_entry = t.last_root_entry;
            rp_root_index = t.last_root_index;
            rp_digest = digest t } )

let parse_root_entry s =
  Codec.of_string
    (fun r ->
      match Char.chr (Codec.read_byte r) with
      | 'R' ->
        let rev = Codec.read_varint r in
        let root = Codec.read_string r in
        (rev, root)
      | _ -> raise (Codec.Malformed "not a root entry"))
    s

let verify_read ~digest:d ~key ~value p =
  match parse_root_entry p.rp_root_entry with
  | exception _ -> false
  | _, map_root ->
    String.equal map_root d.d_map_root
    && Merkle_log.verify_inclusion ~root:d.d_log_root ~size:d.d_log_size
         ~index:p.rp_root_index ~leaf:p.rp_root_entry p.rp_root_incl
    && Smt.verify ~root:map_root ~key ~value p.rp_map

type absence = {
  ab_map : Smt.absence_proof;
  ab_root_incl : Merkle_log.proof;
  ab_root_entry : string;
  ab_root_index : int;
  ab_digest : digest;
}

let get_verified_absent t k =
  if t.revision < 0 || Smt.get t.map k <> None then None
  else
    Some
      { ab_map = Smt.prove_absent t.map k;
        ab_root_incl =
          Merkle_log.inclusion_proof t.log ~index:t.last_root_index
            ~size:(Merkle_log.size t.log);
        ab_root_entry = t.last_root_entry;
        ab_root_index = t.last_root_index;
        ab_digest = digest t }

let verify_absent ~digest:d ~key p =
  match parse_root_entry p.ab_root_entry with
  | exception _ -> false
  | _, map_root ->
    String.equal map_root d.d_map_root
    && Merkle_log.verify_inclusion ~root:d.d_log_root ~size:d.d_log_size
         ~index:p.ab_root_index ~leaf:p.ab_root_entry p.ab_root_incl
    && Smt.verify_absent ~root:map_root ~key p.ab_map

let append_only_proof t ~old_size =
  Merkle_log.consistency_proof t.log ~old_size
    ~new_size:(Merkle_log.size t.log)

let verify_append_only ~old ~new_ proof =
  Merkle_log.verify_consistency ~old_root:old.d_log_root
    ~old_size:old.d_log_size ~new_root:new_.d_log_root
    ~new_size:new_.d_log_size proof

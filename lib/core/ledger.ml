open Glassdb_util
module Kv = Txnkit.Kv
module Pos_tree = Postree.Pos_tree
module IMap = Map.Make (Int)

type config = {
  store : Storage.Node_store.t;
  pattern_bits : int;
  snapshot_retention : int;
}

let config ?(pattern_bits = 5) ?(snapshot_retention = 8) store =
  if snapshot_retention < 1 then
    invalid_arg "Ledger.config: snapshot_retention";
  { store; pattern_bits; snapshot_retention }

type header = {
  block_no : int;
  state_root : Hash.t;
  prev_hash : Hash.t;
  body_root : Hash.t;
  n_writes : int;
  time : float;
}

let encode_header buf h =
  Codec.write_varint buf h.block_no;
  Codec.write_string buf h.state_root;
  Codec.write_string buf h.prev_hash;
  Codec.write_string buf h.body_root;
  Codec.write_varint buf h.n_writes;
  Codec.write_varint buf (int_of_float (h.time *. 1e6))

let decode_header r =
  let block_no = Codec.read_varint r in
  let state_root = Codec.read_string r in
  let prev_hash = Codec.read_string r in
  let body_root = Codec.read_string r in
  let n_writes = Codec.read_varint r in
  let time = float_of_int (Codec.read_varint r) /. 1e6 in
  { block_no; state_root; prev_hash; body_root; n_writes; time }

let header_bytes h = Codec.to_string encode_header h
let header_hash h = Hash.of_string (header_bytes h)

type digest = { block_no : int; root : Hash.t; head : Hash.t }

let genesis = { block_no = -1; root = Hash.empty; head = Hash.empty }

let digest_equal a b =
  Int.equal a.block_no b.block_no && Hash.equal a.root b.root && Hash.equal a.head b.head

let pp_digest fmt d =
  Format.fprintf fmt "#%d:%s" d.block_no (Hash.short d.root)

type block_write = { wkey : Kv.key; wvalue : Kv.value; wtid : Kv.txn_id }

type t = {
  cfg : config;
  upper : Pos_tree.t;
  states : Pos_tree.t;
  flat : string Storage.Bptree.t;
      (* The flat committed map: every hashified binding's encoded payload,
         keyed by data key, in an unauthenticated B+-tree whose lookups
         cost page reads rather than POS-tree chunk fetches.  Shared,
         mutable, append-only across the functional versions of one
         linear history.  Payloads carry their version block, so a stale
         view detects newer bindings (see [flat_payload]). *)
  snapshots : Pos_tree.t IMap.t;
  headers : header IMap.t;
  bodies : (block_write list * Kv.signed_txn list) IMap.t;
  latest : int;
}

let create cfg =
  let pcfg = Pos_tree.config ~pattern_bits:cfg.pattern_bits cfg.store in
  { cfg;
    upper = Pos_tree.empty pcfg;
    states = Pos_tree.empty pcfg;
    flat = Storage.Bptree.create ();
    snapshots = IMap.empty;
    headers = IMap.empty;
    bodies = IMap.empty;
    latest = -1 }

let latest_block t = t.latest
let key_count t = Pos_tree.cardinal t.states

(* Block numbers as fixed-width big-endian keys so the upper tree sorts
   them numerically. *)
let block_key n =
  String.init 8 (fun i -> Char.chr ((n lsr (8 * (7 - i))) land 0xff))

let digest t =
  if t.latest < 0 then genesis
  else
    { block_no = t.latest;
      root = Pos_tree.root_hash t.upper;
      head = header_hash (IMap.find t.latest t.headers) }

(* Leaf payload: value plus version metadata (Section 3.3.1: "metadata such
   as the block number where the previous version resides are stored
   together with the data"). *)
let encode_payload ~value ~version ~prev =
  Codec.to_string
    (fun buf () ->
      Codec.write_string buf value;
      Codec.write_varint buf version;
      Codec.write_varint buf (prev + 1) (* -1 encodes as 0 *))
    ()

let decode_payload s =
  Codec.of_string
    (fun r ->
      let value = Codec.read_string r in
      let version = Codec.read_varint r in
      let prev = Codec.read_varint r - 1 in
      (value, version, prev))
    s

let body_root writes txns =
  let buf = Buffer.create 256 in
  Codec.write_list buf
    (fun b w ->
      Codec.write_string b w.wkey;
      Codec.write_string b w.wvalue;
      Codec.write_string b w.wtid)
    writes;
  Codec.write_list buf Kv.encode_signed_txn txns;
  Hash.of_string (Buffer.contents buf)

(* Latest-state lookup through the flat map.  The payload's version block
   tells a stale view (one whose [latest] predates the binding) to reroute
   the read to its own authenticated snapshot; absence from the flat map
   is authoritative because the system never deletes keys. *)
let flat_payload t key =
  if t.latest < 0 then None
  else
    match Storage.Bptree.find t.flat key with
    | None -> None
    | Some payload ->
      let _, version, _ = decode_payload payload in
      if version <= t.latest then Some payload else Pos_tree.get t.states key

(* --- the staged write path (DESIGN.md §4j) --- *)

(* A staged write set: one would-be block's writes (at most one version
   per key) and the signed transactions vouching for them, staged against
   the ledger version [s_base]. *)
type staged = {
  s_base : int;
  s_time : float;
  s_writes : block_write list;
  s_txns : Kv.signed_txn list;
}

let stage t ~time ~writes ~txns =
  let seen = Hashtbl.create (List.length writes) in
  List.iter
    (fun w ->
      if Hashtbl.mem seen w.wkey then
        invalid_arg "Ledger.stage: duplicate key in block";
      Hashtbl.replace seen w.wkey ())
    writes;
  { s_base = t.latest; s_time = time; s_writes = writes; s_txns = txns }

let hashify t staged =
  if not (Int.equal staged.s_base t.latest) then
    invalid_arg "Ledger.hashify: staged against a different ledger version";
  let writes = staged.s_writes and txns = staged.s_txns in
  let block_no = t.latest + 1 in
  let updates =
    List.map
      (fun w ->
        let prev =
          match flat_payload t w.wkey with
          | Some payload ->
            let _, version, _ = decode_payload payload in
            version
          | None -> -1
        in
        (w.wkey, encode_payload ~value:w.wvalue ~version:block_no ~prev))
      writes
  in
  (* One POS-tree batch and one root recompute cover the whole block. *)
  let states = Pos_tree.insert_batch t.states updates in
  List.iter (fun (k, v) -> Storage.Bptree.insert t.flat k v) updates;
  let header =
    { block_no;
      state_root = Pos_tree.root_hash states;
      prev_hash =
        (if t.latest < 0 then Hash.empty
         else header_hash (IMap.find t.latest t.headers));
      body_root = body_root writes txns;
      n_writes = List.length writes;
      time = staged.s_time }
  in
  let upper =
    Pos_tree.insert_batch t.upper [ (block_key block_no, header_bytes header) ]
  in
  (* Snapshots share all unchanged chunks through the content-addressed
     store, so each entry costs O(changed chunks) of *new* memory — but the
     per-snapshot spines still add up, so only the most recent
     [snapshot_retention] stay resident; older ones rebuild on demand from
     the store (see {!state_at}). *)
  let snapshots =
    IMap.add block_no states t.snapshots
    |> IMap.filter (fun b _ -> b > block_no - t.cfg.snapshot_retention)
  in
  ( { t with
      upper;
      states;
      snapshots;
      headers = IMap.add block_no header t.headers;
      bodies = IMap.add block_no (writes, txns) t.bodies;
      latest = block_no },
    header )

let state_at t block =
  if Int.equal block t.latest then Some t.states
  else
    match IMap.find_opt block t.snapshots with
    | Some st -> Some st
    | None ->
      (* Evicted snapshot: the header pins its state root, and every chunk
         is still in the content-addressed store — rebuild top-down, paying
         the fetches as page reads / cache hits. *)
      (match IMap.find_opt block t.headers with
       | None -> None
       | Some h ->
         let pcfg =
           Pos_tree.config ~pattern_bits:t.cfg.pattern_bits t.cfg.store
         in
         Pos_tree.load pcfg h.state_root)

let resident_snapshots t = IMap.cardinal t.snapshots

let get ?block t key =
  let block = Option.value ~default:t.latest block in
  if block < 0 then None
  else if Int.equal block t.latest then
    (* Latest-state reads go through the flat map — no POS-tree chunk
       fetches on the common path. *)
    Option.map decode_payload (flat_payload t key)
  else
    match state_at t block with
    | None -> None
    | Some st ->
      (match Pos_tree.get st key with
       | None -> None
       | Some payload -> Some (decode_payload payload))

let get_history t key ~n =
  let rec go block acc remaining =
    if remaining = 0 || block < 0 then List.rev acc
    else
      match get ~block t key with
      | None -> List.rev acc
      | Some (value, version, prev) ->
        go prev ((value, version) :: acc) (remaining - 1)
  in
  go t.latest [] n

let header_at t block = IMap.find_opt block t.headers

let writes_of_block t block =
  match IMap.find_opt block t.bodies with
  | Some (writes, _) -> writes
  | None -> []

let txns_of_block t block =
  match IMap.find_opt block t.bodies with
  | Some (_, txns) -> txns
  | None -> []

(* --- proofs --- *)

type proof = {
  p_block : int;
  p_header : string;
  p_upper : Pos_tree.proof;
  p_lower : Pos_tree.proof;
  p_payload : string option;
}

let proof_codec : proof Codec.codec =
  Codec.codec
    ~encode:(fun buf p ->
      Codec.write_varint buf p.p_block;
      Codec.write_string buf p.p_header;
      Pos_tree.encode_proof buf p.p_upper;
      Pos_tree.encode_proof buf p.p_lower;
      Codec.write_option buf Codec.write_string p.p_payload)
    ~decode:(fun r ->
      let p_block = Codec.read_varint r in
      let p_header = Codec.read_string r in
      let p_upper = Pos_tree.decode_proof r in
      let p_lower = Pos_tree.decode_proof r in
      let p_payload = Codec.read_option r Codec.read_string in
      { p_block; p_header; p_upper; p_lower; p_payload })
    ()

let encode_proof = proof_codec.Codec.encode
let decode_proof = proof_codec.Codec.decode
let proof_size_bytes = proof_codec.Codec.size_bytes

(* The batched wire encoding for a set of single-key proofs: the distinct
   headers and chunks once, then per-proof frames referencing them by
   index.  [batch_size_bytes] is the exact length of this encoding. *)
let encode_proof_batch buf proofs =
  let seen = Hashtbl.create 64 in
  let pool = ref [] and npool = ref 0 in
  let intern s =
    match Hashtbl.find_opt seen s with
    | Some i -> i
    | None ->
      let i = !npool in
      Hashtbl.replace seen s i;
      pool := s :: !pool;
      incr npool;
      i
  in
  let frames =
    List.map
      (fun p ->
        ( p.p_block,
          intern p.p_header,
          List.map intern (Pos_tree.proof_chunks p.p_upper),
          List.map intern (Pos_tree.proof_chunks p.p_lower),
          p.p_payload ))
      proofs
  in
  Codec.write_list buf Codec.write_string (List.rev !pool);
  Codec.write_list buf
    (fun b (block, header, upper, lower, payload) ->
      Codec.write_varint b block;
      Codec.write_varint b header;
      Codec.write_list b Codec.write_varint upper;
      Codec.write_list b Codec.write_varint lower;
      Codec.write_option b Codec.write_string payload)
    frames

let batch_size_bytes proofs =
  String.length (Codec.to_string encode_proof_batch proofs)

let prove_inclusion t key ~block =
  match (header_at t block, state_at t block) with
  | Some header, Some st ->
    { p_block = block;
      p_header = header_bytes header;
      p_upper = Pos_tree.prove t.upper (block_key block);
      p_lower = Pos_tree.prove st key;
      p_payload = Pos_tree.get st key }
  | _ -> invalid_arg "Ledger.prove_inclusion: no such block"

let prove_current t key =
  if t.latest < 0 then invalid_arg "Ledger.prove_current: empty ledger"
  else prove_inclusion t key ~block:t.latest

let verify_inclusion ~digest ~key ~value p =
  match
    (* Parse the header defensively: it comes from the server. *)
    Codec.of_string decode_header p.p_header
  with
  | exception _ -> false
  | header ->
    Int.equal header.block_no p.p_block
    && p.p_block <= digest.block_no
    && Pos_tree.verify ~root:digest.root ~key:(block_key p.p_block)
         ~value:(Some p.p_header) p.p_upper
    && Pos_tree.verify ~root:header.state_root ~key ~value:p.p_payload
         p.p_lower
    &&
    (match (p.p_payload, value) with
     | None, None -> true
     | None, Some _ | Some _, None -> false
     | Some payload, Some v ->
       (match decode_payload payload with
        | value', version, _ -> String.equal value' v && version <= p.p_block
        | exception _ -> false))

let verify_current ~digest ~key ~value p =
  Int.equal p.p_block digest.block_no
  && Hash.equal (Hash.of_string p.p_header) digest.head
  && verify_inclusion ~digest ~key ~value p

(* --- batched inclusion proofs --- *)

type batch_proof = {
  bp_block : int;
  bp_header : string;
  bp_upper : Pos_tree.proof;
  bp_lower : Pos_tree.multiproof;
  bp_items : (Kv.key * string option) list;
      (** certified (key, encoded payload or absent), one per requested key *)
}

let batch_proof_codec : batch_proof Codec.codec =
  Codec.codec
    ~encode:(fun buf p ->
      Codec.write_varint buf p.bp_block;
      Codec.write_string buf p.bp_header;
      Pos_tree.encode_proof buf p.bp_upper;
      Pos_tree.encode_multiproof buf p.bp_lower;
      Codec.write_list buf
        (fun b (k, v) ->
          Codec.write_string b k;
          Codec.write_option b Codec.write_string v)
        p.bp_items)
    ~decode:(fun r ->
      let bp_block = Codec.read_varint r in
      let bp_header = Codec.read_string r in
      let bp_upper = Pos_tree.decode_proof r in
      let bp_lower = Pos_tree.decode_multiproof r in
      let bp_items =
        Codec.read_list r (fun r' ->
            let k = Codec.read_string r' in
            let v = Codec.read_option r' Codec.read_string in
            (k, v))
      in
      { bp_block; bp_header; bp_upper; bp_lower; bp_items })
    ()

let encode_batch_proof = batch_proof_codec.Codec.encode
let decode_batch_proof = batch_proof_codec.Codec.decode
let batch_proof_size_bytes = batch_proof_codec.Codec.size_bytes

let prove_inclusion_batch t keys ~block =
  match (header_at t block, state_at t block) with
  | Some header, Some st ->
    let lower, items = Pos_tree.prove_batch st keys in
    { bp_block = block;
      bp_header = header_bytes header;
      bp_upper = Pos_tree.prove t.upper (block_key block);
      bp_lower = lower;
      bp_items = items }
  | _ -> invalid_arg "Ledger.prove_inclusion_batch: no such block"

let prove_inclusion_batches t groups =
  List.map (fun (block, keys) -> prove_inclusion_batch t keys ~block) groups

(* Header and upper-tree inclusion are checked once for the whole batch;
   the multiproof then certifies every (key, payload) pair against the
   block's state root in one pass. *)
let verify_inclusion_batch ~digest p =
  match Codec.of_string decode_header p.bp_header with
  | exception _ -> false
  | header ->
    Int.equal header.block_no p.bp_block
    && p.bp_block <= digest.block_no
    && Pos_tree.verify ~root:digest.root ~key:(block_key p.bp_block)
         ~value:(Some p.bp_header) p.bp_upper
    && Pos_tree.verify_batch ~root:header.state_root ~items:p.bp_items
         p.bp_lower
    && List.for_all
         (fun (_, payload) ->
           match payload with
           | None -> true
           | Some s ->
             (match decode_payload s with
              | _, version, _ -> version <= p.bp_block
              | exception _ -> false))
         p.bp_items

(* The binding a verified batch proof certifies for [key]: [Some None] is
   certified absence, [None] means the key was not part of the batch. *)
let batch_proof_value p key =
  match List.assoc_opt key p.bp_items with
  | None -> None
  | Some None -> Some None
  | Some (Some payload) ->
    (match decode_payload payload with
     | value, _, _ -> Some (Some value)
     | exception _ -> None)

(* --- verifiable range scans --- *)

type scan_proof = {
  sp_block : int;
  sp_header : string;
  sp_upper : Pos_tree.proof;
  sp_range : Pos_tree.range_proof;
}

let scan_proof_size_bytes p =
  String.length p.sp_header
  + Pos_tree.proof_size_bytes p.sp_upper
  + Pos_tree.range_proof_size_bytes p.sp_range + 8

let prove_scan t ~lo ~hi ?block () =
  let block = Option.value ~default:t.latest block in
  match (header_at t block, state_at t block) with
  | Some header, Some st ->
    { sp_block = block;
      sp_header = header_bytes header;
      sp_upper = Pos_tree.prove t.upper (block_key block);
      sp_range = Pos_tree.prove_range st ~lo ~hi }
  | _ -> invalid_arg "Ledger.prove_scan: no such block"

let scan_at t block ~lo ~hi =
  match state_at t block with
  | None -> []
  | Some st ->
    Pos_tree.bindings_range st ~lo ~hi
    |> List.map (fun (k, payload) ->
           let v, _, _ = decode_payload payload in
           (k, v))

let scan ?block t ~lo ~hi =
  let block = Option.value ~default:t.latest block in
  if Int.equal block t.latest && block >= 0 then begin
    (* Flat-map range scan; if any row was written by a version newer than
       this view, fall back to the authenticated snapshot wholesale. *)
    let rows = Storage.Bptree.range t.flat ~lo ~hi in
    let current (_, payload) =
      let _, version, _ = decode_payload payload in
      version <= t.latest
    in
    if List.for_all current rows then
      List.map
        (fun (k, payload) ->
          let v, _, _ = decode_payload payload in
          (k, v))
        rows
    else scan_at t block ~lo ~hi
  end
  else scan_at t block ~lo ~hi

let verify_scan ~digest ~lo ~hi ~rows p =
  match Codec.of_string decode_header p.sp_header with
  | exception _ -> false
  | header ->
    Int.equal header.block_no p.sp_block
    && p.sp_block <= digest.block_no
    && Pos_tree.verify ~root:digest.root ~key:(block_key p.sp_block)
         ~value:(Some p.sp_header) p.sp_upper
    &&
    (match
       Pos_tree.extract_range ~root:header.state_root ~lo ~hi p.sp_range
     with
     | None -> false
     | Some certified ->
       (* The certified bindings carry encoded payloads; decode and compare
          with the claimed rows, key by key. *)
       Int.equal (List.length certified) (List.length rows)
       && List.for_all2
            (fun (ck, payload) (rk, rv) ->
              String.equal ck rk
              &&
              match decode_payload payload with
              | value, version, _ ->
                String.equal value rv && version <= p.sp_block
              | exception _ -> false)
            certified rows)

type append_proof =
  | Same_digest
  | Head_inclusion of { a_header : string; a_upper : Pos_tree.proof }

let append_proof_codec : append_proof Codec.codec =
  Codec.codec
    ~encode:(fun buf p ->
      match p with
      | Same_digest -> Codec.write_bool buf false
      | Head_inclusion { a_header; a_upper } ->
        Codec.write_bool buf true;
        Codec.write_string buf a_header;
        Pos_tree.encode_proof buf a_upper)
    ~decode:(fun r ->
      if Codec.read_bool r then
        let a_header = Codec.read_string r in
        let a_upper = Pos_tree.decode_proof r in
        Head_inclusion { a_header; a_upper }
      else Same_digest)
    ()

let encode_append_proof = append_proof_codec.Codec.encode
let decode_append_proof = append_proof_codec.Codec.decode
let append_proof_size_bytes = append_proof_codec.Codec.size_bytes

let prove_append_only t ~old_block =
  if Int.equal old_block t.latest || old_block < 0 then Same_digest
  else
    match header_at t old_block with
    | None -> invalid_arg "Ledger.prove_append_only: no such block"
    | Some header ->
      Head_inclusion
        { a_header = header_bytes header;
          a_upper = Pos_tree.prove t.upper (block_key old_block) }

let verify_append_only ~old_digest ~new_digest proof =
  if old_digest.block_no > new_digest.block_no then false
  else if old_digest.block_no < 0 then
    (* Anything extends the empty ledger. *)
    proof = Same_digest
  else if Int.equal old_digest.block_no new_digest.block_no then
    proof = Same_digest && digest_equal old_digest new_digest
  else
    match proof with
    | Same_digest -> false
    | Head_inclusion { a_header; a_upper } ->
      (* The old head block appears unchanged in the new tree; because each
         header hash-chains to its predecessor, this pins the entire prefix
         the old digest committed to. *)
      Hash.equal (Hash.of_string a_header) old_digest.head
      && Pos_tree.verify ~root:new_digest.root
           ~key:(block_key old_digest.block_no) ~value:(Some a_header) a_upper

(* --- work attribution ---

   Shadowed entry points charge their direct work (header hashing, payload
   encoding, proof assembly) to a ledger-level component; the tree work
   they trigger is charged to "postree" / "verify" by the Pos_tree scopes
   nested inside (exclusive attribution, see Glassdb_util.Work). *)

let stage t ~time ~writes ~txns =
  Work.with_component "ledger" (fun () -> stage t ~time ~writes ~txns)

let hashify t staged =
  Work.with_component "ledger" (fun () -> hashify t staged)

let append_block t ~time ~writes ~txns =
  fst (hashify t (stage t ~time ~writes ~txns))

let prove_inclusion t key ~block =
  Work.with_component "proof" (fun () -> prove_inclusion t key ~block)

let prove_current t key =
  Work.with_component "proof" (fun () -> prove_current t key)

let prove_inclusion_batch t keys ~block =
  Work.with_component "proof" (fun () -> prove_inclusion_batch t keys ~block)

let prove_inclusion_batches t groups =
  Work.with_component "proof" (fun () -> prove_inclusion_batches t groups)

let prove_scan t ~lo ~hi ?block () =
  Work.with_component "proof" (fun () -> prove_scan t ~lo ~hi ?block ())

let prove_append_only t ~old_block =
  Work.with_component "proof" (fun () -> prove_append_only t ~old_block)

let verify_inclusion ~digest ~key ~value p =
  Work.with_component "verify" (fun () -> verify_inclusion ~digest ~key ~value p)

let verify_current ~digest ~key ~value p =
  Work.with_component "verify" (fun () -> verify_current ~digest ~key ~value p)

let verify_inclusion_batch ~digest p =
  Work.with_component "verify" (fun () -> verify_inclusion_batch ~digest p)

let verify_scan ~digest ~lo ~hi ~rows p =
  Work.with_component "verify" (fun () -> verify_scan ~digest ~lo ~hi ~rows p)

let verify_append_only ~old_digest ~new_digest proof =
  Work.with_component "verify" (fun () ->
      verify_append_only ~old_digest ~new_digest proof)

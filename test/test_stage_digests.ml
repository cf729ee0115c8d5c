(* Cross-commit digest pin over seven hot-path stages at a small scale: a
   POS-tree batch build and incremental update, multi-block batched proof
   assembly, point, append-only and range proofs, a cluster-wide persist,
   and bench1's quick micro and macro runs.  Each stage hashes its deterministic outputs — tree roots, node
   store sizes, encoded proof bytes, ledger digests, bench rows — and the
   digest must equal the constant below.  A change that alters any
   digest, proof byte or simulated-clock figure on these paths fails
   here. *)

open Glassdb_util
module Ledger = Glassdb.Ledger
module Node = Glassdb.Node
module Cluster = Glassdb.Cluster
module Config = Glassdb.Config
module Kv = Txnkit.Kv

let keys = 3_000
let updates = 300
let blocks = 6
let keys_per_block = 120
let proof_groups = 6
let shards = 2
let txns = 40

let key_of = Printf.sprintf "key-%06d"
let sha_hex s = Hex.encode (Sha256.digest_string s)

let stage_pos_build () =
  let store = Storage.Node_store.create () in
  let cfg = Postree.Pos_tree.config store in
  let base =
    List.init keys (fun i -> (key_of i, Printf.sprintf "value-%06d" i))
  in
  let t = Postree.Pos_tree.insert_batch (Postree.Pos_tree.empty cfg) base in
  let digest =
    sha_hex
      (Printf.sprintf "%s|%d|%d"
         (Hex.encode (Postree.Pos_tree.root_hash t))
         (Storage.Node_store.node_count store)
         (Storage.Node_store.total_bytes store))
  in
  (digest, t)

let stage_pos_update t =
  let upd =
    List.init updates (fun i ->
        (key_of (i * 7919 mod keys), Printf.sprintf "updated-%06d" i))
  in
  let t2 = Postree.Pos_tree.insert_batch t upd in
  sha_hex (Hex.encode (Postree.Pos_tree.root_hash t2))

(* Six blocks of [keys_per_block] fresh keys each, no signed
   transactions. *)
let seeded_ledger () =
  let store = Storage.Node_store.create () in
  List.fold_left
    (fun l b ->
      Ledger.append_block l ~time:(float_of_int b)
        ~writes:
          (List.init keys_per_block (fun i ->
               { Ledger.wkey = key_of ((b * keys_per_block) + i);
                 wvalue = Printf.sprintf "v-%d-%d" b i;
                 wtid = Printf.sprintf "t%d" b }))
        ~txns:[])
    (Ledger.create (Ledger.config store))
    (List.init blocks Fun.id)

let stage_proofs () =
  let ledger = seeded_ledger () in
  let groups =
    List.init proof_groups (fun g ->
        let b = g mod blocks in
        ( b,
          List.init 16 (fun i ->
              key_of ((b * keys_per_block) + (i * 31 mod keys_per_block))) ))
  in
  let bps = Ledger.prove_inclusion_batches ledger groups in
  let buf = Buffer.create 65536 in
  List.iter (Ledger.encode_batch_proof buf) bps;
  let digest = Ledger.digest ledger in
  sha_hex
    (Printf.sprintf "%s|%d|%s"
       (Hex.encode digest.Ledger.root)
       digest.Ledger.block_no (Buffer.contents buf))

(* Point, append-only and range proofs on the seeded ledger, through
   their wire codecs: [prove_current] and [prove_inclusion] for a present
   and an absent key, an append-only proof from an older block, and a
   range scan's lower-tree chunks with the scan proof's accounted size.
   The scan's chunks come from the latest state tree rebuilt out of the
   ledger's own payloads; structural invariance makes it the tree
   [prove_scan] walks, and its root is checked against the header. *)
let stage_point_proofs () =
  let module Pos_tree = Postree.Pos_tree in
  let ledger = seeded_ledger () in
  let buf = Buffer.create 65536 in
  List.iter
    (fun k ->
      Ledger.encode_proof buf (Ledger.prove_current ledger k);
      Ledger.encode_proof buf (Ledger.prove_inclusion ledger k ~block:2))
    [ key_of ((2 * keys_per_block) + 17); "key-absent" ];
  Ledger.encode_append_proof buf (Ledger.prove_append_only ledger ~old_block:2);
  let all = List.init (blocks * keys_per_block) key_of in
  let state =
    Pos_tree.insert_batch
      (Pos_tree.empty (Pos_tree.config (Storage.Node_store.create ())))
      (List.map
         (fun k ->
           let value, version, prev = Option.get (Ledger.get ledger k) in
           (k, Ledger.encode_payload ~value ~version ~prev))
         all)
  in
  let latest = Ledger.latest_block ledger in
  if
    not
      (Hash.equal (Pos_tree.root_hash state)
         (Option.get (Ledger.header_at ledger latest)).Ledger.state_root)
  then Alcotest.fail "rebuilt state tree differs from the ledger's";
  let lo = key_of 100 and hi = key_of 300 in
  Pos_tree.encode_proof buf (Pos_tree.prove_range state ~lo ~hi);
  sha_hex
    (Printf.sprintf "%d|%s"
       (Ledger.scan_proof_size_bytes (Ledger.prove_scan ledger ~lo ~hi ()))
       (Buffer.contents buf))

let stage_persist () =
  let cluster = Cluster.create (Config.make ~shards ()) in
  (* Commit a backlog on every shard directly (prepare/commit are
     Sim-free), then drain it with Cluster.persist_all. *)
  Array.iteri
    (fun shard nd ->
      for seq = 0 to txns - 1 do
        let tid = Kv.txn_id ~client:shard ~seq in
        let rw =
          { Kv.reads = [];
            writes =
              [ (Printf.sprintf "s%d-%s" shard (key_of seq),
                 Printf.sprintf "w-%d-%d" shard seq) ] }
        in
        (* The signing key is part of the pinned bytes. *)
        let stxn = Kv.sign ~sk:"bench5-client" ~tid ~client:shard rw in
        (match Node.prepare nd ~rw stxn with
         | Txnkit.Occ.Ok -> ()
         | Txnkit.Occ.Conflict m -> Alcotest.failf "unexpected conflict: %s" m);
        ignore (Node.commit nd tid)
      done)
    (Cluster.nodes cluster);
  let blocks = Cluster.persist_all cluster ~now:1.0 in
  let buf = Buffer.create 256 in
  Array.iter
    (fun nd ->
      let d = Node.digest nd in
      Buffer.add_string buf
        (Printf.sprintf "%d:%d:%s;" (Node.shard_id nd) d.Ledger.block_no
           (Hex.encode d.Ledger.root)))
    (Cluster.nodes cluster);
  sha_hex (Printf.sprintf "%d|%s" blocks (Buffer.contents buf))

let stage_micro () =
  let rows = Bench1.micro_sweep ~quick:true in
  sha_hex (Json.to_string (Json.Arr (List.map Bench1.json_of_micro rows)))

let stage_macro () = sha_hex (Json.to_string (Bench1.macro_run ~quick:true))

(* The stages run once, in this order, whichever test case asks first. *)
let digests =
  lazy
    (let build, t = stage_pos_build () in
     let update = stage_pos_update t in
     let proofs = stage_proofs () in
     let point_proofs = stage_point_proofs () in
     let persist = stage_persist () in
     let micro = stage_micro () in
     let macro = stage_macro () in
     [ ("pos_build", build);
       ("pos_update", update);
       ("proofs", proofs);
       ("point_proofs", point_proofs);
       ("persist", persist);
       ("micro", micro);
       ("macro", macro) ])

let pinned =
  [ ("pos_build", "1685e0049d8ceb55707d028d29449e154df4434299d5c7b626504aba4f5823fc");
    ("pos_update", "18bf417df10ceacec00951662374e79199940ccc37fe7131394369d1ebc5debf");
    ("proofs", "a7dcd1629870ba8f6dc97323c50e0d0fb89a167191bb4d214d1b716867a075e8");
    ("point_proofs", "856e527fb064939a37df0ca1d1cba1171f4bf0e02af112814a4f7f6823c6e3f5");
    ("persist", "354aa446f7799ba83f684cf13bc35bd5c81b801f9795a75c90bf2c358ea05181");
    ("micro", "f7238d93bcd616c991277084c06f0f06a53f9b11145f34c20e651bca382c79ab");
    ("macro", "9b9aaa2788729eed1746c6d77acd8170144c78232203c1177835b7e38cd23fc7") ]

let () =
  Alcotest.run "stage_digests"
    [ ( "pinned",
        List.map
          (fun (stage, expected) ->
            Alcotest.test_case stage `Quick (fun () ->
                Alcotest.(check string) stage expected
                  (List.assoc stage (Lazy.force digests))))
          pinned );
      ( "rerun",
        [ Alcotest.test_case "pos_build and proofs again in-process" `Quick
            (fun () ->
              (* Hash contexts and Work counters are module-level state: a
                 second run after the full sequence must still match. *)
              ignore (Lazy.force digests);
              let build, _ = stage_pos_build () in
              Alcotest.(check string) "pos_build"
                (List.assoc "pos_build" pinned) build;
              Alcotest.(check string) "proofs" (List.assoc "proofs" pinned)
                (stage_proofs ())) ] ) ]

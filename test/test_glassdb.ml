(* End-to-end tests for the GlassDB core: ledger proofs, transactions over
   the simulated cluster, deferred verification, auditing, failure
   recovery, and tamper detection. *)

module Kv = Txnkit.Kv
module Error = Glassdb_util.Error
module Ledger = Glassdb.Ledger
module Node = Glassdb.Node
module Cluster = Glassdb.Cluster
module Client = Glassdb.Client
module Auditor = Glassdb.Auditor

let mk_ledger () =
  Ledger.create (Ledger.config (Storage.Node_store.create ()))

let w k v tid = { Ledger.wkey = k; wvalue = v; wtid = tid }

(* --- Ledger unit tests --- *)

let test_ledger_append_get () =
  let l = mk_ledger () in
  Alcotest.(check int) "empty" (-1) (Ledger.latest_block l);
  let l = Ledger.append_block l ~time:0. ~writes:[ w "a" "1" "t1"; w "b" "2" "t1" ] ~txns:[] in
  let l = Ledger.append_block l ~time:1. ~writes:[ w "a" "10" "t2" ] ~txns:[] in
  Alcotest.(check int) "two blocks" 1 (Ledger.latest_block l);
  (match Ledger.get l "a" with
   | Some ("10", 1, 0) -> ()
   | other ->
     Alcotest.failf "a = %s"
       (match other with
        | Some (v, ver, prev) -> Printf.sprintf "(%s,%d,%d)" v ver prev
        | None -> "None"));
  (match Ledger.get ~block:0 l "a" with
   | Some ("1", 0, -1) -> ()
   | _ -> Alcotest.fail "historical read of a at block 0");
  Alcotest.(check (option unit)) "absent key" None
    (Option.map ignore (Ledger.get l "zzz"));
  Alcotest.(check int) "key count" 2 (Ledger.key_count l)

let test_ledger_history () =
  let l = ref (mk_ledger ()) in
  for i = 0 to 9 do
    l := Ledger.append_block !l ~time:(float_of_int i)
        ~writes:[ w "k" (string_of_int i) "t" ] ~txns:[]
  done;
  let h = Ledger.get_history !l "k" ~n:3 in
  Alcotest.(check (list (pair string int))) "last 3 versions"
    [ ("9", 9); ("8", 8); ("7", 7) ] h;
  Alcotest.(check int) "full history" 10
    (List.length (Ledger.get_history !l "k" ~n:100))

let test_ledger_duplicate_key_in_block_rejected () =
  let l = mk_ledger () in
  match Ledger.append_block l ~time:0. ~writes:[ w "a" "1" "t"; w "a" "2" "t" ] ~txns:[] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_ledger_inclusion_and_current_proofs () =
  let l = ref (mk_ledger ()) in
  for b = 0 to 19 do
    let writes =
      List.init 20 (fun i -> w (Printf.sprintf "key-%02d" i) (Printf.sprintf "v%d.%d" b i) "t")
    in
    l := Ledger.append_block !l ~time:0. ~writes ~txns:[]
  done;
  let d = Ledger.digest !l in
  (* Current-value proof for latest values. *)
  let p = Ledger.prove_current !l "key-05" in
  Alcotest.(check bool) "current ok" true
    (Ledger.verify_current ~digest:d ~key:"key-05" ~value:(Some "v19.5") p);
  Alcotest.(check bool) "current wrong value rejected" false
    (Ledger.verify_current ~digest:d ~key:"key-05" ~value:(Some "v18.5") p);
  (* Inclusion at a historical block. *)
  let p7 = Ledger.prove_inclusion !l "key-05" ~block:7 in
  Alcotest.(check bool) "inclusion at block 7" true
    (Ledger.verify_inclusion ~digest:d ~key:"key-05" ~value:(Some "v7.5") p7);
  (* A stale proof must not pass the *current*-value check. *)
  Alcotest.(check bool) "stale proof fails freshness" false
    (Ledger.verify_current ~digest:d ~key:"key-05" ~value:(Some "v7.5") p7);
  (* Absent key. *)
  let pa = Ledger.prove_current !l "missing" in
  Alcotest.(check bool) "absence proof" true
    (Ledger.verify_current ~digest:d ~key:"missing" ~value:None pa)

let test_ledger_batch_proof_acceptance () =
  (* The PR's headline claim: a 64-key batch proof in one block is strictly
     cheaper than 64 independent proofs — fewer page reads to build, fewer
     hashes to check, fewer bytes on the wire. *)
  let l = ref (mk_ledger ()) in
  let writes =
    List.init 2000 (fun i -> w (Printf.sprintf "key-%04d" i) (Printf.sprintf "v%d" i) "t")
  in
  l := Ledger.append_block !l ~time:0. ~writes ~txns:[];
  let d = Ledger.digest !l in
  let keys = List.init 64 (fun i -> Printf.sprintf "key-%04d" (i * 31)) in
  let bp, cb =
    Glassdb_util.Work.measure (fun () ->
        Ledger.prove_inclusion_batch !l keys ~block:0)
  in
  let proofs, ci =
    Glassdb_util.Work.measure (fun () ->
        List.map (fun k -> Ledger.prove_inclusion !l k ~block:0) keys)
  in
  Alcotest.(check bool)
    (Printf.sprintf "batched prove reads fewer pages (%d < %d)"
       cb.Glassdb_util.Work.page_reads ci.Glassdb_util.Work.page_reads)
    true
    (cb.Glassdb_util.Work.page_reads < ci.Glassdb_util.Work.page_reads);
  let okb, vb =
    Glassdb_util.Work.measure (fun () ->
        Ledger.verify_inclusion_batch ~digest:d bp)
  in
  let oki, vi =
    Glassdb_util.Work.measure (fun () ->
        List.for_all2
          (fun k p ->
            let value = Option.map (fun (v, _, _) -> v) (Ledger.get !l k) in
            Ledger.verify_inclusion ~digest:d ~key:k ~value p)
          keys proofs)
  in
  Alcotest.(check bool) "both verify" true (okb && oki);
  Alcotest.(check bool)
    (Printf.sprintf "batched verify hashes less (%d < %d)"
       vb.Glassdb_util.Work.hashes vi.Glassdb_util.Work.hashes)
    true
    (vb.Glassdb_util.Work.hashes < vi.Glassdb_util.Work.hashes);
  let batch_bytes = Ledger.batch_proof_size_bytes bp in
  let indep_bytes =
    List.fold_left (fun a p -> a + Ledger.proof_size_bytes p) 0 proofs
  in
  Alcotest.(check bool)
    (Printf.sprintf "batched proof strictly smaller (%d < %d)" batch_bytes
       indep_bytes)
    true
    (batch_bytes < indep_bytes);
  (* And the legacy batched wire encoding also dedups. *)
  Alcotest.(check bool) "merged legacy encoding dedups" true
    (Ledger.batch_size_bytes proofs < indep_bytes);
  (* Every key resolves to its value through the batch proof. *)
  List.iter
    (fun k ->
      let expected = Option.map (fun (v, _, _) -> v) (Ledger.get !l k) in
      Alcotest.(check bool) k true
        (Ledger.batch_proof_value bp k = Some expected))
    keys;
  (* Adversarial: a proof re-labelled to another block is rejected. *)
  l := Ledger.append_block !l ~time:1. ~writes:[ w "key-0000" "new" "t" ] ~txns:[];
  let d2 = Ledger.digest !l in
  Alcotest.(check bool) "wrong block rejected" false
    (Ledger.verify_inclusion_batch ~digest:d2 { bp with Ledger.bp_block = 1 });
  (* Tampered payload inside the item list is rejected by the multiproof. *)
  let tampered =
    { bp with
      Ledger.bp_items =
        List.map
          (fun (k, v) ->
            if k = "key-0031" then
              (k, Some (Ledger.encode_payload ~value:"evil" ~version:0 ~prev:(-1)))
            else (k, v))
          bp.Ledger.bp_items }
  in
  Alcotest.(check bool) "tampered payload rejected" false
    (Ledger.verify_inclusion_batch ~digest:d tampered);
  (* Codec roundtrip. *)
  let bp' =
    Glassdb_util.Codec.of_string Ledger.decode_batch_proof
      (Glassdb_util.Codec.to_string Ledger.encode_batch_proof bp)
  in
  Alcotest.(check bool) "codec roundtrip verifies" true
    (Ledger.verify_inclusion_batch ~digest:d bp')

let test_ledger_snapshot_retention () =
  let store = Storage.Node_store.create () in
  let l =
    ref (Ledger.create (Ledger.config ~snapshot_retention:4 store))
  in
  for b = 0 to 19 do
    l := Ledger.append_block !l ~time:(float_of_int b)
        ~writes:[ w (Printf.sprintf "k%d" (b mod 7)) (Printf.sprintf "v%d" b) "t" ]
        ~txns:[]
  done;
  Alcotest.(check int) "resident snapshots bounded" 4 (Ledger.resident_snapshots !l);
  (* Historical reads beyond the retention window rebuild from the store. *)
  (match Ledger.get ~block:2 !l "k2" with
   | Some ("v2", 2, _) -> ()
   | _ -> Alcotest.fail "historical read through rebuilt snapshot");
  (* Proofs against evicted blocks still verify. *)
  let d = Ledger.digest !l in
  let p = Ledger.prove_inclusion !l "k2" ~block:2 in
  Alcotest.(check bool) "proof from evicted block" true
    (Ledger.verify_inclusion ~digest:d ~key:"k2" ~value:(Some "v2") p);
  let bp = Ledger.prove_inclusion_batch !l [ "k0"; "k1"; "k2" ] ~block:2 in
  Alcotest.(check bool) "batch proof from evicted block" true
    (Ledger.verify_inclusion_batch ~digest:d bp);
  (* The rebuilt snapshot is charged: page reads or cache hits occur. *)
  let (), c =
    Glassdb_util.Work.measure (fun () -> ignore (Ledger.get ~block:5 !l "k5"))
  in
  Alcotest.(check bool) "rebuild is charged" true
    (c.Glassdb_util.Work.page_reads + c.Glassdb_util.Work.cache_hits > 0)

let test_ledger_append_only_proofs () =
  let l = ref (mk_ledger ()) in
  let digests = ref [] in
  for b = 0 to 14 do
    l := Ledger.append_block !l ~time:0.
        ~writes:[ w (Printf.sprintf "k%d" (b mod 4)) (string_of_int b) "t" ]
        ~txns:[];
    digests := Ledger.digest !l :: !digests
  done;
  let digests = Array.of_list (List.rev !digests) in
  let new_digest = digests.(14) in
  for old = 0 to 14 do
    let p = Ledger.prove_append_only !l ~old_block:old in
    if
      not
        (Ledger.verify_append_only ~old_digest:digests.(old) ~new_digest p)
    then Alcotest.failf "append-only failed from block %d" old
  done;
  (* Genesis extends to anything. *)
  let p = Ledger.prove_append_only !l ~old_block:(-1) in
  Alcotest.(check bool) "genesis" true
    (Ledger.verify_append_only ~old_digest:Ledger.genesis ~new_digest p)

let test_ledger_append_only_detects_fork () =
  (* Two ledgers diverge at block 5; a digest from the fork must not verify
     against the main chain. *)
  let build alt =
    let l = ref (mk_ledger ()) in
    let ds = ref [] in
    for b = 0 to 9 do
      let v = if alt && b >= 5 then Printf.sprintf "evil%d" b else string_of_int b in
      l := Ledger.append_block !l ~time:0. ~writes:[ w "k" v "t" ] ~txns:[];
      ds := Ledger.digest !l :: !ds
    done;
    (!l, Array.of_list (List.rev !ds))
  in
  let main, _ = build false in
  let _, fork_digests = build true in
  let p = Ledger.prove_append_only main ~old_block:6 in
  Alcotest.(check bool) "forked digest rejected" false
    (Ledger.verify_append_only ~old_digest:fork_digests.(6)
       ~new_digest:(Ledger.digest main) p)

(* --- Staged write path (DESIGN.md §4j) --- *)

module Codec = Glassdb_util.Codec

(* Deterministic workload with cross-batch key overlap: [n_batches] batches
   of [batch_size] distinct keys drawn from a 40-key space. *)
let mk_batches ~seed ~n_batches ~batch_size =
  let rng = Random.State.make [| 0x9e3779b9; seed |] in
  List.init n_batches (fun b ->
      let seen = Hashtbl.create 16 in
      let writes = ref [] in
      while Hashtbl.length seen < batch_size do
        let k = Printf.sprintf "key-%02d" (Random.State.int rng 40) in
        if not (Hashtbl.mem seen k) then begin
          Hashtbl.replace seen k ();
          writes :=
            w k
              (Printf.sprintf "v%d.%d.%d" seed b (Hashtbl.length seen))
              (Printf.sprintf "t%d.%d" seed b)
            :: !writes
        end
      done;
      (float_of_int b, List.rev !writes))

(* Stage and hashify [seed]'s batches, one block each, and fingerprint the
   result: digest, store node count, current-value proofs, histories and
   an append-only proof. *)
let fingerprint ~seed =
  let store = Storage.Node_store.create () in
  let l =
    List.fold_left
      (fun l (time, writes) ->
        fst (Ledger.hashify l (Ledger.stage l ~time ~writes ~txns:[])))
      (Ledger.create (Ledger.config store))
      (mk_batches ~seed ~n_batches:8 ~batch_size:12)
  in
  let keys = [ "key-00"; "key-17"; "key-39" ] in
  let hex = Glassdb_util.Hex.encode in
  let d = Ledger.digest l in
  String.concat "|"
    ([ string_of_int d.Ledger.block_no;
       hex d.Ledger.root;
       hex d.Ledger.head;
       string_of_int (Storage.Node_store.node_count store) ]
     @ List.map
         (fun k ->
           hex (Codec.to_string Ledger.encode_proof (Ledger.prove_current l k)))
         keys
     @ List.map
         (fun k ->
           String.concat ","
             (List.map
                (fun (v, b) -> Printf.sprintf "%s@%d" v b)
                (Ledger.get_history l k ~n:20)))
         keys
     @ [ hex
           (Codec.to_string Ledger.encode_append_proof
              (Ledger.prove_append_only l ~old_block:0)) ])

(* SHA-256 of each seed's fingerprint, captured when hashify still ran
   through a domain pool (where it was checked byte-identical at pool
   sizes 1, 2 and 4). *)
let pinned_fingerprints =
  [| "c44d50aed81a077b7f31e5a44717411dbac28940d1bf2fda12eb6000106f0bba";
     "6f849cc9f09b36746405101abc3eb0abfb8b653a068d2f649f8f445076951a15";
     "6a7118eabf01b8e72be5a33737b3f888bb79ef3281c52b47cc103f5aa133d5b7";
     "f34862f5c4abafafc54935374efc3529b537940d9ea512ad933152b35958dcb9";
     "53ae7fa08c478ef138eb078bfc29d0b549de68d0bf0c4b2761fb2f27ff158e89";
     "a38633ba943fc4fb797ab211a5fb04eec4990de45069913a1cc73f69f17c7294";
     "8b53d05bee98dfeb3b8d4e01d9d2fc9224ddca355dcc5689dd0f552cba416263";
     "7c653326b14e26e17fecb678e5828df39d958076624c669e6eca1236b8088f4f";
     "d73c80c413632401cdb03d2017914f0e3eb8e8273034e3644b115df0a701948f";
     "b53e00b2785bc1e75aa0901687d8d403e824c625c47535d593a8c53af86db166" |]

let test_pinned_fingerprints () =
  Array.iteri
    (fun seed expected ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d" seed)
        expected
        (Glassdb_util.Hex.encode
           (Glassdb_util.Sha256.digest_string (fingerprint ~seed))))
    pinned_fingerprints

let test_staged_base_mismatch_rejected () =
  let l0 = mk_ledger () in
  let l1 = Ledger.append_block l0 ~time:0. ~writes:[ w "a" "1" "t" ] ~txns:[] in
  let s0 = Ledger.stage l0 ~time:1. ~writes:[ w "b" "2" "t" ] ~txns:[] in
  match Ledger.hashify l1 s0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "hashify against a different version must be rejected"

let test_proof_codecs_match_legacy () =
  let l = ref (mk_ledger ()) in
  for b = 0 to 5 do
    l := Ledger.append_block !l ~time:(float_of_int b)
        ~writes:(List.init 8 (fun i ->
            w (Printf.sprintf "ck%d" i) (Printf.sprintf "v%d.%d" b i) "t"))
        ~txns:[]
  done;
  let p = Ledger.prove_current !l "ck3" in
  Alcotest.(check string) "proof encode = wrapper"
    (Codec.to_string Ledger.encode_proof p)
    (Codec.encode_to_string Ledger.proof_codec p);
  Alcotest.(check int) "proof size = wrapper"
    (Ledger.proof_size_bytes p)
    (Ledger.proof_codec.Codec.size_bytes p);
  let bytes = Codec.encode_to_string Ledger.proof_codec p in
  Alcotest.(check string) "proof decode roundtrips" bytes
    (Codec.encode_to_string Ledger.proof_codec
       (Codec.decode_of_string Ledger.proof_codec bytes));
  let bp = Ledger.prove_inclusion_batch !l [ "ck1"; "ck4" ] ~block:5 in
  Alcotest.(check string) "batch encode = wrapper"
    (Codec.to_string Ledger.encode_batch_proof bp)
    (Codec.encode_to_string Ledger.batch_proof_codec bp);
  Alcotest.(check int) "batch size = wrapper"
    (Ledger.batch_proof_size_bytes bp)
    (Ledger.batch_proof_codec.Codec.size_bytes bp);
  let ap = Ledger.prove_append_only !l ~old_block:2 in
  Alcotest.(check string) "append encode = wrapper"
    (Codec.to_string Ledger.encode_append_proof ap)
    (Codec.encode_to_string Ledger.append_proof_codec ap);
  Alcotest.(check int) "append size = wrapper"
    (Ledger.append_proof_size_bytes ap)
    (Ledger.append_proof_codec.Codec.size_bytes ap)

(* --- Cluster transactions --- *)

let with_cluster ?(shards = 4) ?(sync_persist = false) ?faults f =
  let out = ref None in
  Sim.run (fun () ->
      let cl =
        Cluster.create (Glassdb.Config.make ~shards ~sync_persist ?faults ())
      in
      Cluster.start cl;
      out := Some (f cl);
      Cluster.stop cl);
  Option.get !out

let test_txn_commit_and_read () =
  with_cluster (fun cl ->
      let c = Client.create cl ~id:1 ~sk:"key1" in
      (match
         Client.execute c (fun h ->
             Client.put h "x" "42";
             Client.put h "y" "43")
       with
       | Ok ((), promises) ->
         Alcotest.(check int) "two promises" 2 (List.length promises)
       | Error e -> Alcotest.failf "commit failed: %s" (Error.to_string e));
      match Client.execute c (fun h -> Client.get h "x") with
      | Ok (v, _) -> Alcotest.(check (option string)) "read back" (Some "42") v
      | Error e -> Alcotest.failf "read failed: %s" (Error.to_string e))

let test_txn_cross_shard_atomicity () =
  with_cluster ~shards:8 (fun cl ->
      let c = Client.create cl ~id:1 ~sk:"key1" in
      let keys = List.init 20 (fun i -> Printf.sprintf "acct-%d" i) in
      (match
         Client.execute c (fun h ->
             List.iter (fun k -> Client.put h k "100") keys)
       with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "setup failed: %s" (Error.to_string e));
      (* Transfer between two keys on (almost surely) different shards. *)
      (match
         Client.execute c (fun h ->
             let a = Option.get (Client.get h "acct-0") in
             let b = Option.get (Client.get h "acct-1") in
             Client.put h "acct-0" (string_of_int (int_of_string a - 10));
             Client.put h "acct-1" (string_of_int (int_of_string b + 10)))
       with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "transfer failed: %s" (Error.to_string e));
      match
        Client.execute c (fun h ->
            (Option.get (Client.get h "acct-0"), Option.get (Client.get h "acct-1")))
      with
      | Ok ((a, b), _) ->
        Alcotest.(check string) "debited" "90" a;
        Alcotest.(check string) "credited" "110" b
      | Error e -> Alcotest.failf "check failed: %s" (Error.to_string e))

let test_txn_conflict_aborts () =
  with_cluster ~shards:1 (fun cl ->
      let c1 = Client.create cl ~id:1 ~sk:"k1" in
      ignore (Client.execute c1 (fun h -> Client.put h "c" "0"));
      (* Interleave two clients read-modify-write on the same key at the
         same virtual time: one must abort. *)
      let results = ref [] in
      let iv1 = Sim.Ivar.create () and iv2 = Sim.Ivar.create () in
      let attempt iv id =
        Sim.spawn (fun () ->
            let c = Client.create cl ~id ~sk:"k" in
            let r =
              Client.execute c (fun h ->
                  let v = Option.get (Client.get h "c") in
                  Client.put h "c" (string_of_int (int_of_string v + 1)))
            in
            results := (id, Result.is_ok r) :: !results;
            Sim.Ivar.fill iv ())
      in
      attempt iv1 10;
      attempt iv2 11;
      Sim.Ivar.read iv1;
      Sim.Ivar.read iv2;
      let oks = List.filter snd !results in
      Alcotest.(check int) "exactly one commits" 1 (List.length oks);
      (* Counter must reflect exactly one increment. *)
      match Client.execute c1 (fun h -> Client.get h "c") with
      | Ok (Some "1", _) -> ()
      | Ok (v, _) ->
        Alcotest.failf "counter = %s" (Option.value ~default:"None" v)
      | Error e -> Alcotest.failf "read failed: %s" (Error.to_string e))

let test_deferred_verification_roundtrip () =
  with_cluster (fun cl ->
      let c =
        Client.create ~rpc_timeout:1.0 ~verify_delay:0.1 cl ~id:1 ~sk:"k1"
      in
      let results = ref [] in
      for i = 0 to 19 do
        match Client.verified_put c (Printf.sprintf "vk%d" i) (string_of_int i) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "put %d failed: %s" i (Error.to_string e)
      done;
      Alcotest.(check int) "promises queued" 20 (Client.pending_verifications c);
      (* Wait past the verify delay and a persist interval, then flush. *)
      Sim.sleep 0.5;
      results := Client.flush_verifications c ();
      let verified =
        List.fold_left (fun a v -> a + v.Client.v_keys) 0 !results
      in
      Alcotest.(check int) "all promises verified" 20 verified;
      List.iter
        (fun v -> if not v.Client.v_ok then Alcotest.fail "verification failed")
        !results;
      Alcotest.(check int) "no failures" 0 (Client.verification_failures c);
      Alcotest.(check int) "queue drained" 0 (Client.pending_verifications c))

let test_verified_get_latest_and_at () =
  with_cluster (fun cl ->
      let c = Client.create cl ~id:1 ~sk:"k1" in
      ignore (Client.verified_put c "vg" "first");
      Sim.sleep 0.2;
      ignore (Client.verified_put c "vg" "second");
      Sim.sleep 0.2;
      ignore (Client.flush_verifications c ());
      (match Client.verified_get_latest c "vg" with
       | Ok (Some "second", v) ->
         Alcotest.(check bool) "proof ok" true v.Client.v_ok;
         Alcotest.(check bool) "proof bytes > 0" true (v.Client.v_proof_bytes > 0)
       | Ok (v, _) ->
         Alcotest.failf "latest = %s" (Option.value ~default:"None" v)
       | Error e -> Alcotest.failf "verified get failed: %s" (Error.to_string e));
      (* Historical read at the first version's block. *)
      let shard = Cluster.shard_of_key cl "vg" in
      let nd = Cluster.node cl shard in
      let first_block =
        match Ledger.get_history (Node.ledger_of nd) "vg" ~n:2 with
        | [ _; (_, b) ] -> b
        | _ -> Alcotest.fail "expected two versions"
      in
      match Client.verified_get_at c "vg" ~block:first_block with
      | Ok (Some "first", v) -> Alcotest.(check bool) "at-proof ok" true v.Client.v_ok
      | Ok (v, _) -> Alcotest.failf "at = %s" (Option.value ~default:"None" v)
      | Error e -> Alcotest.failf "verified get_at failed: %s" (Error.to_string e))

let test_sync_persist_mode () =
  with_cluster ~sync_persist:true (fun cl ->
      let c = Client.create ~rpc_timeout:1.0 ~verify_delay:0.0 cl ~id:1 ~sk:"k" in
      (match Client.verified_put c "s" "1" with
       | Ok p -> Alcotest.(check int) "block 0 promised" 0 p.Node.pr_block
       | Error e -> Alcotest.failf "put failed: %s" (Error.to_string e));
      (* With synchronous persistence the proof is available immediately. *)
      let vs = Client.flush_verifications c () in
      Alcotest.(check int) "verified immediately" 1
        (List.fold_left (fun a v -> a + v.Client.v_keys) 0 vs))

let test_auditor_accepts_honest_server () =
  with_cluster ~shards:2 (fun cl ->
      let c = Client.create cl ~id:1 ~sk:"pk1" in
      let a = Auditor.create cl ~id:0 in
      Auditor.register_client a ~client:1 ~pk:"pk1";
      for i = 0 to 30 do
        ignore
          (Client.execute c (fun h ->
               Client.put h (Printf.sprintf "ak%d" (i mod 7)) (string_of_int i)))
      done;
      Sim.sleep 0.2;
      let reports = Auditor.audit_all a in
      List.iter
        (fun r ->
          if not r.Auditor.ar_ok then
            Alcotest.failf "audit failed on shard %d" r.Auditor.ar_shard)
        reports;
      let blocks = List.fold_left (fun acc r -> acc + r.Auditor.ar_blocks) 0 reports in
      Alcotest.(check bool) "blocks audited" true (blocks > 0);
      Alcotest.(check int) "no violations" 0 (Auditor.failures a);
      (* Incremental re-audit sees nothing new. *)
      let again = Auditor.audit_all a in
      Alcotest.(check int) "nothing new" 0
        (List.fold_left (fun acc r -> acc + r.Auditor.ar_blocks) 0 again);
      (* User digest check. *)
      let shard = 0 in
      Alcotest.(check bool) "user digest accepted" true
        (Auditor.verify_user_digest a ~shard (Client.digest_of_shard c shard)))

let test_auditor_detects_unauthorized_txn () =
  with_cluster ~shards:1 (fun cl ->
      let c = Client.create cl ~id:1 ~sk:"pk1" in
      let a = Auditor.create cl ~id:0 in
      Auditor.register_client a ~client:1 ~pk:"pk1";
      ignore (Client.execute c (fun h -> Client.put h "k" "v"));
      Sim.sleep 0.2;
      ignore (Auditor.audit_all a);
      (* The server slips in a write not vouched by any signed txn. *)
      let nd = Cluster.node cl 0 in
      let forged = Kv.sign ~sk:"attacker" ~tid:"evil" ~client:99
          { Kv.reads = []; writes = [ ("k", "tampered") ] } in
      (match Node.prepare nd ~rw:forged.Kv.rw forged with
       | Txnkit.Occ.Ok -> ignore (Node.commit nd "evil")
       | Txnkit.Occ.Conflict _ -> Alcotest.fail "forged prepare rejected?");
      Sim.sleep 0.2;
      let reports = Auditor.audit_all a in
      Alcotest.(check bool) "audit flags the block" true
        (List.exists (fun r -> not r.Auditor.ar_ok) reports);
      Alcotest.(check bool) "violation recorded" true (Auditor.failures a > 0))

let test_crash_aborts_then_recovery_preserves_data () =
  with_cluster ~shards:2 (fun cl ->
      let c =
        Client.create ~rpc_timeout:0.05 ~verify_delay:0.1 cl ~id:1 ~sk:"k"
      in
      ignore (Client.execute c (fun h -> Client.put h "r0" "before"));
      Sim.sleep 0.2;
      (* Find the shard of a key and crash it. *)
      let shard = Cluster.shard_of_key cl "r0" in
      (* Commit a write that will still be in the committed map when the
         crash hits (no persist between commit and crash). *)
      ignore (Client.execute c (fun h -> Client.put h "r0" "unpersisted"));
      Cluster.crash_node cl shard;
      (* Transactions touching the dead shard abort by timeout. *)
      (match Client.execute c (fun h -> Client.put h "r0" "during-crash") with
       | Error _ -> ()
       | Ok _ -> Alcotest.fail "write to crashed shard should abort");
      Cluster.recover_node cl shard;
      Sim.sleep 0.3;
      (* The WAL-recovered write must be persisted after recovery. *)
      match Client.execute c (fun h -> Client.get h "r0") with
      | Ok (Some "unpersisted", _) -> ()
      | Ok (v, _) ->
        Alcotest.failf "after recovery r0 = %s" (Option.value ~default:"None" v)
      | Error e -> Alcotest.failf "read failed: %s" (Error.to_string e))

(* --- WAL crash-replay: every truncation point, torn tails, idempotence --- *)

(* A node with persistence effectively disabled: every committed write
   lives only in the volatile map and the WAL, so recovery is pure WAL
   replay. *)
let mk_bare_node () =
  Node.create
    (Glassdb.Config.node (Glassdb.Config.make ~shards:1 ~persist_interval:1e9 ()))
    ~shard_id:0

let commit_one nd i =
  let tid = Printf.sprintf "t%d" i in
  let stxn =
    Kv.sign ~sk:"k" ~tid ~client:1
      { Kv.reads = [];
        writes = [ (Printf.sprintf "k%d" (i mod 3), string_of_int i) ] }
  in
  (match Node.prepare nd ~rw:stxn.Kv.rw stxn with
   | Txnkit.Occ.Ok -> ignore (Node.commit nd tid)
   | Txnkit.Occ.Conflict r -> Alcotest.failf "prepare %d: %s" i r);
  (Storage.Wal.last_seq (Node.wal_of nd), Node.committed_fingerprint nd)

let test_wal_replay_every_truncation_point () =
  let nd = mk_bare_node () in
  let empty_fp = Node.committed_fingerprint nd in
  (* Snapshot (last WAL seq, committed-map fingerprint) after each commit. *)
  let snaps = List.init 10 (fun i -> commit_one nd i) in
  let expected_at s =
    List.fold_left
      (fun acc (seq, fp) -> if seq <= s then fp else acc)
      empty_fp snaps
  in
  (* Truncate at every record boundary, newest first (truncation is
     destructive, so walk downward on the same node). *)
  for s = Storage.Wal.last_seq (Node.wal_of nd) downto -1 do
    Node.crash nd;
    Storage.Wal.truncate_after (Node.wal_of nd) s;
    Node.recover nd;
    if not (Glassdb_util.Hash.equal (Node.committed_fingerprint nd) (expected_at s))
    then Alcotest.failf "replay after truncate_after %d diverges" s
  done

let test_wal_replay_skips_torn_record () =
  let nd = mk_bare_node () in
  let snaps = List.init 5 (fun i -> commit_one nd i) in
  let fp_all = snd (List.nth snaps 4) in
  let fp_prefix = snd (List.nth snaps 3) in
  (* Tear the final commit record mid-payload: replay must skip it and
     recover exactly the previous committed prefix. *)
  Node.crash nd;
  Storage.Wal.tear_last (Node.wal_of nd) ~drop_bytes:2;
  Node.recover nd;
  Alcotest.(check bool) "torn tail dropped, prefix exact" true
    (Glassdb_util.Hash.equal (Node.committed_fingerprint nd) fp_prefix);
  Alcotest.(check bool) "tail really was lost" false
    (Glassdb_util.Hash.equal fp_prefix fp_all)

let test_wal_replay_idempotent () =
  let nd = mk_bare_node () in
  let snaps = List.init 7 (fun i -> commit_one nd i) in
  let fp = snd (List.nth snaps 6) in
  Node.crash nd;
  Node.recover nd;
  Alcotest.(check bool) "first replay exact" true
    (Glassdb_util.Hash.equal (Node.committed_fingerprint nd) fp);
  (* Replaying again from the same WAL must not duplicate versions. *)
  Node.recover nd;
  Alcotest.(check bool) "second replay identical" true
    (Glassdb_util.Hash.equal (Node.committed_fingerprint nd) fp)

(* --- 2PC abort-path cleanup under injected faults --- *)

let test_mid_2pc_crash_releases_prepare_locks () =
  with_cluster ~shards:2 (fun cl ->
      let c =
        Client.create ~rpc_timeout:0.05 ~rpc_retries:1 ~retry_backoff:0.01
          cl ~id:1 ~sk:"k"
      in
      let key_on shard =
        let rec go i =
          let k = Printf.sprintf "mp%d" i in
          if Cluster.shard_of_key cl k = shard then k else go (i + 1)
        in
        go 0
      in
      let k0 = key_on 0 and k1 = key_on 1 in
      (* Shard 1 dies before the transaction commits: its prepare round
         fails, and the coordinator must release shard 0's prepare state. *)
      Cluster.crash_node cl 1;
      (match
         Client.execute c (fun h ->
             Client.put h k0 "a";
             Client.put h k1 "b")
       with
       | Error _ -> ()
       | Ok _ -> Alcotest.fail "committed through a dead shard");
      Alcotest.(check bool) "no leaked OCC lock on surviving shard" false
        (Node.write_locked (Cluster.node cl 0) k0);
      Alcotest.(check bool) "coordinator recorded the abort" true
        (Client.coordinator_aborts c <> []);
      (* The surviving shard accepts the same key immediately. *)
      match Client.execute c (fun h -> Client.put h k0 "again") with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "retry after abort: %s" (Error.to_string e))

let test_partition_heals_and_retries_succeed () =
  let faults = Faults.create ~seed:5 () in
  Faults.schedule faults ~at:0.01 (Faults.Partition 0);
  Faults.schedule faults ~at:0.30 (Faults.Heal 0);
  with_cluster ~shards:1 ~faults (fun cl ->
      let c =
        Client.create ~rpc_timeout:0.1 ~rpc_retries:5 ~retry_backoff:0.05
          cl ~id:1 ~sk:"k"
      in
      Sim.sleep 0.05 (* land inside the partition window *);
      match Client.execute c (fun h -> Client.put h "p" "1") with
      | Ok _ ->
        Alcotest.(check bool) "attempts retried through the partition" true
          (Client.rpc_retry_count c > 0)
      | Error e ->
        Alcotest.failf "retries never outlasted the partition: %s"
          (Error.to_string e))

let test_storage_accounting () =
  with_cluster (fun cl ->
      let c = Client.create cl ~id:1 ~sk:"k" in
      for i = 0 to 99 do
        ignore
          (Client.execute c (fun h ->
               Client.put h (Printf.sprintf "sk%d" i) (String.make 50 'x')))
      done;
      Sim.sleep 0.5;
      Alcotest.(check bool) "storage grows" true (Cluster.total_storage_bytes cl > 0);
      Alcotest.(check bool) "blocks created" true (Cluster.total_blocks cl > 0);
      Alcotest.(check int) "100 commits" 100 (Cluster.total_commits cl))

(* --- serial fan-out sites --- *)

let test_prove_inclusion_batches_in_order () =
  let l = ref (mk_ledger ()) in
  for b = 0 to 2 do
    l :=
      Ledger.append_block !l ~time:(float_of_int b)
        ~writes:
          (List.init 50 (fun i ->
               w (Printf.sprintf "b%d-k%02d" b i) (Printf.sprintf "v%d" i)
                 (Printf.sprintf "t%d" b)))
        ~txns:[]
  done;
  let groups =
    [ (2, [ "b2-k03"; "b2-k40"; "missing" ]);
      (0, [ "b0-k00" ]);
      (2, [ "b2-k49"; "b2-k03" ]) ]
  in
  let enc bp =
    Glassdb_util.Codec.to_string Ledger.encode_batch_proof bp
  in
  let batched = Ledger.prove_inclusion_batches !l groups in
  Alcotest.(check (list string)) "one proof per group, in input order"
    (List.map
       (fun (block, keys) -> enc (Ledger.prove_inclusion_batch !l keys ~block))
       groups)
    (List.map enc batched);
  let digest = Ledger.digest !l in
  List.iter2
    (fun (block, _) bp ->
      Alcotest.(check int) "block" block bp.Ledger.bp_block;
      Alcotest.(check bool) "verifies" true
        (Ledger.verify_inclusion_batch ~digest bp))
    groups batched;
  Alcotest.(check int) "no groups, no proofs" 0
    (List.length (Ledger.prove_inclusion_batches !l []));
  Alcotest.check_raises "unknown block"
    (Invalid_argument "Ledger.prove_inclusion_batch: no such block")
    (fun () -> ignore (Ledger.prove_inclusion_batches !l [ (0, [ "x" ]); (9, [ "x" ]) ]))

let commit_backlog cluster ~txns =
  Array.iteri
    (fun shard nd ->
      for seq = 0 to txns - 1 do
        let tid = Kv.txn_id ~client:shard ~seq in
        let rw =
          { Kv.reads = [];
            writes = [ (Printf.sprintf "s%d-k%d" shard seq, string_of_int seq) ] }
        in
        let stxn = Kv.sign ~sk:"persist-all" ~tid ~client:shard rw in
        (match Node.prepare nd ~rw stxn with
         | Txnkit.Occ.Ok -> ()
         | Txnkit.Occ.Conflict m -> Alcotest.failf "unexpected conflict: %s" m);
        ignore (Node.commit nd tid)
      done)
    (Cluster.nodes cluster)

let block_nos cluster =
  Array.to_list
    (Array.map (fun nd -> (Node.digest nd).Ledger.block_no) (Cluster.nodes cluster))

let test_persist_all_drains_live_shards () =
  (* persist_all is a fold over the shards: it drains every live shard,
     skips a crashed one, and returns the total number of blocks built. *)
  let cluster = Cluster.create (Glassdb.Config.make ~shards:3 ()) in
  commit_backlog cluster ~txns:5;
  let before = block_nos cluster in
  Cluster.crash_node cluster 1;
  let built = Cluster.persist_all cluster ~now:1.0 in
  let after = block_nos cluster in
  let grew = List.map2 (fun a b -> b - a) before after in
  Alcotest.(check int) "returns the blocks built" built
    (List.fold_left ( + ) 0 grew);
  Alcotest.(check bool) "live shards persisted" true
    (List.nth grew 0 > 0 && List.nth grew 2 > 0);
  Alcotest.(check int) "crashed shard untouched" 0 (List.nth grew 1);
  Alcotest.(check int) "nothing left to drain" 0
    (Cluster.persist_all cluster ~now:2.0);
  (* After recovery the WAL re-queues the crashed shard's commits. *)
  Cluster.recover_node cluster 1;
  Alcotest.(check bool) "recovered shard drains its backlog" true
    (Cluster.persist_all cluster ~now:3.0 > 0);
  Alcotest.(check bool) "shard 1 persisted" true
    (List.nth (block_nos cluster) 1 > List.nth after 1)

let () =
  Alcotest.run "glassdb"
    [ ("ledger",
       [ Alcotest.test_case "append and get" `Quick test_ledger_append_get;
         Alcotest.test_case "history walk" `Quick test_ledger_history;
         Alcotest.test_case "duplicate key rejected" `Quick test_ledger_duplicate_key_in_block_rejected;
         Alcotest.test_case "inclusion + current proofs" `Quick test_ledger_inclusion_and_current_proofs;
         Alcotest.test_case "64-key batch proof beats 64 singles" `Quick test_ledger_batch_proof_acceptance;
         Alcotest.test_case "snapshot retention + rebuild" `Quick test_ledger_snapshot_retention;
         Alcotest.test_case "append-only proofs" `Quick test_ledger_append_only_proofs;
         Alcotest.test_case "fork detection" `Quick test_ledger_append_only_detects_fork ]);
      ("layered",
       [ Alcotest.test_case "10-seed pinned fingerprints" `Quick
           test_pinned_fingerprints;
         Alcotest.test_case "base mismatch rejected" `Quick
           test_staged_base_mismatch_rejected;
         Alcotest.test_case "proof codecs match legacy" `Quick
           test_proof_codecs_match_legacy ]);
      ("transactions",
       [ Alcotest.test_case "commit and read" `Quick test_txn_commit_and_read;
         Alcotest.test_case "cross-shard atomicity" `Quick test_txn_cross_shard_atomicity;
         Alcotest.test_case "conflicting increments" `Quick test_txn_conflict_aborts ]);
      ("verification",
       [ Alcotest.test_case "deferred roundtrip" `Quick test_deferred_verification_roundtrip;
         Alcotest.test_case "verified get latest/at" `Quick test_verified_get_latest_and_at;
         Alcotest.test_case "sync-persist mode" `Quick test_sync_persist_mode ]);
      ("auditing",
       [ Alcotest.test_case "honest server passes" `Quick test_auditor_accepts_honest_server;
         Alcotest.test_case "unauthorized txn detected" `Quick test_auditor_detects_unauthorized_txn ]);
      ("failures",
       [ Alcotest.test_case "crash, abort, recover" `Quick test_crash_aborts_then_recovery_preserves_data;
         Alcotest.test_case "replay at every truncation point" `Quick
           test_wal_replay_every_truncation_point;
         Alcotest.test_case "replay skips torn record" `Quick
           test_wal_replay_skips_torn_record;
         Alcotest.test_case "replay idempotent" `Quick test_wal_replay_idempotent;
         Alcotest.test_case "mid-2PC crash releases locks" `Quick
           test_mid_2pc_crash_releases_prepare_locks;
         Alcotest.test_case "partition heals, retries succeed" `Quick
           test_partition_heals_and_retries_succeed ]);
      ("accounting",
       [ Alcotest.test_case "storage and commits" `Quick test_storage_accounting ]);
      ("serial",
       [ Alcotest.test_case "batched proofs in group order" `Quick
           test_prove_inclusion_batches_in_order;
         Alcotest.test_case "persist_all drains live shards" `Quick
           test_persist_all_drains_live_shards ]) ]

(* Tests for the POS-tree: lookup correctness, proofs, and the structural
   invariance / copy-on-write sharing properties that GlassDB's design
   depends on. *)

open Glassdb_util
open Postree

let mk ?(pattern_bits = 4) () =
  let store = Storage.Node_store.create () in
  (store, Pos_tree.config ~pattern_bits store)

let kvs_of n = List.init n (fun i -> (Printf.sprintf "key-%05d" i, Printf.sprintf "val-%d" i))

(* --- chunker --- *)

let test_chunker_deterministic () =
  let items =
    List.init 200 (fun i ->
        Chunker.item ~key:(Printf.sprintf "k%d" i) ~payload:"v")
  in
  let a = Chunker.chunk_seq ~pattern_bits:4 items in
  let b = Chunker.chunk_seq ~pattern_bits:4 items in
  Alcotest.(check bool) "same chunking" true (a = b);
  let total = List.fold_left (fun acc c -> acc + Array.length c) 0 a in
  Alcotest.(check int) "no items lost" 200 total;
  (* All chunks except possibly the last end at a boundary. *)
  let rec check = function
    | [] | [ _ ] -> ()
    | c :: rest ->
      if not (Chunker.is_boundary ~pattern_bits:4 c.(Array.length c - 1)) then
        Alcotest.fail "interior chunk does not end at boundary";
      check rest
  in
  check a

let test_chunker_boundary_depends_on_content () =
  let item = Chunker.item ~key:"some-key" ~payload:"some-value" in
  let b1 = Chunker.is_boundary ~pattern_bits:4 item in
  let b2 =
    Chunker.is_boundary ~pattern_bits:4
      (Chunker.item ~key:"some-key" ~payload:"other")
  in
  (* Not strictly guaranteed to differ for any single pair, but this
     specific pair does; the test pins the fingerprint behaviour. *)
  ignore b2;
  Alcotest.(check bool) "deterministic" b1
    (Chunker.is_boundary ~pattern_bits:4 item)

(* --- basic map behaviour --- *)

let test_empty_tree () =
  let _, cfg = mk () in
  let t = Pos_tree.empty cfg in
  Alcotest.(check bool) "is_empty" true (Pos_tree.is_empty t);
  Alcotest.(check int) "cardinal" 0 (Pos_tree.cardinal t);
  Alcotest.(check bool) "root is empty hash" true
    (Hash.equal (Pos_tree.root_hash t) Hash.empty);
  Alcotest.(check (option string)) "get" None (Pos_tree.get t "k");
  Alcotest.(check bool) "absence proof on empty" true
    (Pos_tree.verify ~root:Hash.empty ~key:"k" ~value:None (Pos_tree.prove t "k"))

let test_get_after_inserts () =
  let _, cfg = mk () in
  let kvs = kvs_of 1000 in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) kvs in
  Alcotest.(check int) "cardinal" 1000 (Pos_tree.cardinal t);
  List.iter
    (fun (k, v) ->
      if Pos_tree.get t k <> Some v then Alcotest.failf "missing %s" k)
    kvs;
  Alcotest.(check (option string)) "absent key" None (Pos_tree.get t "zzz");
  Alcotest.(check (option string)) "absent key low" None (Pos_tree.get t "aaa");
  Alcotest.(check bool) "multi-level" true (Pos_tree.height t >= 2);
  Alcotest.(check (list (pair string string))) "bindings sorted" kvs
    (Pos_tree.bindings t)

let test_overwrite () =
  let _, cfg = mk () in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) (kvs_of 100) in
  let t2 = Pos_tree.insert_batch t [ ("key-00050", "NEW") ] in
  Alcotest.(check (option string)) "new value" (Some "NEW") (Pos_tree.get t2 "key-00050");
  Alcotest.(check (option string)) "old snapshot intact" (Some "val-50")
    (Pos_tree.get t "key-00050");
  Alcotest.(check int) "cardinal unchanged" 100 (Pos_tree.cardinal t2);
  Alcotest.(check bool) "root changed" false
    (Hash.equal (Pos_tree.root_hash t) (Pos_tree.root_hash t2))

let test_batch_last_write_wins () =
  let _, cfg = mk () in
  let t =
    Pos_tree.insert_batch (Pos_tree.empty cfg) [ ("k", "first"); ("k", "second") ]
  in
  Alcotest.(check (option string)) "last wins" (Some "second") (Pos_tree.get t "k");
  Alcotest.(check int) "single key" 1 (Pos_tree.cardinal t)

(* --- structural invariance (the SIRI property) --- *)

let test_structural_invariance_incremental_vs_scratch () =
  let kvs = kvs_of 2000 in
  (* Build in one shot. *)
  let _, cfg1 = mk () in
  let t1 = Pos_tree.insert_batch (Pos_tree.empty cfg1) kvs in
  (* Build in many unevenly-sized batches in a shuffled order. *)
  let rng = Rng.create 5 in
  let arr = Array.of_list kvs in
  Rng.shuffle rng arr;
  let _, cfg2 = mk () in
  let t2 = ref (Pos_tree.empty cfg2) in
  let i = ref 0 in
  while !i < Array.length arr do
    let n = 1 + Rng.int_below rng 97 in
    let batch = Array.to_list (Array.sub arr !i (min n (Array.length arr - !i))) in
    t2 := Pos_tree.insert_batch !t2 batch;
    i := !i + n
  done;
  Alcotest.(check bool) "same root regardless of history" true
    (Hash.equal (Pos_tree.root_hash t1) (Pos_tree.root_hash !t2));
  Alcotest.(check int) "same node count" (Pos_tree.stats_nodes t1)
    (Pos_tree.stats_nodes !t2)

let prop_invariance =
  QCheck.Test.make ~name:"root independent of insertion history" ~count:30
    QCheck.(pair small_int (int_range 1 300))
    (fun (seed, n) ->
      let kvs = List.init n (fun i -> (Printf.sprintf "k%04d" i, Printf.sprintf "v%d" i)) in
      let _, cfg1 = mk () in
      let t1 = Pos_tree.insert_batch (Pos_tree.empty cfg1) kvs in
      let rng = Rng.create seed in
      let arr = Array.of_list kvs in
      Rng.shuffle rng arr;
      let _, cfg2 = mk () in
      let t2 = ref (Pos_tree.empty cfg2) in
      Array.iter (fun kv -> t2 := Pos_tree.insert_batch !t2 [ kv ]) arr;
      Hash.equal (Pos_tree.root_hash t1) (Pos_tree.root_hash !t2))

let prop_model =
  QCheck.Test.make ~name:"pos_tree agrees with map model" ~count:60
    QCheck.(list (pair (string_of_size (Gen.int_range 1 6)) small_string))
    (fun kvs ->
      let _, cfg = mk () in
      let t = Pos_tree.insert_batch (Pos_tree.empty cfg) kvs in
      let module M = Map.Make (String) in
      let m = List.fold_left (fun m (k, v) -> M.add k v m) M.empty kvs in
      M.for_all (fun k v -> Pos_tree.get t k = Some v) m
      && Pos_tree.cardinal t = M.cardinal m
      && Pos_tree.bindings t = M.bindings m)

(* --- copy-on-write sharing --- *)

let test_snapshots_share_nodes () =
  let store, cfg = mk () in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) (kvs_of 5000) in
  let bytes_before = Storage.Node_store.total_bytes store in
  let _t2 = Pos_tree.insert_batch t [ ("key-02500", "updated") ] in
  let delta = Storage.Node_store.total_bytes store - bytes_before in
  (* A single-key update must write only the root-to-leaf path, a small
     fraction of the ~5000-entry tree. *)
  Alcotest.(check bool) "delta is a path, not a tree" true
    (delta > 0 && delta < bytes_before / 10)

let test_identical_content_dedups_fully () =
  let store, cfg = mk () in
  let t1 = Pos_tree.insert_batch (Pos_tree.empty cfg) (kvs_of 500) in
  let bytes1 = Storage.Node_store.total_bytes store in
  (* Rebuild the identical tree in the same store: everything dedups. *)
  let t2 = Pos_tree.insert_batch (Pos_tree.empty cfg) (kvs_of 500) in
  Alcotest.(check int) "no new bytes" bytes1 (Storage.Node_store.total_bytes store);
  Alcotest.(check bool) "same root" true
    (Hash.equal (Pos_tree.root_hash t1) (Pos_tree.root_hash t2))

(* --- proofs --- *)

let test_proofs_presence_absence () =
  let _, cfg = mk () in
  let kvs = kvs_of 800 in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) kvs in
  let root = Pos_tree.root_hash t in
  List.iteri
    (fun i (k, v) ->
      if i mod 37 = 0 then begin
        let p = Pos_tree.prove t k in
        if not (Pos_tree.verify ~root ~key:k ~value:(Some v) p) then
          Alcotest.failf "presence proof failed for %s" k;
        if Pos_tree.verify ~root ~key:k ~value:(Some "tampered") p then
          Alcotest.failf "tampered value accepted for %s" k;
        if Pos_tree.verify ~root ~key:k ~value:None p then
          Alcotest.failf "absence accepted for present %s" k;
        if Pos_tree.verify ~root:(Hash.of_string "bogus") ~key:k ~value:(Some v) p
        then Alcotest.failf "wrong root accepted for %s" k
      end)
    kvs;
  List.iter
    (fun k ->
      let p = Pos_tree.prove t k in
      if not (Pos_tree.verify ~root ~key:k ~value:None p) then
        Alcotest.failf "absence proof failed for %s" k)
    [ "absent"; "key-99999"; "a"; "key-00500x" ]

let test_proof_stale_snapshot_rejected_on_new_root () =
  let _, cfg = mk () in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) (kvs_of 50) in
  let t2 = Pos_tree.insert_batch t [ ("key-00010", "new") ] in
  let stale = Pos_tree.prove t "key-00010" in
  Alcotest.(check bool) "stale proof fails on new root" false
    (Pos_tree.verify ~root:(Pos_tree.root_hash t2) ~key:"key-00010"
       ~value:(Some "val-10") stale)

let test_proof_codec_roundtrip () =
  let _, cfg = mk () in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) (kvs_of 300) in
  let p = Pos_tree.prove t "key-00123" in
  let s = Codec.to_string Pos_tree.encode_proof p in
  let p' = Codec.of_string Pos_tree.decode_proof s in
  Alcotest.(check bool) "roundtrip verifies" true
    (Pos_tree.verify ~root:(Pos_tree.root_hash t) ~key:"key-00123"
       ~value:(Some "val-123") p');
  Alcotest.(check bool) "size positive" true (Pos_tree.proof_size_bytes p > 0)

let test_proof_codecs_match_legacy () =
  (* The first-class codec record and the legacy function triple must
     agree byte-for-byte (the triple is the record's fields, but pin the
     equivalence against regressions), for point, batch and range proofs
     alike: all three are one proof type. *)
  let _, cfg = mk () in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) (kvs_of 300) in
  let p = Pos_tree.prove t "key-00042" in
  Alcotest.(check string) "proof encode = wrapper"
    (Codec.to_string Pos_tree.encode_proof p)
    (Codec.encode_to_string Pos_tree.proof_codec p);
  Alcotest.(check int) "proof size = wrapper"
    (Pos_tree.proof_size_bytes p)
    (Pos_tree.proof_codec.Codec.size_bytes p);
  let mp, _ = Pos_tree.prove_batch t [ "key-00001"; "key-00200"; "absent" ] in
  Alcotest.(check string) "batch encode = wrapper"
    (Codec.to_string Pos_tree.encode_proof mp)
    (Codec.encode_to_string Pos_tree.proof_codec mp);
  Alcotest.(check int) "batch size = wrapper"
    (Pos_tree.proof_size_bytes mp)
    (Pos_tree.proof_codec.Codec.size_bytes mp);
  let rp = Pos_tree.prove_range t ~lo:"key-00100" ~hi:"key-00150" in
  Alcotest.(check string) "range encode = wrapper"
    (Codec.to_string Pos_tree.encode_proof rp)
    (Codec.encode_to_string Pos_tree.proof_codec rp);
  Alcotest.(check int) "range size = wrapper"
    (Pos_tree.proof_size_bytes rp)
    (Pos_tree.proof_codec.Codec.size_bytes rp);
  (* A one-key batch is the point proof, byte for byte. *)
  Alcotest.(check string) "one-key batch = point proof"
    (Codec.to_string Pos_tree.encode_proof p)
    (Codec.to_string Pos_tree.encode_proof
       (fst (Pos_tree.prove_batch t [ "key-00042" ])));
  (* decode field roundtrips through the record too *)
  let bytes = Codec.encode_to_string Pos_tree.proof_codec p in
  Alcotest.(check string) "proof decode roundtrips" bytes
    (Codec.encode_to_string Pos_tree.proof_codec
       (Codec.decode_of_string Pos_tree.proof_codec bytes))

let proof_of_strings l =
  (* Forge a proof through the public codec, as a malicious server would. *)
  Codec.of_string Pos_tree.decode_proof
    (Codec.to_string (fun b -> Codec.write_list b Codec.write_string) l)

let strings_of_proof p =
  Codec.of_string
    (fun r -> Codec.read_list r Codec.read_string)
    (Codec.to_string Pos_tree.encode_proof p)

let test_proof_garbage_rejected () =
  let _, cfg = mk () in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) (kvs_of 100) in
  let root = Pos_tree.root_hash t in
  Alcotest.(check bool) "garbage chunk" false
    (Pos_tree.verify ~root ~key:"key-00001" ~value:(Some "val-1")
       (proof_of_strings [ "not a chunk" ]));
  Alcotest.(check bool) "empty proof vs non-empty tree" false
    (Pos_tree.verify ~root ~key:"key-00001" ~value:(Some "val-1")
       (proof_of_strings []))

let test_proof_size_scales_logarithmically () =
  let _, cfg = mk ~pattern_bits:4 () in
  let small = Pos_tree.insert_batch (Pos_tree.empty cfg) (kvs_of 100) in
  let _, cfg2 = mk ~pattern_bits:4 () in
  let large = Pos_tree.insert_batch (Pos_tree.empty cfg2) (kvs_of 10_000) in
  let ps = Pos_tree.proof_size_bytes (Pos_tree.prove small "key-00050") in
  let pl = Pos_tree.proof_size_bytes (Pos_tree.prove large "key-00050") in
  (* 100x more keys should cost far less than 100x proof bytes. *)
  Alcotest.(check bool) "sub-linear growth" true (pl < 20 * ps)

let prop_proofs_verify =
  QCheck.Test.make ~name:"proofs verify for random maps" ~count:30
    QCheck.(list_of_size (Gen.int_range 1 80)
              (pair (string_of_size (Gen.int_range 1 8)) small_string))
    (fun kvs ->
      let _, cfg = mk () in
      let t = Pos_tree.insert_batch (Pos_tree.empty cfg) kvs in
      let root = Pos_tree.root_hash t in
      let module M = Map.Make (String) in
      let m = List.fold_left (fun m (k, v) -> M.add k v m) M.empty kvs in
      M.for_all
        (fun k v -> Pos_tree.verify ~root ~key:k ~value:(Some v) (Pos_tree.prove t k))
        m)

(* --- batched multiproofs --- *)

let test_multiproof_roundtrip () =
  let _, cfg = mk () in
  let kvs = kvs_of 600 in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) kvs in
  let root = Pos_tree.root_hash t in
  let keys =
    List.init 40 (fun i -> Printf.sprintf "key-%05d" (i * 13))
    @ [ "absent-key"; "zzz" ]
  in
  let mp, items = Pos_tree.prove_batch t keys in
  Alcotest.(check int) "one item per distinct key"
    (List.length (List.sort_uniq compare keys))
    (List.length items);
  List.iter
    (fun (k, v) ->
      Alcotest.(check (option string)) k (List.assoc_opt k kvs) v)
    items;
  Alcotest.(check bool) "verifies" true (Pos_tree.verify_batch ~root ~items mp);
  let mp' =
    Codec.of_string Pos_tree.decode_proof
      (Codec.to_string Pos_tree.encode_proof mp)
  in
  Alcotest.(check bool) "verifies after codec roundtrip" true
    (Pos_tree.verify_batch ~root ~items mp');
  Alcotest.(check bool) "size positive" true
    (Pos_tree.proof_size_bytes mp > 0)

let test_multiproof_adversarial () =
  let _, cfg = mk () in
  let kvs = kvs_of 400 in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) kvs in
  let root = Pos_tree.root_hash t in
  let keys = [ "key-00007"; "key-00123"; "key-00321"; "nope" ] in
  let mp, items = Pos_tree.prove_batch t keys in
  Alcotest.(check bool) "honest proof verifies" true
    (Pos_tree.verify_batch ~root ~items mp);
  (* Tampered value claim. *)
  let tamper k v' =
    List.map (fun (k', v) -> if k' = k then (k', v') else (k', v)) items
  in
  Alcotest.(check bool) "tampered value rejected" false
    (Pos_tree.verify_batch ~root ~items:(tamper "key-00123" (Some "evil")) mp);
  Alcotest.(check bool) "fake absence rejected" false
    (Pos_tree.verify_batch ~root ~items:(tamper "key-00007" None) mp);
  Alcotest.(check bool) "fake presence rejected" false
    (Pos_tree.verify_batch ~root ~items:(tamper "nope" (Some "ghost")) mp);
  (* Dropped chunk: removing any chunk breaks the hash chain for the keys
     routed through it. *)
  let chunks = strings_of_proof mp in
  let dropped_last =
    proof_of_strings (List.filteri (fun i _ -> i < List.length chunks - 1) chunks)
  in
  Alcotest.(check bool) "dropped chunk rejected" false
    (Pos_tree.verify_batch ~root ~items dropped_last);
  (* Tampered sibling: flip a byte inside one serialized chunk. *)
  let corrupt s =
    let b = Bytes.of_string s in
    Bytes.set b (Bytes.length b / 2)
      (Char.chr (Char.code (Bytes.get b (Bytes.length b / 2)) lxor 1));
    Bytes.to_string b
  in
  let tampered_chunk =
    proof_of_strings
      (List.mapi (fun i s -> if i = List.length chunks - 1 then corrupt s else s) chunks)
  in
  Alcotest.(check bool) "tampered chunk rejected" false
    (Pos_tree.verify_batch ~root ~items tampered_chunk);
  (* Wrong root. *)
  Alcotest.(check bool) "wrong root rejected" false
    (Pos_tree.verify_batch ~root:(Hash.of_string "bogus") ~items mp);
  (* Empty-tree conventions. *)
  let t0 = Pos_tree.empty cfg in
  let mp0, items0 = Pos_tree.prove_batch t0 [ "a"; "b" ] in
  Alcotest.(check bool) "empty tree: absences verify" true
    (Pos_tree.verify_batch ~root:Hash.empty ~items:items0 mp0);
  Alcotest.(check bool) "empty proof vs non-empty tree rejected" false
    (Pos_tree.verify_batch ~root ~items (proof_of_strings []))

(* Every proof kind is one walk, and the verifier replays it over the
   shipped list: besides a dropped chunk, a chunk the walk never reaches,
   a duplicated chunk and two swapped chunks must all fail, wherever in
   the list they sit. *)
let test_tampered_chunk_lists () =
  let _, cfg = mk () in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) (kvs_of 600) in
  let root = Pos_tree.root_hash t in
  let batch_keys = [ "key-00007"; "key-00123"; "key-00321"; "nope" ] in
  let lo = "key-00100" and hi = "key-00200" in
  let _, items = Pos_tree.prove_batch t batch_keys in
  let kinds =
    [ ( "point",
        Pos_tree.prove t "key-00010",
        Pos_tree.verify ~root ~key:"key-00010" ~value:(Some "val-10") );
      ( "batch",
        fst (Pos_tree.prove_batch t batch_keys),
        Pos_tree.verify_batch ~root ~items );
      ( "range",
        Pos_tree.prove_range t ~lo ~hi,
        fun p ->
          Pos_tree.extract_range ~root ~lo ~hi p
          = Some (Pos_tree.bindings_range t ~lo ~hi) ) ]
  in
  List.iter
    (fun (kind, proof, accepts) ->
      let chunks = Array.of_list (strings_of_proof proof) in
      let n = Array.length chunks in
      if n < 2 then Alcotest.failf "%s: proof too short to tamper with" kind;
      Alcotest.(check bool) (kind ^ ": honest proof accepted") true
        (accepts proof);
      (* A genuine chunk of the same tree that this walk never visits. *)
      let foreign =
        List.find
          (fun c -> not (Array.mem c chunks))
          (List.concat_map
             (fun k -> strings_of_proof (Pos_tree.prove t k))
             [ "key-00450"; "key-00050"; "key-00599" ])
      in
      let rejects what l =
        if accepts (proof_of_strings l) then
          Alcotest.failf "%s: %s accepted" kind what
      in
      let listi f = List.concat (List.init n f) in
      for i = 0 to n - 1 do
        rejects
          (Printf.sprintf "dropped chunk %d" i)
          (List.filteri (fun j _ -> j <> i) (Array.to_list chunks));
        rejects
          (Printf.sprintf "duplicated chunk %d" i)
          (listi (fun j -> if j = i then [ chunks.(j); chunks.(j) ] else [ chunks.(j) ]));
        if i + 1 < n then
          rejects
            (Printf.sprintf "swapped chunks %d and %d" i (i + 1))
            (listi (fun j ->
                 [ (if j = i then chunks.(i + 1)
                    else if j = i + 1 then chunks.(i)
                    else chunks.(j)) ]))
      done;
      for i = 0 to n do
        rejects
          (Printf.sprintf "unreached chunk at %d" i)
          (List.concat
             (List.init (n + 1) (fun j ->
                  (if j = i then [ foreign ] else [])
                  @ if j < n then [ chunks.(j) ] else [])))
      done)
    kinds

let test_multiproof_cheaper_than_independent () =
  let _, cfg = mk () in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) (kvs_of 2000) in
  let root = Pos_tree.root_hash t in
  let keys = List.init 64 (fun i -> Printf.sprintf "key-%05d" (i * 31)) in
  (* Prove: one walk, each shared chunk charged once. *)
  let (mp, items), cb = Work.measure (fun () -> Pos_tree.prove_batch t keys) in
  let proofs, ci =
    Work.measure (fun () -> List.map (fun k -> Pos_tree.prove t k) keys)
  in
  Alcotest.(check bool) "batched walk reads fewer pages" true
    (cb.Work.page_reads < ci.Work.page_reads);
  (* Verify: each distinct chunk hashed once vs once per proof. *)
  let ok_b, vb =
    Work.measure (fun () -> Pos_tree.verify_batch ~root ~items mp)
  in
  let ok_i, vi =
    Work.measure (fun () ->
        List.for_all2
          (fun k p ->
            Pos_tree.verify ~root ~key:k ~value:(Pos_tree.get t k) p)
          keys proofs)
  in
  Alcotest.(check bool) "both verify" true (ok_b && ok_i);
  Alcotest.(check bool) "batched verify hashes less" true
    (vb.Work.hashes < vi.Work.hashes);
  (* Bytes: the deduplicated chunk set is strictly smaller on the wire. *)
  let independent_bytes =
    List.fold_left (fun a p -> a + Pos_tree.proof_size_bytes p) 0 proofs
  in
  Alcotest.(check bool) "batched proof strictly smaller" true
    (Pos_tree.proof_size_bytes mp < independent_bytes)

let prop_multiproof_model =
  QCheck.Test.make ~name:"multiproofs verify for random maps and key sets"
    ~count:40
    QCheck.(pair
              (list_of_size (Gen.int_range 1 100)
                 (pair (string_of_size (Gen.int_range 1 6)) small_string))
              (list_of_size (Gen.int_range 1 20)
                 (string_of_size (Gen.int_range 1 6))))
    (fun (kvs, keys) ->
      let _, cfg = mk () in
      let t = Pos_tree.insert_batch (Pos_tree.empty cfg) kvs in
      let root = Pos_tree.root_hash t in
      let mp, items = Pos_tree.prove_batch t keys in
      let module M = Map.Make (String) in
      let m = List.fold_left (fun m (k, v) -> M.add k v m) M.empty kvs in
      Pos_tree.verify_batch ~root ~items mp
      && List.for_all (fun (k, v) -> M.find_opt k m = v) items
      && List.length items = List.length (List.sort_uniq compare keys))

(* --- incremental update = fresh build, and write amplification --- *)

let prop_update_equals_fresh_build =
  QCheck.Test.make
    ~name:"incremental update root = fresh build on merged set" ~count:40
    QCheck.(pair
              (list (pair (string_of_size (Gen.int_range 1 5)) small_string))
              (list (pair (string_of_size (Gen.int_range 1 5)) small_string)))
    (fun (base, upd) ->
      let _, cfg = mk () in
      let t = Pos_tree.insert_batch (Pos_tree.empty cfg) base in
      let t2 = Pos_tree.insert_batch t upd in
      let module M = Map.Make (String) in
      let m =
        List.fold_left (fun m (k, v) -> M.add k v m) M.empty (base @ upd)
      in
      let _, cfg2 = mk () in
      let fresh = Pos_tree.insert_batch (Pos_tree.empty cfg2) (M.bindings m) in
      Hash.equal (Pos_tree.root_hash t2) (Pos_tree.root_hash fresh)
      && Pos_tree.cardinal t2 = M.cardinal m)

let test_large_update_writes_only_changed_paths () =
  let _, cfg = mk ~pattern_bits:5 () in
  let base =
    List.init 100_000 (fun i -> (Printf.sprintf "key-%06d" i, Printf.sprintf "v%d" i))
  in
  let t, cbuild =
    Work.measure (fun () -> Pos_tree.insert_batch (Pos_tree.empty cfg) base)
  in
  let updates =
    List.init 100 (fun i -> (Printf.sprintf "key-%06d" (i * 997), "updated"))
  in
  let t2, cupd = Work.measure (fun () -> Pos_tree.insert_batch t updates) in
  (* 100 touched keys re-serialize only their leaf chunks plus ancestor
     paths — a tiny fraction of the ~3k-chunk tree the build wrote. *)
  Alcotest.(check bool) "update writes some nodes" true (cupd.Work.node_writes > 0);
  Alcotest.(check bool)
    (Printf.sprintf "O(changed-path) writes: %d update vs %d build"
       cupd.Work.node_writes cbuild.Work.node_writes)
    true
    (cupd.Work.node_writes * 10 < cbuild.Work.node_writes);
  Alcotest.(check (option string)) "update applied" (Some "updated")
    (Pos_tree.get t2 "key-000000")

(* --- snapshot reload --- *)

let test_load_reconstructs_snapshot () =
  let store, cfg = mk () in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) (kvs_of 800) in
  let root = Pos_tree.root_hash t in
  match Pos_tree.load cfg root with
  | None -> Alcotest.fail "load failed"
  | Some t' ->
    Alcotest.(check bool) "same root" true (Hash.equal root (Pos_tree.root_hash t'));
    Alcotest.(check int) "same cardinal" (Pos_tree.cardinal t) (Pos_tree.cardinal t');
    Alcotest.(check (option string)) "lookup works" (Some "val-123")
      (Pos_tree.get t' "key-00123");
    Alcotest.(check bool) "unknown root" true
      (Pos_tree.load cfg (Hash.of_string "nope") = None);
    ignore store

(* --- verifiable range queries --- *)

(* [bindings] is exactly what the proof certifies for [lo, hi). *)
let verify_range ~root ~lo ~hi ~bindings proof =
  Pos_tree.extract_range ~root ~lo ~hi proof = Some bindings

let test_range_queries () =
  let _, cfg = mk () in
  let kvs = kvs_of 500 in
  let t = Pos_tree.insert_batch (Pos_tree.empty cfg) kvs in
  let root = Pos_tree.root_hash t in
  let check lo hi =
    let bindings = Pos_tree.bindings_range t ~lo ~hi in
    let expected =
      List.filter (fun (k, _) -> lo <= k && k < hi) kvs
    in
    Alcotest.(check int)
      (Printf.sprintf "range [%s,%s) size" lo hi)
      (List.length expected) (List.length bindings);
    let proof = Pos_tree.prove_range t ~lo ~hi in
    if not (verify_range ~root ~lo ~hi ~bindings proof) then
      Alcotest.failf "range proof failed for [%s,%s)" lo hi;
    (* Omitting an entry (incompleteness) must be rejected. *)
    (match bindings with
     | _ :: rest ->
       if verify_range ~root ~lo ~hi ~bindings:rest proof then
         Alcotest.failf "omitted entry accepted for [%s,%s)" lo hi
     | [] -> ());
    (* Injecting an entry must be rejected. *)
    if
      verify_range ~root ~lo ~hi
        ~bindings:(bindings @ [ (hi ^ "!", "fake") ])
        proof
    then Alcotest.failf "injected entry accepted for [%s,%s)" lo hi
  in
  check "key-00100" "key-00150";
  check "key-00000" "key-00001";
  check "a" "z";
  check "key-00490" "key-09999";
  check "a" "b" (* empty range below all keys *);
  check "z" "zz" (* empty range above all keys *)

let prop_range_model =
  QCheck.Test.make ~name:"range proofs match model on random maps" ~count:30
    QCheck.(triple
              (list_of_size (Gen.int_range 1 120)
                 (pair (string_of_size (Gen.int_range 1 4)) small_string))
              (string_of_size (Gen.int_range 0 4))
              (string_of_size (Gen.int_range 0 4)))
    (fun (kvs, a, b) ->
      let lo = min a b and hi = max a b in
      let _, cfg = mk () in
      let t = Pos_tree.insert_batch (Pos_tree.empty cfg) kvs in
      let root = Pos_tree.root_hash t in
      let module M = Map.Make (String) in
      let m = List.fold_left (fun m (k, v) -> M.add k v m) M.empty kvs in
      let expected =
        M.bindings m |> List.filter (fun (k, _) -> lo <= k && k < hi)
      in
      let bindings = Pos_tree.bindings_range t ~lo ~hi in
      bindings = expected
      && verify_range ~root ~lo ~hi ~bindings
           (Pos_tree.prove_range t ~lo ~hi))

(* --- pinned fingerprints ---

   Build, update and batch proving must keep producing the same roots,
   encoded proof bytes and node store counters.  Ten seeded random
   workloads are fingerprinted, and the SHA-256 of each fingerprint must
   equal the constant captured when the library still ran POS-tree
   hashing through a domain pool (where it was checked byte-identical at
   pool sizes 1, 2, 4 and 8). *)

let fingerprint ~seed =
  let rng = Rng.create seed in
  let random_kvs n =
    List.init n (fun _ ->
        (Rng.alphanum rng (1 + Rng.int_below rng 8), Rng.alphanum rng 6))
  in
  let base = random_kvs (200 + Rng.int_below rng 600) in
  let upd = random_kvs (50 + Rng.int_below rng 200) in
  let keys =
    List.init (1 + Rng.int_below rng 30) (fun _ ->
        Rng.alphanum rng (1 + Rng.int_below rng 8))
  in
  let store, cfg = mk () in
  let t1 = Pos_tree.insert_batch (Pos_tree.empty cfg) base in
  let t2 = Pos_tree.insert_batch t1 upd in
  let mp, items = Pos_tree.prove_batch t2 keys in
  let buf = Buffer.create 4096 in
  Pos_tree.encode_proof buf mp;
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf k;
      Buffer.add_string buf (Option.value ~default:"<absent>" v))
    items;
  Printf.sprintf "%s|%s|%s|%d|%d|%d|%d"
    (Hex.encode (Pos_tree.root_hash t1))
    (Hex.encode (Pos_tree.root_hash t2))
    (Hex.encode (Buffer.contents buf))
    (Storage.Node_store.node_count store)
    (Storage.Node_store.total_bytes store)
    (Storage.Node_store.cache_hits store)
    (Storage.Node_store.cache_misses store)

let pinned_fingerprints =
  [| "3890f2d3aadaf9bd69e34e41826a1961519d9537cb2fd290c03ee26ae5a49f38";
     "b38ec3bef8dc97d77ff9a4e99fbe3c1e8119c9a0acea82d6f971534a9c7bdbc6";
     "bd8bb6366867846999585d92dc1916592f6017804633b7c3b4603bf199aadbc2";
     "9037027671f25282d46c9bf8c7362ce7632f2aeb615d0deb6187e3470d14118e";
     "58975dadbf82b7ff27e73dd678570b24dd773fd693ce8c25e96a6f59f30300c3";
     "bf0f56b24ab8501c46050a371ef6e471a0c18c307d346ed8b568dbfddcd4bad2";
     "5f693e4ffbaa012fabeed8defdb27e702fe8294e288e1514db5058a44f17419b";
     "1b36ef28547095badda8a2bbc5e0ce3e4111c4d414b8df9424cd5810f0dcb582";
     "a4d5fa7bd496c2b8ae07eb5043a225e85a39a5c57a0ad845b2bc0b465ee17e71";
     "53292cd97193582eaeff554b1259e24a90f83943482ecdc584b86f54f20c8b06" |]

let test_pinned_fingerprints () =
  Array.iteri
    (fun i expected ->
      let seed = i + 1 in
      Alcotest.(check string)
        (Printf.sprintf "seed %d" seed)
        expected
        (Hex.encode (Sha256.digest_string (fingerprint ~seed))))
    pinned_fingerprints

let test_rebuild_same_work () =
  (* Chunks are built serially and hashing never touches the store, so two
     builds of the same batch on fresh stores charge identical work and
     leave identical store and cache statistics — and a later build in the
     same process is not perturbed by an earlier one. *)
  let build () =
    let store = Storage.Node_store.create ~cache_capacity:64 () in
    let cfg = Pos_tree.config store in
    let t, w =
      Work.measure (fun () ->
          let t = Pos_tree.insert_batch (Pos_tree.empty cfg) (kvs_of 2000) in
          Pos_tree.insert_batch t
            (List.init 100 (fun i ->
                 (Printf.sprintf "key-%05d" (i * 17), "updated"))))
    in
    ( Hex.encode (Pos_tree.root_hash t),
      [ w.Work.hashes; w.Work.node_writes; w.Work.bytes_written;
        w.Work.page_reads; w.Work.cache_hits;
        Storage.Node_store.node_count store;
        Storage.Node_store.total_bytes store;
        Storage.Node_store.cache_hits store;
        Storage.Node_store.cache_misses store;
        Storage.Node_store.duplicate_puts store ] )
  in
  let root1, stats1 = build () in
  let root2, stats2 = build () in
  Alcotest.(check string) "same root" root1 root2;
  Alcotest.(check (list int)) "same work and store statistics" stats1 stats2

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "postree"
    [ ("chunker",
       [ Alcotest.test_case "deterministic" `Quick test_chunker_deterministic;
         Alcotest.test_case "content-defined" `Quick test_chunker_boundary_depends_on_content ]);
      ("map",
       [ Alcotest.test_case "empty" `Quick test_empty_tree;
         Alcotest.test_case "1000 inserts" `Quick test_get_after_inserts;
         Alcotest.test_case "overwrite + snapshots" `Quick test_overwrite;
         Alcotest.test_case "batch last-write-wins" `Quick test_batch_last_write_wins ]
       @ qsuite [ prop_model ]);
      ("invariance",
       [ Alcotest.test_case "incremental = from-scratch" `Quick
           test_structural_invariance_incremental_vs_scratch ]
       @ qsuite [ prop_invariance ]);
      ("sharing",
       [ Alcotest.test_case "single update writes a path" `Quick test_snapshots_share_nodes;
         Alcotest.test_case "identical content dedups" `Quick test_identical_content_dedups_fully ]);
      ("multiproof",
       [ Alcotest.test_case "roundtrip" `Quick test_multiproof_roundtrip;
         Alcotest.test_case "adversarial" `Quick test_multiproof_adversarial;
         Alcotest.test_case "cheaper than independent proofs" `Quick
           test_multiproof_cheaper_than_independent ]
       @ qsuite [ prop_multiproof_model ]);
      ("updates",
       [ Alcotest.test_case "100k-key tree, 100 updates, O(changed-path) writes"
           `Quick test_large_update_writes_only_changed_paths ]
       @ qsuite [ prop_update_equals_fresh_build ]);
      ("load",
       [ Alcotest.test_case "reload snapshot from store" `Quick
           test_load_reconstructs_snapshot ]);
      ("range",
       [ Alcotest.test_case "range queries + proofs" `Quick test_range_queries ]
       @ qsuite [ prop_range_model ]);
      ("pinned",
       [ Alcotest.test_case "10-seed fingerprints" `Quick
           test_pinned_fingerprints;
         Alcotest.test_case "rebuild charges the same work" `Quick
           test_rebuild_same_work ]);
      ("proofs",
       [ Alcotest.test_case "presence and absence" `Quick test_proofs_presence_absence;
         Alcotest.test_case "stale snapshot rejected" `Quick test_proof_stale_snapshot_rejected_on_new_root;
         Alcotest.test_case "codec roundtrip" `Quick test_proof_codec_roundtrip;
         Alcotest.test_case "codec records match legacy" `Quick
           test_proof_codecs_match_legacy;
         Alcotest.test_case "garbage rejected" `Quick test_proof_garbage_rejected;
         Alcotest.test_case "tampered chunk lists rejected" `Quick
           test_tampered_chunk_lists;
         Alcotest.test_case "size logarithmic" `Quick test_proof_size_scales_logarithmically ]
       @ qsuite [ prop_proofs_verify ]) ]

open Glassdb_util

type config = {
  store : Storage.Node_store.t;
  pattern_bits : int;
}

let config ?(pattern_bits = 5) store =
  if pattern_bits < 1 || pattern_bits > 20 then
    invalid_arg "Pos_tree.config: pattern_bits";
  { store; pattern_bits }

(* A chunk is one tree node: a sorted run of items closed by a
   content-defined boundary.  At level 0 items are (key, value); above,
   items are (first key of child chunk, child chunk hash), and item [i] of
   the flattened level-l item sequence corresponds exactly to chunk [i] of
   level l-1 — navigation is positional. *)

type chunk = { items : Chunker.item array; hash : Hash.t }

type level = {
  chunks : chunk array;
  offsets : int array; (* offsets.(i) = items in chunks.(0..i-1); length n+1 *)
}

type t = {
  cfg : config;
  levels : level array; (* levels.(0) = leaves; top level has one chunk *)
  count : int;
}

(* --- serialization --- *)

(* Chunk serialization reuses one buffer: proofs and rebuilds serialize
   thousands of chunks, and each call fully consumes [Buffer.contents]
   before the next. *)
let ser_buf = Buffer.create 4096

let serialize_chunk ~leaf (items : Chunker.item array) =
  Buffer.clear ser_buf;
  Buffer.add_char ser_buf (if leaf then 'L' else 'I');
  Codec.write_varint ser_buf (Array.length items);
  Array.iter
    (fun it ->
      Codec.write_string ser_buf (Chunker.item_key it);
      Codec.write_string ser_buf (Chunker.item_payload it))
    items;
  Buffer.contents ser_buf

(* The two level-tag digests are constants; hashing them once at module
   initialization keeps them out of every chunk's hash count. *)
let leaf_tag = Hash.leaf "L"
let interior_tag = Hash.leaf "I"

(* Chunk hash: combine of the (memoized) item hashes plus a level tag, so
   rebuilding a chunk only hashes the items that changed.  [combine_feed]
   streams tag and item digests through Hash's reusable context — no
   intermediate list, no per-chunk hashing context. *)
let chunk_hash ~leaf (items : Chunker.item array) =
  Hash.combine_feed (fun push ->
      push (if leaf then leaf_tag else interior_tag);
      Array.iter (fun it -> push (Chunker.item_hash it)) items)

let parse_chunk s =
  let r = Codec.reader s in
  let leaf =
    match Char.chr (Codec.read_byte r) with
    | 'L' -> true
    | 'I' -> false
    | _ -> raise (Codec.Malformed "chunk tag")
  in
  let n = Codec.read_varint r in
  let items =
    Array.init n (fun _ ->
        let ikey = Codec.read_string r in
        let payload = Codec.read_string r in
        Chunker.item ~key:ikey ~payload)
  in
  if not (Codec.at_end r) then raise (Codec.Malformed "chunk trailing bytes");
  (leaf, items)

let mk_chunk cfg ~leaf items =
  let hash = chunk_hash ~leaf items in
  (* Identity fast path: a rebuilt chunk whose content hash is already in
     the store is byte-identical to a persisted one — skip the
     re-serialization and the store round-trip entirely. *)
  if not (Storage.Node_store.mem cfg.store hash) then
    Storage.Node_store.put cfg.store hash (serialize_chunk ~leaf items);
  { items; hash }

(* [List.map] applies [mk_chunk] left to right, so the store sees its
   membership checks and writes in chunk order. *)
let build_chunks cfg ~leaf arrays = List.map (mk_chunk cfg ~leaf) arrays

let first_key c = Chunker.item_key c.items.(0)

let mk_level chunks =
  let n = Array.length chunks in
  let offsets = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    offsets.(i + 1) <- offsets.(i) + Array.length chunks.(i).items
  done;
  { chunks; offsets }

let level_items lv = lv.offsets.(Array.length lv.chunks)

(* --- construction --- *)

let empty cfg = { cfg; levels = [||]; count = 0 }

let is_empty t = Array.length t.levels = 0

let cardinal t = t.count

let height t = Array.length t.levels

let root_hash t =
  let n = Array.length t.levels in
  if n = 0 then Hash.empty
  else t.levels.(n - 1).chunks.(0).hash

(* Build levels above [chunks] until a single chunk remains.  A level may
   transiently fail to shrink when every chunk happens to end at a boundary;
   the next level's fingerprints are fresh hashes, so this converges — the
   depth bound only guards against a (cryptographically impossible)
   adversarial loop. *)
let rec build_up ?(depth = 0) cfg acc chunks =
  if depth > 200 then failwith "Pos_tree: level stack too deep";
  if Array.length chunks <= 1 then List.rev (mk_level chunks :: acc)
  else begin
    let items =
      Array.map (fun c -> Chunker.item ~key:(first_key c) ~payload:c.hash) chunks
    in
    let above =
      Chunker.chunk_seq_array ~pattern_bits:cfg.pattern_bits items
      |> build_chunks cfg ~leaf:false
      |> Array.of_list
    in
    build_up ~depth:(depth + 1) cfg (mk_level chunks :: acc) above
  end

let of_sorted_items cfg (items : Chunker.item array) count =
  if Array.length items = 0 then empty cfg
  else begin
    let leaves =
      Chunker.chunk_seq_array ~pattern_bits:cfg.pattern_bits items
      |> build_chunks cfg ~leaf:true
      |> Array.of_list
    in
    { cfg; levels = Array.of_list (build_up cfg [] leaves); count }
  end

(* --- shared binary searches --- *)

(* Smallest index in [0, n) for which the monotone predicate [ge] holds, or
   [n] when it never does.  Every navigation step below is an instance. *)
let lower_bound n ge =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ge mid then hi := mid else lo := mid + 1
  done;
  !lo

(* Index of the chunk whose item range contains global position [pos]. *)
let chunk_of_pos lv pos =
  let n = Array.length lv.chunks in
  if pos >= level_items lv then n - 1
  else lower_bound n (fun i -> lv.offsets.(i + 1) > pos)

(* Within an index chunk, the child to descend into: the last item with
   ikey <= key, or item 0 when the key precedes everything. *)
let route_index (items : Chunker.item array) key =
  max 0
    (lower_bound (Array.length items)
       (fun i -> String.compare (Chunker.item_key items.(i)) key > 0)
     - 1)

(* Position of the first item with ikey >= key. *)
let leaf_position (items : Chunker.item array) key =
  lower_bound (Array.length items)
    (fun i -> String.compare (Chunker.item_key items.(i)) key >= 0)

(* Exact binary search in a leaf chunk. *)
let find_leaf (items : Chunker.item array) key =
  let i = leaf_position items key in
  if i < Array.length items && String.equal (Chunker.item_key items.(i)) key
  then Some (Chunker.item_payload items.(i))
  else None

(* Chunk whose key span contains [key]: the last chunk whose first key is
   <= key, or chunk 0 when the key precedes everything. *)
let chunk_of_key (chunks : chunk array) key =
  max 0
    (lower_bound (Array.length chunks)
       (fun i -> String.compare (first_key chunks.(i)) key > 0)
     - 1)

let get t key =
  let top = Array.length t.levels - 1 in
  if top < 0 then None
  else begin
    let rec descend l ci =
      Work.note_page_read ();
      let chunk = t.levels.(l).chunks.(ci) in
      if l = 0 then find_leaf chunk.items key
      else begin
        let idx = route_index chunk.items key in
        descend (l - 1) (t.levels.(l).offsets.(ci) + idx)
      end
    in
    descend top 0
  end

let bindings t =
  if is_empty t then []
  else
    Array.to_list t.levels.(0).chunks
    |> List.concat_map (fun c ->
           Array.to_list c.items
           |> List.map (fun it -> (Chunker.item_key it, Chunker.item_payload it)))

(* --- incremental update --- *)

(* A positional patch replaces item positions [start, stop) with [items]. *)
type patch = { start : int; stop : int; pitems : Chunker.item list }

(* Convert key upserts into leaf-level positional patches; returns the
   patches and the number of fresh insertions. *)
let leaf_patches lv updates =
  let inserted = ref 0 in
  let raw =
    List.map
      (fun (k, v) ->
        let item = Chunker.item ~key:k ~payload:v in
        let ci = chunk_of_key lv.chunks k in
        let items = lv.chunks.(ci).items in
        let base = lv.offsets.(ci) in
        let p = leaf_position items k in
        if p < Array.length items
           && String.equal (Chunker.item_key items.(p)) k
        then { start = base + p; stop = base + p + 1; pitems = [ item ] }
        else begin
          incr inserted;
          { start = base + p; stop = base + p; pitems = [ item ] }
        end)
      updates
  in
  let sorted =
    List.sort
      (fun a b ->
        match Int.compare a.start b.start with
        | 0 -> Int.compare a.stop b.stop
        | c -> c)
      raw
  in
  (* Coalesce insertions sharing a position, keeping key order. *)
  let rec coalesce = function
    | a :: b :: rest
      when Int.equal a.start b.start && Int.equal a.stop a.start
           && Int.equal b.stop b.start ->
      let merged =
        List.sort
          (fun x y ->
            String.compare (Chunker.item_key x) (Chunker.item_key y))
          (a.pitems @ b.pitems)
      in
      coalesce ({ a with pitems = merged } :: rest)
    | a :: rest -> a :: coalesce rest
    | [] -> []
  in
  (coalesce sorted, !inserted)

(* Splice sorted, non-overlapping patches into the flattened items of chunks
   [lo, hi); [base] is the global position of the first item. *)
let splice_region lv ~lo ~hi patches =
  let base = lv.offsets.(lo) in
  let old =
    Array.concat (List.init (hi - lo) (fun k -> lv.chunks.(lo + k).items))
  in
  let removed = List.fold_left (fun a p -> a + (p.stop - p.start)) 0 patches in
  let added = List.fold_left (fun a p -> a + List.length p.pitems) 0 patches in
  let len = Array.length old - removed + added in
  if len = 0 then [||]
  else begin
    let out = Array.make len old.(0) in
    let w = ref 0 and pos = ref 0 in
    let copy_old upto =
      let n = upto - !pos in
      if n > 0 then begin
        Array.blit old !pos out !w n;
        w := !w + n;
        pos := upto
      end
    in
    List.iter
      (fun p ->
        copy_old (p.start - base);
        List.iter
          (fun it ->
            out.(!w) <- it;
            incr w)
          p.pitems;
        pos := p.stop - base)
      patches;
    copy_old (Array.length old);
    out
  end

(* Rebuild one level given positional patches (sorted by start, disjoint);
   returns the new chunk array and the patches to apply one level up, in
   chunk-index coordinates.

   The level is processed as *regions*: a region starts at the first chunk
   touched by a pending patch and absorbs further chunks while (a) a patch
   starts inside or spans past the absorbed range, or (b) re-chunking ends
   without a boundary item, meaning the trailing chunk would swallow its
   old successor.

   Each region's chunks are built as soon as its extent is known, so the
   store sees the regions' writes left to right. *)
let rebuild_level cfg ~leaf lv patches =
  let n = Array.length lv.chunks in
  let patch_chunk p = chunk_of_pos lv p.start in
  let patch_end_chunk p =
    if p.stop > p.start then chunk_of_pos lv (p.stop - 1) else patch_chunk p
  in
  (* The output layout as kept old chunks and rebuilt regions, plus each
     region's replaced chunk span and new chunks. *)
  let pieces = ref [] in
  let regions = ref [] in
  let pending = ref patches in
  let i = ref 0 in
  while !i < n do
    match !pending with
    | [] ->
      pieces := `Keep lv.chunks.(!i) :: !pieces;
      incr i
    | p :: _ when patch_chunk p > !i ->
      pieces := `Keep lv.chunks.(!i) :: !pieces;
      incr i
    | _ ->
      let start_ci = !i in
      let j = ref (!i + 1) in
      let region_patches = ref [] in
      (* Pull every pending patch that starts inside the absorbed chunks,
         widening the range to cover multi-chunk replacements. *)
      let pull () =
        let rec go () =
          match !pending with
          | p :: rest when patch_chunk p < !j ->
            region_patches := p :: !region_patches;
            pending := rest;
            if patch_end_chunk p + 1 > !j then j := patch_end_chunk p + 1;
            go ()
          | _ -> ()
        in
        go ()
      in
      pull ();
      let finished = ref false in
      let new_chunks = ref [] in
      while not !finished do
        let items =
          splice_region lv ~lo:start_ci ~hi:!j (List.rev !region_patches)
        in
        let cs = Chunker.chunk_seq_array ~pattern_bits:cfg.pattern_bits items in
        let ends_at_boundary =
          match List.rev cs with
          | [] -> true
          | last :: _ ->
            Chunker.is_boundary ~pattern_bits:cfg.pattern_bits
              last.(Array.length last - 1)
        in
        if ends_at_boundary || !j >= n then begin
          new_chunks := build_chunks cfg ~leaf cs;
          finished := true
        end
        else begin
          (* Absorb the next old chunk (and any patches inside it). *)
          incr j;
          pull ()
        end
      done;
      pieces := `Region !new_chunks :: !pieces;
      regions := (start_ci, !j, !new_chunks) :: !regions;
      i := !j
  done;
  let out =
    List.rev !pieces
    |> List.concat_map (function `Keep c -> [ c ] | `Region cs -> cs)
  in
  let parent_patches =
    List.rev_map
      (fun (start_ci, stop_ci, built) ->
        { start = start_ci;
          stop = stop_ci;
          pitems =
            List.map
              (fun c -> Chunker.item ~key:(first_key c) ~payload:c.hash)
              built })
      !regions
  in
  (Array.of_list out, parent_patches)

let insert_batch t updates =
  match updates with
  | [] -> t
  | _ ->
    (* Deduplicate keys, last write wins, then sort. *)
    let tbl = Hashtbl.create (List.length updates) in
    List.iter (fun (k, v) -> Hashtbl.replace tbl k v) updates;
    let updates = Det.sorted_bindings ~cmp:String.compare tbl in
    if is_empty t then
      of_sorted_items t.cfg
        (Array.of_list
           (List.map (fun (k, v) -> Chunker.item ~key:k ~payload:v) updates))
        (List.length updates)
    else begin
      let patches0, inserted = leaf_patches t.levels.(0) updates in
      let nlevels = Array.length t.levels in
      let rec cascade l patches acc =
        if patches = [] then
          (* Nothing changed at this level: retain the remaining levels. *)
          List.rev acc @ Array.to_list (Array.sub t.levels l (nlevels - l))
        else if l < nlevels then begin
          let chunks, up =
            rebuild_level t.cfg ~leaf:(l = 0) t.levels.(l) patches
          in
          let lv = mk_level chunks in
          if Array.length chunks = 1 then List.rev (lv :: acc)
          else cascade (l + 1) up (lv :: acc)
        end
        else begin
          (* The old top split: grow new levels above it until a single
             chunk remains.  Because the old top was one chunk, the patches
             here cover the whole new level's items. *)
          let items =
            Array.of_list (List.concat_map (fun p -> p.pitems) patches)
          in
          let chunks =
            Chunker.chunk_seq_array ~pattern_bits:t.cfg.pattern_bits items
            |> build_chunks t.cfg ~leaf:false
            |> Array.of_list
          in
          List.rev acc @ build_up t.cfg [] chunks
        end
      in
      let levels = cascade 0 patches0 [] in
      { t with levels = Array.of_list levels; count = t.count + inserted }
    end

(* --- loading a snapshot back from the store --- *)

exception Load_failure

(* Reconstruct the snapshot rooted at [root] from the backing store: fetch
   the root chunk, then every child level by the hashes the index items
   carry.  Fetches are charged through the store (page reads / cache hits),
   which is exactly the cost of rebuilding an evicted snapshot. *)
let load cfg root =
  if Hash.equal root Hash.empty then Some (empty cfg)
  else begin
    let fetch h =
      match Storage.Node_store.get cfg.store h with
      | None -> raise Load_failure
      | Some s ->
        (match parse_chunk s with
         | exception Codec.Malformed _ -> raise Load_failure
         | _, [||] -> raise Load_failure
         | leaf, items -> (leaf, { items; hash = h }))
    in
    match
      let root_leaf, root_chunk = fetch root in
      let rec down acc ~leaf chunks =
        let lv = mk_level chunks in
        if leaf then lv :: acc
        else begin
          let child_hashes =
            Array.concat
              (Array.to_list
                 (Array.map
                    (fun c -> Array.map Chunker.item_payload c.items)
                    chunks))
          in
          let fetched = Array.map fetch child_hashes in
          let child_leaf = fst fetched.(0) in
          if not (Array.for_all (fun (l, _) -> Bool.equal l child_leaf) fetched)
          then
            raise Load_failure;
          down (lv :: acc) ~leaf:child_leaf (Array.map snd fetched)
        end
      in
      let levels = Array.of_list (down [] ~leaf:root_leaf [| root_chunk |]) in
      let count =
        Array.fold_left
          (fun acc c -> acc + Array.length c.items)
          0 levels.(0).chunks
      in
      { cfg; levels; count }
    with
    | t -> Some t
    | exception Load_failure -> None
  end

(* --- proofs --- *)

type proof = string list (* serialized chunks, root first *)

(* All three proof kinds are chunk lists on the wire; they share one codec
   shape.  The accounting size charges each chunk plus a fixed 4-byte
   frame — the modelled RPC framing, not the varint encoding. *)
let chunk_list_codec : string list Codec.codec =
  Codec.codec
    ~size_bytes:(List.fold_left (fun acc s -> acc + String.length s + 4) 0)
    ~encode:(fun buf p -> Codec.write_list buf Codec.write_string p)
    ~decode:(fun r -> Codec.read_list r Codec.read_string)
    ()

let proof_codec : proof Codec.codec = chunk_list_codec
let proof_size_bytes = proof_codec.Codec.size_bytes
let proof_chunks p = p
let encode_proof = proof_codec.Codec.encode
let decode_proof = proof_codec.Codec.decode

let prove t key =
  let top = Array.length t.levels - 1 in
  if top < 0 then []
  else begin
    let rec descend l ci acc =
      Work.note_page_read ();
      let chunk = t.levels.(l).chunks.(ci) in
      let acc = serialize_chunk ~leaf:(l = 0) chunk.items :: acc in
      if l = 0 then acc
      else begin
        let idx = route_index chunk.items key in
        descend (l - 1) (t.levels.(l).offsets.(ci) + idx) acc
      end
    in
    List.rev (descend top 0 [])
  end

let verify ~root ~key ~value proof =
  match proof with
  | [] -> Hash.equal root Hash.empty && value = None
  | _ ->
    let rec walk expected proof =
      match proof with
      | [] -> false
      | s :: rest ->
        (match parse_chunk s with
         | exception Codec.Malformed _ -> false
         | (_, [||]) -> false
         | leaf, items ->
           if not (Hash.equal (chunk_hash ~leaf items) expected) then false
           else if leaf then
             (* Leaf chunk: must be the last element of the proof. *)
             rest = [] && Option.equal String.equal (find_leaf items key) value
           else begin
             let idx = route_index items key in
             walk (Chunker.item_payload items.(idx)) rest
           end)
    in
    walk root proof

(* --- batched multiproofs --- *)

type multiproof = string list (* distinct serialized chunks, root first *)

let multiproof_codec : multiproof Codec.codec = chunk_list_codec
let multiproof_size_bytes = multiproof_codec.Codec.size_bytes
let encode_multiproof = multiproof_codec.Codec.encode
let decode_multiproof = multiproof_codec.Codec.decode

(* One walk for the whole (sorted, deduplicated) key set: each chunk on any
   covered root-to-leaf path is visited, charged and serialized exactly
   once, no matter how many keys route through it. *)
let prove_batch t keys =
  let keys = List.sort_uniq String.compare keys in
  if keys = [] then ([], [])
  else if is_empty t then ([], List.map (fun k -> (k, None)) keys)
  else begin
    let seen = Hashtbl.create 32 in
    let chunks = ref [] in
    let bindings = ref [] in
    let add ~leaf chunk =
      if not (Hashtbl.mem seen chunk.hash) then begin
        Hashtbl.replace seen chunk.hash ();
        Work.note_page_read ();
        chunks := serialize_chunk ~leaf chunk.items :: !chunks
      end
    in
    let rec walk l ci ks =
      let chunk = t.levels.(l).chunks.(ci) in
      add ~leaf:(l = 0) chunk;
      if l = 0 then
        List.iter
          (fun k -> bindings := (k, find_leaf chunk.items k) :: !bindings)
          ks
      else begin
        (* Partition the sorted keys among children; route_index is
           monotone, so grouping consecutive keys suffices. *)
        let groups =
          List.fold_left
            (fun acc k ->
              let idx = route_index chunk.items k in
              match acc with
              | (i, ks') :: rest when Int.equal i idx -> (i, k :: ks') :: rest
              | _ -> (idx, [ k ]) :: acc)
            [] ks
          |> List.rev_map (fun (i, ks') -> (i, List.rev ks'))
        in
        List.iter
          (fun (idx, sub) -> walk (l - 1) (t.levels.(l).offsets.(ci) + idx) sub)
          groups
      end
    in
    walk (Array.length t.levels - 1) 0 keys;
    (List.rev !chunks, List.rev !bindings)
  end

let verify_batch ~root ~items proof =
  if items = [] then proof = []
  else
    match proof with
    | [] ->
      Hash.equal root Hash.empty && List.for_all (fun (_, v) -> v = None) items
    | _ ->
      let by_hash = Hashtbl.create 32 in
      let ok = ref true in
      (* Parse every chunk first, then authenticate the whole batch
         through one scratch context ({!Hash.combine_many}); feeding item
         digests is exactly what [chunk_hash] does per chunk. *)
      let parsed = ref [] in
      List.iter
        (fun s ->
          match parse_chunk s with
          | exception Codec.Malformed _ -> ok := false
          | _, [||] -> ok := false
          | leaf, its -> parsed := (leaf, its) :: !parsed)
        proof;
      let parsed = Array.of_list (List.rev !parsed) in
      let hashes =
        Hash.combine_many
          (fun (leaf, its) push ->
            push (if leaf then leaf_tag else interior_tag);
            Array.iter (fun it -> push (Chunker.item_hash it)) its)
          parsed
      in
      Array.iteri
        (fun i (leaf, its) -> Hashtbl.replace by_hash hashes.(i) (leaf, its))
        parsed;
      !ok
      && List.for_all
           (fun (key, value) ->
             (* Re-walk the shared chunk set from the root for each key; a
                dropped or tampered chunk breaks the hash chain. *)
             let rec lookup expected =
               match Hashtbl.find_opt by_hash expected with
               | None -> None
               | Some (true, its) -> Some (find_leaf its key)
               | Some (false, its) ->
                 let idx = route_index its key in
                 lookup (Chunker.item_payload its.(idx))
             in
             match lookup root with
             | Some v -> Option.equal String.equal v value
             | None -> false)
           items

(* --- verifiable range queries --- *)

let bindings_range t ~lo ~hi =
  if is_empty t || String.compare lo hi >= 0 then []
  else
    bindings t
    |> List.filter (fun (k, _) ->
           String.compare lo k <= 0 && String.compare k hi < 0)

type range_proof = string list (* distinct serialized chunks, root included *)

let range_proof_codec : range_proof Codec.codec = chunk_list_codec
let range_proof_size_bytes = range_proof_codec.Codec.size_bytes
let encode_range_proof = range_proof_codec.Codec.encode
let decode_range_proof = range_proof_codec.Codec.decode

(* Children of an index chunk that may hold keys in [lo, hi): child i covers
   [ikey_i, ikey_{i+1}), except child 0 which also covers anything below its
   first key. *)
let children_in_range (items : Chunker.item array) ~lo ~hi =
  let n = Array.length items in
  let out = ref [] in
  for i = n - 1 downto 0 do
    let covers_lo = i = 0 || String.compare (Chunker.item_key items.(i)) lo <= 0 in
    let first_ge_lo = String.compare (Chunker.item_key items.(i)) lo >= 0 in
    let below_hi = String.compare (Chunker.item_key items.(i)) hi < 0 in
    (* Include the child when its span [first, next-first) intersects the
       range: its first key is below hi, and either its first key is >= lo
       or it is the rightmost child starting at or below lo. *)
    let next_first_above_lo =
      i + 1 >= n || String.compare (Chunker.item_key items.(i + 1)) lo > 0
    in
    if below_hi && (first_ge_lo || (covers_lo && next_first_above_lo)) then
      out := i :: !out
  done;
  !out

let prove_range t ~lo ~hi =
  if is_empty t || String.compare lo hi >= 0 then []
  else begin
    let seen = Hashtbl.create 32 in
    let acc = ref [] in
    let add ~leaf items =
      let s = serialize_chunk ~leaf items in
      if not (Hashtbl.mem seen s) then begin
        Hashtbl.replace seen s ();
        Work.note_page_read ();
        acc := s :: !acc
      end
    in
    let rec walk l ci =
      let chunk = t.levels.(l).chunks.(ci) in
      add ~leaf:(l = 0) chunk.items;
      if l > 0 then
        List.iter
          (fun idx -> walk (l - 1) (t.levels.(l).offsets.(ci) + idx))
          (children_in_range chunk.items ~lo ~hi)
    in
    walk (Array.length t.levels - 1) 0;
    List.rev !acc
  end

(* Re-walk the proof's chunks from the root, recursing into every child
   whose span intersects the range; returns the certified bindings, or
   [None] when any chunk is missing, malformed, or unauthentic. *)
let extract_range ~root ~lo ~hi proof =
  if String.compare lo hi >= 0 then Some []
  else if proof = [] then if Hash.equal root Hash.empty then Some [] else None
  else begin
    let by_hash = Hashtbl.create 32 in
    let ok = ref true in
    List.iter
      (fun s ->
        match parse_chunk s with
        | exception Codec.Malformed _ -> ok := false
        | leaf, items ->
          if Array.length items = 0 then ok := false
          else Hashtbl.replace by_hash (chunk_hash ~leaf items) (leaf, items))
      proof;
    let collected = ref [] in
    let rec walk expected =
      match Hashtbl.find_opt by_hash expected with
      | None -> ok := false
      | Some (true, items) ->
        Array.iter
          (fun it ->
            let k = Chunker.item_key it in
            if String.compare lo k <= 0 && String.compare k hi < 0 then
              collected := (k, Chunker.item_payload it) :: !collected)
          items
      | Some (false, items) ->
        List.iter
          (fun idx -> walk (Chunker.item_payload items.(idx)))
          (children_in_range items ~lo ~hi)
    in
    walk root;
    if !ok then Some (List.rev !collected) else None
  end

let verify_range ~root ~lo ~hi ~bindings proof =
  match extract_range ~root ~lo ~hi proof with
  | Some certified ->
    List.equal
      (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && String.equal v1 v2)
      certified bindings
  | None -> false

let stats_nodes t =
  Array.fold_left (fun acc lv -> acc + Array.length lv.chunks) 0 t.levels

(* --- work attribution ---

   Shadow the public entry points with component scopes so the global Work
   counters can be broken down per subsystem (see Glassdb_util.Work).
   Internal callers above this point use the unscoped definitions: under
   exclusive attribution their work is charged to whichever scope is
   already open, which is exactly the outer entry point's component. *)

let get t key = Work.with_component "postree" (fun () -> get t key)

let insert_batch t updates =
  Work.with_component "postree" (fun () -> insert_batch t updates)

let load cfg root = Work.with_component "postree" (fun () -> load cfg root)

(* Proof-serving walks get their own component so server-side tree
   maintenance ("postree") and proof generation ("proof") separate in the
   attribution table. *)

let prove t key = Work.with_component "proof" (fun () -> prove t key)

let prove_batch t keys =
  Work.with_component "proof" (fun () -> prove_batch t keys)

let prove_range t ~lo ~hi =
  Work.with_component "proof" (fun () -> prove_range t ~lo ~hi)

let verify ~root ~key ~value proof =
  Work.with_component "verify" (fun () -> verify ~root ~key ~value proof)

let verify_batch ~root ~items proof =
  Work.with_component "verify" (fun () -> verify_batch ~root ~items proof)

let extract_range ~root ~lo ~hi proof =
  Work.with_component "verify" (fun () -> extract_range ~root ~lo ~hi proof)

let verify_range ~root ~lo ~hi ~bindings proof =
  Work.with_component "verify" (fun () ->
      verify_range ~root ~lo ~hi ~bindings proof)

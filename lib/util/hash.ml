type t = string

let size = 32
let equal = String.equal
let compare = String.compare

(* Every digest goes through a reusable context (reset + feed + finalize)
   instead of allocating a fresh Sha256.t per call — the batched hot paths
   (chunk hashing, multiproof assembly) issue millions of these.  Two
   contexts, not one: the aggregate ops ([combine]/[combine_feed]/
   [digest_many]) drive feeders that may themselves call the primitive ops
   (e.g. memoizing an item's [kv] hash mid-combine), so primitives and
   aggregates must not share a context.  Feeders must not call the
   aggregate ops: nesting on one context clobbers its in-flight state. *)
let prim = Sha256.init ()
let agg = Sha256.init ()

let prim_digest fill =
  Work.note_hash ();
  Sha256.reset prim;
  fill prim;
  Sha256.finalize prim

let of_string s = prim_digest (fun c -> Sha256.feed_string c s)

let empty = Sha256.digest_string ""

let leaf data =
  prim_digest (fun c ->
      Sha256.feed_string c "\x00";
      Sha256.feed_string c data)

let interior l r =
  prim_digest (fun c ->
      Sha256.feed_string c "\x01";
      Sha256.feed_string c l;
      Sha256.feed_string c r)

let kv k v =
  prim_digest (fun c ->
      Sha256.feed_string c "\x03";
      Sha256.feed_string c (string_of_int (String.length k));
      Sha256.feed_string c "\x00";
      Sha256.feed_string c k;
      Sha256.feed_string c v)

let combine_feed fill =
  Work.note_hash ();
  Sha256.reset agg;
  Sha256.feed_string agg "\x02";
  fill (fun s -> Sha256.feed_string agg s);
  Sha256.finalize agg

let combine hs = combine_feed (fun push -> List.iter push hs)

let digest_many fill inputs =
  let n = Array.length inputs in
  Work.note_hash ~n ();
  Array.map
    (fun x ->
      Sha256.reset agg;
      fill x (fun s -> Sha256.feed_string agg s);
      Sha256.finalize agg)
    inputs

let combine_many fill inputs =
  digest_many
    (fun x push ->
      push "\x02";
      fill x push)
    inputs

let short h = Hex.encode_prefix ~n:4 h
let pp fmt h = Format.pp_print_string fmt (short h)

(* SHA-256, FIPS 180-4.  Straightforward Int32-based implementation with a
   64-byte block buffer; all state is local to the context. *)

let k =
  [| 0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl;
     0x59f111f1l; 0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l;
     0x243185bel; 0x550c7dc3l; 0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l;
     0xc19bf174l; 0xe49b69c1l; 0xefbe4786l; 0x0fc19dc6l; 0x240ca1ccl;
     0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal; 0x983e5152l;
     0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
     0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl;
     0x53380d13l; 0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l;
     0xa2bfe8a1l; 0xa81a664bl; 0xc24b8b70l; 0xc76c51a3l; 0xd192e819l;
     0xd6990624l; 0xf40e3585l; 0x106aa070l; 0x19a4c116l; 0x1e376c08l;
     0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al; 0x5b9cca4fl;
     0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
     0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l |]

type t = {
  h : int32 array;           (* 8 working hash values *)
  block : bytes;             (* 64-byte input buffer *)
  mutable fill : int;        (* bytes currently buffered *)
  mutable total : int64;     (* total message length in bytes *)
  w : int32 array;           (* 64-entry message schedule, reused *)
  mutable finalized : bool;  (* digest produced; reset before reuse *)
}

(* The FIPS 180-4 initial hash values are written out in both [init] and
   [reset] rather than kept in a shared module-level array: a context's
   state stays fully context-local. *)
let set_iv (h : int32 array) =
  h.(0) <- 0x6a09e667l;
  h.(1) <- 0xbb67ae85l;
  h.(2) <- 0x3c6ef372l;
  h.(3) <- 0xa54ff53al;
  h.(4) <- 0x510e527fl;
  h.(5) <- 0x9b05688cl;
  h.(6) <- 0x1f83d9abl;
  h.(7) <- 0x5be0cd19l

let init () =
  let h = Array.make 8 0l in
  set_iv h;
  { h; block = Bytes.create 64; fill = 0; total = 0L;
    w = Array.make 64 0l; finalized = false }

let reset t =
  set_iv t.h;
  t.fill <- 0;
  t.total <- 0L;
  t.finalized <- false

let check_fresh t =
  if t.finalized then
    invalid_arg "Sha256: context already finalized (reset before reuse)"

let ( &&& ) = Int32.logand
let ( ||| ) = Int32.logor
let ( ^^^ ) = Int32.logxor
let ( +% ) = Int32.add

let rotr x n = Int32.shift_right_logical x n ||| Int32.shift_left x (32 - n)
let shr x n = Int32.shift_right_logical x n

let compress t =
  let b = t.block and w = t.w in
  for i = 0 to 15 do
    let j = i * 4 in
    let byte n = Int32.of_int (Char.code (Bytes.unsafe_get b (j + n))) in
    w.(i) <-
      Int32.shift_left (byte 0) 24
      ||| Int32.shift_left (byte 1) 16
      ||| Int32.shift_left (byte 2) 8
      ||| byte 3
  done;
  for i = 16 to 63 do
    let w15 = Array.unsafe_get w (i-15) and w2 = Array.unsafe_get w (i-2) in
    let s0 = rotr w15 7 ^^^ rotr w15 18 ^^^ shr w15 3 in
    let s1 = rotr w2 17 ^^^ rotr w2 19 ^^^ shr w2 10 in
    Array.unsafe_set w i
      (Array.unsafe_get w (i-16) +% s0 +% Array.unsafe_get w (i-7) +% s1)
  done;
  let a = ref t.h.(0) and b' = ref t.h.(1) and c = ref t.h.(2)
  and d = ref t.h.(3) and e = ref t.h.(4) and f = ref t.h.(5)
  and g = ref t.h.(6) and h' = ref t.h.(7) in
  for i = 0 to 63 do
    let s1 = rotr !e 6 ^^^ rotr !e 11 ^^^ rotr !e 25 in
    let ch = (!e &&& !f) ^^^ (Int32.lognot !e &&& !g) in
    let t1 =
      !h' +% s1 +% ch +% Array.unsafe_get k i +% Array.unsafe_get w i
    in
    let s0 = rotr !a 2 ^^^ rotr !a 13 ^^^ rotr !a 22 in
    let maj = (!a &&& !b') ^^^ (!a &&& !c) ^^^ (!b' &&& !c) in
    let t2 = s0 +% maj in
    h' := !g; g := !f; f := !e; e := !d +% t1;
    d := !c; c := !b'; b' := !a; a := t1 +% t2
  done;
  t.h.(0) <- t.h.(0) +% !a; t.h.(1) <- t.h.(1) +% !b';
  t.h.(2) <- t.h.(2) +% !c; t.h.(3) <- t.h.(3) +% !d;
  t.h.(4) <- t.h.(4) +% !e; t.h.(5) <- t.h.(5) +% !f;
  t.h.(6) <- t.h.(6) +% !g; t.h.(7) <- t.h.(7) +% !h'

let feed_bytes t ?(off = 0) ?len src =
  check_fresh t;
  let len = match len with Some l -> l | None -> Bytes.length src - off in
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Sha256.feed_bytes";
  t.total <- Int64.add t.total (Int64.of_int len);
  let pos = ref off and remaining = ref len in
  while !remaining > 0 do
    let space = 64 - t.fill in
    let n = min space !remaining in
    Bytes.blit src !pos t.block t.fill n;
    t.fill <- t.fill + n;
    pos := !pos + n;
    remaining := !remaining - n;
    if t.fill = 64 then begin compress t; t.fill <- 0 end
  done

let feed_string t s = feed_bytes t (Bytes.unsafe_of_string s)

let digest_into t buf off =
  check_fresh t;
  if off < 0 || off + 32 > Bytes.length buf then
    invalid_arg "Sha256.digest_into";
  let bitlen = Int64.mul t.total 8L in
  (* Append 0x80, pad with zeros to 56 mod 64, then 8-byte big-endian length. *)
  Bytes.set t.block t.fill '\x80';
  t.fill <- t.fill + 1;
  if t.fill > 56 then begin
    Bytes.fill t.block t.fill (64 - t.fill) '\x00';
    compress t;
    t.fill <- 0
  end;
  Bytes.fill t.block t.fill (56 - t.fill) '\x00';
  for i = 0 to 7 do
    let shift = 56 - (8 * i) in
    Bytes.set t.block (56 + i)
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical bitlen shift) 0xFFL)))
  done;
  compress t;
  for i = 0 to 7 do
    let v = t.h.(i) in
    let byte n = Char.chr (Int32.to_int (shr v (24 - 8*n) &&& 0xFFl)) in
    Bytes.set buf (off + 4*i) (byte 0);
    Bytes.set buf (off + 4*i + 1) (byte 1);
    Bytes.set buf (off + 4*i + 2) (byte 2);
    Bytes.set buf (off + 4*i + 3) (byte 3)
  done;
  t.finalized <- true

let finalize t =
  let out = Bytes.create 32 in
  digest_into t out 0;
  Bytes.unsafe_to_string out

let digest_string s =
  let t = init () in
  feed_string t s;
  finalize t

let digest_strings ss =
  let t = init () in
  List.iter (feed_string t) ss;
  finalize t

let hmac ~key msg =
  let key =
    if String.length key > 64 then digest_string key else key
  in
  let pad c =
    String.init 64 (fun i ->
        let k = if i < String.length key then Char.code key.[i] else 0 in
        Char.chr (k lxor c))
  in
  let inner = digest_strings [ pad 0x36; msg ] in
  digest_strings [ pad 0x5c; inner ]

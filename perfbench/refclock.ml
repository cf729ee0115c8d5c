(* A yardstick for the host's speed, to scale set-up time by.

   A shared host's speed drifts.  On a shared 2-core container the same
   one-domain set-up took 0.35 s for minutes, then 0.55 s, then 0.35 s
   again, and [kernel] slowed by the same factor at the same moments.
   Between two sets of ten runs 15 minutes apart, the median set-up rose
   by 36% unscaled and by 4% scaled.

   [kernel] is shaped like a set-up (string keys, ordered-map inserts,
   digests, garbage) but calls no program code, so a change to the
   program never moves the yardstick. *)

module M = Map.Make (String)

let keys = 20_000

let kernel () =
  let pad = String.make 48 'v' in
  let m = ref M.empty in
  for i = 0 to keys - 1 do
    let k = Printf.sprintf "ref%08d" (i * 7919 mod keys) in
    m := M.add k (Digest.string (k ^ pad)) !m
  done;
  ignore (Sys.opaque_identity (M.fold (fun _ v a -> a + Char.code v.[0]) !m 0))

(* The kernel's time on that container in its faster state: a set-up
   time scaled to it reads about as host seconds there. *)
let nominal_s = 0.025

(* Median host seconds of five runs of [kernel]. *)
let time () =
  let a = Array.init 5 (fun _ -> snd (Benchkit.Wallclock.wall_timed kernel)) in
  Array.sort Float.compare a;
  a.(2)

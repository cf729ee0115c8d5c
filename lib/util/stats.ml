(* Exact samples up to [spill_threshold]; beyond that the sample list is
   spilled into a log-bucketed histogram so memory stays bounded for
   long open-loop runs.  Count / total / min / max are exact either way;
   percentiles become approximate (within one Lhist bucket ratio) once
   spilled. *)

let spill_threshold = 8192

type t = {
  mutable samples : float list; (* exact, newest first; [] once spilled *)
  mutable spilled : Lhist.t option;
  mutable count : int;
  mutable total : float;
  mutable min_v : float;
  mutable max_v : float;
  mutable sorted : float array option; (* cache invalidated on add *)
}

let create () =
  { samples = []; spilled = None; count = 0; total = 0.; min_v = infinity;
    max_v = neg_infinity; sorted = None }

let spill t =
  let h = Lhist.create () in
  List.iter (Lhist.add h) t.samples;
  t.samples <- [];
  t.sorted <- None;
  t.spilled <- Some h;
  h

let add t x =
  (match t.spilled with
   | Some h -> Lhist.add h x
   | None ->
     t.samples <- x :: t.samples;
     t.sorted <- None;
     if t.count + 1 > spill_threshold then ignore (spill t));
  t.count <- t.count + 1;
  t.total <- t.total +. x;
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x

let count t = t.count
let total t = t.total
let mean t = if t.count = 0 then 0. else t.total /. float_of_int t.count
let min_value t = if t.count = 0 then 0. else t.min_v
let max_value t = if t.count = 0 then 0. else t.max_v
let is_exact t = t.spilled = None

let sorted t =
  match t.sorted with
  | Some a -> a
  | None ->
    let a = Array.of_list t.samples in
    Array.sort Float.compare a;
    t.sorted <- Some a;
    a

let percentile t p =
  if p < 0. || p > 1. then invalid_arg "Stats.percentile";
  if t.count = 0 then 0.
  else
    match t.spilled with
    | Some h -> Lhist.percentile h p
    | None ->
      let a = sorted t in
      let idx =
        int_of_float (Float.round (p *. float_of_int (Array.length a - 1)))
      in
      a.(idx)

let merge a b =
  let t = create () in
  let add_all src =
    (match src.spilled with
     | Some h ->
       let dst = match t.spilled with Some d -> d | None -> spill t in
       let m = Lhist.merge dst h in
       (* Lhist.merge returns a fresh histogram; adopt it. *)
       t.spilled <- Some m
     | None -> List.iter (add t) src.samples);
    (* Exact aggregates carry over even for spilled sources. *)
    ()
  in
  add_all a;
  add_all b;
  (* Recompute the exact aggregates from the sources (the per-sample adds
     above already counted list-backed sources; spilled sources must be
     accounted wholesale). *)
  let fix src =
    if src.spilled <> None then begin
      t.count <- t.count + src.count;
      t.total <- t.total +. src.total;
      if src.count > 0 then begin
        if src.min_v < t.min_v then t.min_v <- src.min_v;
        if src.max_v > t.max_v then t.max_v <- src.max_v
      end
    end
  in
  fix a;
  fix b;
  t

let clear t =
  t.samples <- [];
  t.spilled <- None;
  t.count <- 0;
  t.total <- 0.;
  t.min_v <- infinity;
  t.max_v <- neg_infinity;
  t.sorted <- None

type table = (string, t) Hashtbl.t

let table () = Hashtbl.create 8

let table_add tbl name x =
  let s =
    match Hashtbl.find_opt tbl name with
    | Some s -> s
    | None ->
      let s = create () in
      Hashtbl.replace tbl name s;
      s
  in
  add s x

let table_bindings tbl = Det.sorted_bindings ~cmp:String.compare tbl
let table_reset tbl = Hashtbl.reset tbl

type histogram = {
  width : float;
  buckets : (int, int) Hashtbl.t;
}

let histogram ~bucket_width =
  if bucket_width <= 0. then invalid_arg "Stats.histogram";
  { width = bucket_width; buckets = Hashtbl.create 64 }

let hist_add h time =
  (* Floor, not truncation: a negative time coordinate must land in its own
     negative bucket instead of collapsing into bucket 0 with [0, width). *)
  let b = int_of_float (Float.floor (time /. h.width)) in
  let cur = Option.value ~default:0 (Hashtbl.find_opt h.buckets b) in
  Hashtbl.replace h.buckets b (cur + 1)

let hist_buckets h =
  if Hashtbl.length h.buckets = 0 then []
  else begin
    match Det.sorted_keys ~cmp:Int.compare h.buckets with
    | [] -> []
    | lo :: rest ->
    let hi = List.fold_left (fun _ k -> k) lo rest in
    List.init (hi - lo + 1) (fun i ->
        let b = lo + i in
        let n = Option.value ~default:0 (Hashtbl.find_opt h.buckets b) in
        (float_of_int b *. h.width, n))
  end

(* Fixture: D004 negative — serial work and plain module-level state. *)
let map f arr = Array.map f arr
let scratch = Buffer.create 16
let join_results rs = List.map (fun r -> r ()) rs

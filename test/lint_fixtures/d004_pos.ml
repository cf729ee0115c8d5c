(* Fixture: D004 positive — ambient domain spawn/join, domain-local
   state, raw threads and a raw mutex. *)
let lock = Mutex.create ()
let fire f = Domain.spawn f
let collect d = Domain.join d
let slot = Domain.DLS.new_key (fun () -> Buffer.create 16)
let thread f = Thread.create f ()

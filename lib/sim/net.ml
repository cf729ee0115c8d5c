type t = {
  rtt : float;
  bandwidth : float;
  faults : Faults.t;
  mutable bytes : int;
}

let create ?(rtt = 200e-6) ?(bandwidth = 125e6) ?faults () =
  if rtt < 0. || bandwidth <= 0. then invalid_arg "Net.create";
  let faults = match faults with Some f -> f | None -> Faults.none () in
  { rtt; bandwidth; faults; bytes = 0 }

let one_way t ~bytes_len =
  (t.rtt /. 2.) +. (float_of_int bytes_len /. t.bandwidth)

let send t ~bytes_len =
  t.bytes <- t.bytes + bytes_len;
  Sim.sleep (one_way t ~bytes_len)

(* A fault-aware message on a shard's link: the sender always pays the
   transfer (it cannot know the message was lost), then any injected extra
   delay; [false] means the message never arrives.  [note] is invoked with
   "delay" / "drop" as faults hit the message, so callers can annotate the
   affected span without this layer depending on the tracing stack. *)
let try_send t ?note ~link ~bytes_len () =
  t.bytes <- t.bytes + bytes_len;
  Sim.sleep (one_way t ~bytes_len);
  let tell kind = match note with Some fn -> fn kind | None -> () in
  let extra = Faults.extra_delay t.faults ~shard:link in
  if extra > 0. then begin
    tell "delay";
    Sim.sleep extra
  end;
  let delivered = Faults.deliver t.faults ~shard:link in
  if not delivered then tell "drop";
  delivered

let bytes_sent t = t.bytes

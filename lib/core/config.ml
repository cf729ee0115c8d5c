type t = {
  shards : int;
  workers : int;
  persist_interval : float;
  batching : bool;
  sync_persist : bool;
  pattern_bits : int;
  queue_capacity : int;
  cost : Cost.t;
  rtt : float;
  bandwidth : float;
  rpc_timeout : float;
  rpc_retries : int;
  retry_backoff : float;
  verify_delay : float;
  faults : Faults.t;
}

let make ?(shards = 4) ?(workers = 8) ?(persist_interval = 0.05)
    ?(batching = true) ?(sync_persist = false) ?(pattern_bits = 5)
    ?(queue_capacity = 4096) ?(cost = Cost.default) ?(rtt = 200e-6)
    ?(bandwidth = 125e6) ?(rpc_timeout = 1.0) ?(rpc_retries = 2)
    ?(retry_backoff = 0.01) ?(verify_delay = 0.1) ?faults () =
  if shards <= 0 then invalid_arg "Config.make: shards";
  if workers <= 0 then invalid_arg "Config.make: workers";
  if rpc_timeout <= 0. then invalid_arg "Config.make: rpc_timeout";
  if rpc_retries < 0 then invalid_arg "Config.make: rpc_retries";
  if retry_backoff < 0. then invalid_arg "Config.make: retry_backoff";
  let faults = match faults with Some f -> f | None -> Faults.none () in
  { shards;
    workers;
    persist_interval;
    batching;
    sync_persist;
    pattern_bits;
    queue_capacity;
    cost;
    rtt;
    bandwidth;
    rpc_timeout;
    rpc_retries;
    retry_backoff;
    verify_delay;
    faults }

let default = make ()

let node cfg =
  { Node.persist_interval = cfg.persist_interval;
    workers = cfg.workers;
    batching = cfg.batching;
    sync_persist = cfg.sync_persist;
    pattern_bits = cfg.pattern_bits;
    cost = cfg.cost;
    queue_capacity = cfg.queue_capacity }

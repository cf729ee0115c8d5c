module Kv = Txnkit.Kv
module Error = Glassdb_util.Error

type t = {
  cfg : Config.t;
  nodes : Node.t array;
  net : Net.t;
  mutable running : bool;
}

let create cfg =
  { cfg;
    nodes =
      Array.init cfg.Config.shards (fun i ->
          Node.create (Config.node cfg) ~shard_id:i);
    net =
      Net.create ~rtt:cfg.Config.rtt ~bandwidth:cfg.Config.bandwidth
        ~faults:cfg.Config.faults ();
    running = false }

let config_of t = t.cfg
let faults_of t = t.cfg.Config.faults
let shards t = t.cfg.Config.shards
let node t i = t.nodes.(i)
let nodes t = t.nodes
let shard_of_key t k = Kv.shard_of_key ~shards:t.cfg.Config.shards k

(* The persister is the paper's single persisting thread: it occupies one
   worker slot while it updates the ledger, so transaction threads keep
   running, but the longer it holds the slot (long intervals, large drains)
   the more it contends with them (Section 5.3.1). *)
(* Run a node handler charging CPU time inline and IO time through the
   node's capacity-1 disk, so storage traffic from transactions, the
   persister and proof generation contends for the same device. *)
let charged_call cost nd f =
  let started = Sim.now () in
  let v, work = Glassdb_util.Work.measure f in
  let cpu, io = Cost.split_time cost work in
  Sim.sleep cpu;
  if io > 0. then Sim.Resource.use (Node.disk nd) (fun () -> Sim.sleep io);
  (v, Sim.now () -. started)

let persister t nd =
  let cost = t.cfg.Config.cost in
  let interval = t.cfg.Config.persist_interval in
  let pool = Node.workers nd in
  let rec loop () =
    if t.running then begin
      Sim.sleep interval;
      if t.running && Node.alive nd then
        Sim.Resource.use pool (fun () ->
            (* One charged step per block, bounded by the backlog present at
               wake-up: ledger IO interleaves with foreground commits, and
               writes arriving mid-drain wait for the next interval. *)
            let budget = ref (Node.pending_blocks nd) in
            let continue_ = ref (!budget > 0) in
            while !continue_ && t.running && Node.alive nd do
              decr budget;
              let stepped, dt =
                (* Parent: the earliest client commit span whose writes
                   are still unpersisted, so a client-originated trace
                   reaches its remote persist child. *)
                Obs.Trace.span ~cat:"node"
                  ~track:(1000 + Node.shard_id nd) ~name:"persist"
                  ?parent:(Node.take_persist_ctx nd)
                  (fun () ->
                    charged_call cost nd (fun () ->
                        Node.persist_step nd ~now:(Sim.now ())))
              in
              if stepped then begin
                let keys =
                  match
                    Ledger.header_at (Node.ledger_of nd)
                      (Node.block_count nd - 1)
                  with
                  | Some h -> max 1 h.Ledger.n_writes
                  | None -> 1
                in
                Node.note_phase nd "persist" (dt /. float_of_int keys);
                if !budget <= 0 then continue_ := false
              end
              else continue_ := false
            done);
      loop ()
    end
  in
  loop ()

(* Drain every live shard's committed backlog in one go, outside the
   simulator's event loop (bench harnesses, end-of-run flushes), in shard
   order.  [Node.persist] takes the timestamp explicitly, so no simulator
   effect runs. *)
let persist_all t ~now =
  Array.fold_left
    (fun acc nd -> if Node.alive nd then acc + Node.persist nd ~now else acc)
    0 t.nodes

let crash_node t i =
  Obs.Trace.instant ~cat:"fault" ~attrs:[ ("shard", string_of_int i) ]
    "fault.crash";
  Obs.Metrics.inc
    (Obs.Metrics.counter ~name:"glassdb.fault.crashes"
       ~labels:[ ("shard", string_of_int i) ] ());
  Node.crash t.nodes.(i)

let recover_node t i = Node.recover t.nodes.(i)

let start t =
  t.running <- true;
  if not t.cfg.Config.sync_persist then
    Array.iter (fun nd -> Sim.spawn (fun () -> persister t nd)) t.nodes;
  (* Arm the fault schedule: crash/restart actions map onto the cluster's
     own handlers, partitions toggle inside the fault layer. *)
  Faults.run t.cfg.Config.faults ~crash:(crash_node t)
    ~restart:(recover_node t)

let stop t = t.running <- false

(* RPCs run inline in the caller's process: transfer, queue for a worker,
   execute with measured work charged as service time, transfer back.
   Failures surface as typed errors, always after the caller has slept out
   the full [rpc_timeout] — a lost request, a lost response and a dead
   node are indistinguishable on the wire. *)
let call t ?timeout ?phase ?ctx ~shard ~req_bytes ~resp_bytes f =
  let nd = t.nodes.(shard) in
  let started = Sim.now () in
  let rpc_timeout =
    match timeout with Some s -> s | None -> t.cfg.Config.rpc_timeout
  in
  let failed err =
    let elapsed = Sim.now () -. started in
    Sim.sleep (Float.max 0. (rpc_timeout -. elapsed));
    Error err
  in
  let span_name = match phase with Some (n, _) -> n | None -> "rpc" in
  (* Fault-injected drops/delays annotate the originating span's trace, so
     a retried RPC's history stays attached to the client span that paid
     for it. *)
  let note leg kind =
    Obs.Trace.instant ~cat:"fault" ~track:(1000 + shard) ?parent:ctx
      ~attrs:[ ("op", span_name); ("leg", leg) ]
      ("net." ^ kind)
  in
  if not (Net.try_send t.net ~note:(note "request") ~link:shard
            ~bytes_len:req_bytes ())
  then failed (Error.Timeout span_name)
  else if not (Node.alive nd) then failed (Error.Node_down shard)
  else begin
    (* Server-side latency = queueing for a worker + charged service time;
       recorded per phase for the cost-breakdown figures.  The server span
       is parented on the caller's context, crossing the RPC boundary. *)
    let arrived = Sim.now () in
    let v, _ =
      Obs.Trace.span ~cat:"node" ~track:(1000 + shard) ?parent:ctx
        ~name:span_name
        (fun () ->
          Sim.Resource.use (Node.workers nd) (fun () ->
              charged_call t.cfg.Config.cost nd (fun () -> f nd)))
    in
    (match phase with
     | Some (name, keys) when keys > 0 ->
       Node.note_phase nd name ((Sim.now () -. arrived) /. float_of_int keys)
     | _ -> ());
    if not (Node.alive nd) then failed (Error.Node_down shard)
    else if
      not
        (Net.try_send t.net ~note:(note "response") ~link:shard
           ~bytes_len:(resp_bytes v) ())
    then failed (Error.Timeout span_name)
    else Ok v
  end

let total_storage_bytes t =
  Array.fold_left
    (fun acc nd -> acc + Storage.Node_store.total_bytes (Node.store nd))
    0 t.nodes

let total_blocks t =
  Array.fold_left (fun acc nd -> acc + Node.block_count nd) 0 t.nodes

let total_commits t =
  Array.fold_left (fun acc nd -> acc + Node.commit_count nd) 0 t.nodes

let total_aborts t =
  Array.fold_left (fun acc nd -> acc + Node.abort_count nd) 0 t.nodes

let reset_stats t = Array.iter Node.reset_stats t.nodes

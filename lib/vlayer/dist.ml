module Kv = Txnkit.Kv
module Error = Glassdb_util.Error

exception Abort of Error.t

(* Run a node handler charging CPU time inline and IO time through the
   node's capacity-1 disk, so storage traffic from transactions, the
   persister and proof generation contends for the same device. *)
let charged ~disk f =
  let started = Sim.now () in
  let v, work = Glassdb_util.Work.measure f in
  let cpu, io = Cost.split_time Cost.default work in
  Sim.sleep cpu;
  if io > 0. then Sim.Resource.use disk (fun () -> Sim.sleep io);
  (v, Sim.now () -. started)

module type NODE = Dist_intf.NODE
module type S = Dist_intf.S

module Make (N : NODE) = struct
  type node = N.t
  type receipt = N.receipt

  type t = {
    nodes : N.t array;
    net : Net.t;
    rpc_timeout : float;
    rpc_retries : int;
    retry_backoff : float;
  }

  let create ~rpc_timeout ~rpc_retries ~retry_backoff ?rtt ?bandwidth ?faults
      nodes =
    if Array.length nodes = 0 then invalid_arg "Dist.create";
    { nodes;
      net = Net.create ?rtt ?bandwidth ?faults ();
      rpc_timeout;
      rpc_retries;
      retry_backoff }

  let shards t = Array.length t.nodes
  let node t i = t.nodes.(i)
  let nodes t = t.nodes
  let shard_of_key t k = Kv.shard_of_key ~shards:(shards t) k

  (* RPCs run inline in the caller's process: transfer, queue for a worker,
     execute with measured work charged as service time, transfer back.
     Failures surface as typed errors, always after the caller has slept
     out the full [rpc_timeout] — a lost request, a lost response and a
     dead node are indistinguishable on the wire.  [lock], when given, is
     held around the worker slot (QLDB*'s commit-time tree lock). *)
  let rpc t ?phase ?ctx ?lock ~shard ~req_bytes ~resp_bytes f =
    let nd = t.nodes.(shard) in
    let started = Sim.now () in
    let failed err =
      let elapsed = Sim.now () -. started in
      Sim.sleep (Float.max 0. (t.rpc_timeout -. elapsed));
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
    else if not (N.alive nd) then failed (Error.Node_down shard)
    else begin
      (* Server-side latency = queueing for a worker + charged service
         time; recorded per phase for the cost-breakdown figures.  The
         server span is parented on the caller's context, crossing the RPC
         boundary. *)
      let arrived = Sim.now () in
      let serve () =
        Sim.Resource.use (N.workers nd) (fun () ->
            charged ~disk:(N.disk nd) (fun () -> f nd))
      in
      let v, _ =
        Obs.Trace.span ~cat:"node" ~track:(1000 + shard) ?parent:ctx
          ~name:span_name
          (fun () ->
            match lock with
            | Some l -> Sim.Resource.use l serve
            | None -> serve ())
      in
      (match phase with
       | Some (name, keys) when keys > 0 ->
         N.note_phase nd name ((Sim.now () -. arrived) /. float_of_int keys)
       | _ -> ());
      if not (N.alive nd) then failed (Error.Node_down shard)
      else if
        not
          (Net.try_send t.net ~note:(note "response") ~link:shard
             ~bytes_len:(resp_bytes v) ())
      then failed (Error.Timeout span_name)
      else Ok v
    end

  let call t ?phase ?ctx ~shard ~req_bytes ~resp_bytes f =
    rpc t ?phase ?ctx ~shard ~req_bytes ~resp_bytes f

  module Client = struct
    type c = {
      cid : int;
      sk : string;
      cl : t;
      mutable seq : int;
      mutable retries : int;
      mutable abort_records : Kv.txn_id list;
      m_retries : Obs.Metrics.counter;
    }

    type handle = {
      client : c;
      tid : Kv.txn_id;
      hctx : Obs.Trace.ctx; (* the enclosing execute span's trace context *)
      mutable reads : (Kv.key * Kv.version) list;
      buffer : (Kv.key, Kv.value) Hashtbl.t;
      mutable write_order : Kv.key list; (* newest first *)
    }

    let create cl ~id ~sk =
      { cid = id;
        sk;
        cl;
        seq = 0;
        retries = 0;
        abort_records = [];
        m_retries =
          Obs.Metrics.counter ~name:"glassdb.client.rpc_retries" () }

    let id c = c.cid
    let retry_count c = c.retries
    let aborts c = List.rev c.abort_records

    (* Bounded retry with exponential backoff.  Dispatch is on the error
       CONSTRUCTOR — only transient transport errors ({!Error.retryable})
       are retried; conflicts, aborts and invalid proofs surface
       immediately.  [ctx] is the span the RPC belongs to: retry markers
       attach to its trace instead of starting orphaned fresh events. *)
    let with_retry c ?ctx ~label f =
      let rec go attempt =
        match f () with
        | Ok _ as ok -> ok
        | Error e when Error.retryable e && attempt < c.cl.rpc_retries ->
          c.retries <- c.retries + 1;
          Obs.Metrics.inc c.m_retries;
          Obs.Trace.instant ~cat:"client" ~track:c.cid ?parent:ctx
            ~attrs:[ ("op", label); ("attempt", string_of_int (attempt + 1)) ]
            "rpc.retry";
          Sim.sleep (c.cl.retry_backoff *. (2. ** float_of_int attempt));
          go (attempt + 1)
        | Error _ as err -> err
      in
      go 0

    let fresh_handle c ~ctx =
      c.seq <- c.seq + 1;
      { client = c;
        tid = Kv.txn_id ~client:c.cid ~seq:c.seq;
        hctx = ctx;
        reads = [];
        buffer = Hashtbl.create 8;
        write_order = [] }

    let get h key =
      match Hashtbl.find_opt h.buffer key with
      | Some v -> Some v (* read-your-writes *)
      | None ->
        let c = h.client in
        let shard = shard_of_key c.cl key in
        (match
           with_retry c ~ctx:h.hctx ~label:"read" (fun () ->
               call c.cl ~ctx:h.hctx ~shard
                 ~req_bytes:(String.length key + 16)
                 ~resp_bytes:(fun r ->
                   match r with
                   | Some (v, _) -> String.length v + 16
                   | None -> 16)
                 (fun nd -> N.read nd key))
         with
         | Error e -> raise (Abort e)
         | Ok None ->
           h.reads <- (key, -1) :: h.reads;
           None
         | Ok (Some (v, version)) ->
           h.reads <- (key, version) :: h.reads;
           Some v)

    let put h key value =
      if not (Hashtbl.mem h.buffer key) then
        h.write_order <- key :: h.write_order;
      Hashtbl.replace h.buffer key value

    let rw_sets_by_shard h =
      let t = h.client.cl in
      let tbl = Hashtbl.create 8 in
      let touch shard =
        match Hashtbl.find_opt tbl shard with
        | Some rw -> rw
        | None ->
          let rw = (ref [], ref []) in
          Hashtbl.replace tbl shard rw;
          rw
      in
      List.iter
        (fun (k, ver) ->
          let reads, _ = touch (shard_of_key t k) in
          reads := (k, ver) :: !reads)
        h.reads;
      List.iter
        (fun k ->
          let _, writes = touch (shard_of_key t k) in
          writes := (k, Hashtbl.find h.buffer k) :: !writes)
        (List.rev h.write_order);
      Glassdb_util.Det.sorted_bindings ~cmp:Int.compare tbl
      |> List.map (fun (shard, (reads, writes)) ->
             (shard, { Kv.reads = !reads; writes = !writes }))

    (* Fan an RPC out to several shards and join all answers.  Every call
       is time-bounded (each attempt sleeps out at most the RPC timeout,
       retries are finite), so a plain ivar read cannot hang. *)
    let fan_out calls =
      let ivs =
        List.map
          (fun (shard, call) ->
            let iv = Sim.Ivar.create () in
            Sim.spawn (fun () -> Sim.Ivar.fill iv (call ()));
            (shard, iv))
          calls
      in
      List.map (fun (shard, iv) -> (shard, Sim.Ivar.read iv)) ivs

    (* Release prepare state across [per_shard], retrying through
       transient errors so a partitioned-but-alive shard does not keep the
       write locks once the link heals.  Shards that stay unreachable past
       the retry budget either crashed (locks already wiped, replay
       conservatively aborts the undecided prepare) or will reject the
       stale tid later; the coordinator records the abort either way. *)
    let abort_round c ?ctx ~tid per_shard =
      c.abort_records <- tid :: c.abort_records;
      ignore
        (fan_out
           (List.map
              (fun (shard, _) ->
                ( shard,
                  fun () ->
                    with_retry c ?ctx ~label:"abort" (fun () ->
                        call c.cl ?ctx ~shard ~req_bytes:32
                          ~resp_bytes:(fun _ -> 8)
                          (fun nd -> N.abort nd tid)) ))
              per_shard))

    let execute c body =
      Obs.Trace.span_ctx ~cat:"client" ~track:c.cid ~name:"execute"
      @@ fun ectx ->
      let h = fresh_handle c ~ctx:ectx in
      match body h with
      | exception Abort err ->
        (* Unconditional cleanup: even though reads take no OCC locks, any
           shard this transaction already spoke to must forget the tid. *)
        (match rw_sets_by_shard h with
         | [] -> ()
         | per_shard -> abort_round c ~ctx:ectx ~tid:h.tid per_shard);
        Error err
      | value ->
        let per_shard = rw_sets_by_shard h in
        if per_shard = [] then Ok (value, [])
        else begin
          (* Prepare round.  The transaction is signed once over its whole
             read/write set; every shard validates only its own slice but
             stores the full signed transaction for auditing.
             Retransmitted prepares are idempotent server-side, so retries
             are safe. *)
          let full_rw =
            { Kv.reads = List.rev h.reads;
              writes =
                List.rev_map
                  (fun k -> (k, Hashtbl.find h.buffer k))
                  h.write_order }
          in
          let stxn = Kv.sign ~sk:c.sk ~tid:h.tid ~client:c.cid full_rw in
          let verdicts =
            Obs.Trace.span_ctx ~cat:"client" ~track:c.cid ~parent:ectx
              ~name:"prepare" (fun pctx ->
                fan_out
                  (List.map
                     (fun (shard, rw) ->
                       ( shard,
                         fun () ->
                           with_retry c ~ctx:pctx ~label:"prepare" (fun () ->
                               call c.cl ~phase:("prepare", 1) ~ctx:pctx
                                 ~shard ~req_bytes:(Kv.signed_txn_bytes stxn)
                                 ~resp_bytes:(fun _ -> 8)
                                 (fun nd -> N.prepare nd ~rw stxn)) ))
                     per_shard))
          in
          let all_ok =
            List.for_all
              (function _, Ok Txnkit.Occ.Ok -> true | _ -> false)
              verdicts
          in
          if all_ok then begin
            let receipt_lists =
              Obs.Trace.span_ctx ~cat:"client" ~track:c.cid ~parent:ectx
                ~name:"commit" (fun cctx ->
                  fan_out
                    (List.map
                       (fun (shard, _) ->
                         ( shard,
                           fun () ->
                             with_retry c ~ctx:cctx ~label:"commit" (fun () ->
                                 rpc c.cl ~phase:("commit", 1) ~ctx:cctx
                                   ?lock:(N.commit_lock (node c.cl shard))
                                   ~shard ~req_bytes:32
                                   ~resp_bytes:(fun rs ->
                                     16 + (N.receipt_bytes * List.length rs))
                                   (fun nd -> N.commit nd ~ctx:cctx h.tid)) ))
                       per_shard))
            in
            let receipts =
              List.concat_map
                (function _, Ok rs -> rs | _, Error _ -> [])
                receipt_lists
            in
            Ok (value, receipts)
          end
          else begin
            (* Abort round: unconditional, with the same retry budget as
               any other RPC, so prepare state cannot leak on shards that
               answered Ok while a sibling conflicted or timed out. *)
            abort_round c ~ctx:ectx ~tid:h.tid per_shard;
            let err =
              (* A conflict is the most informative verdict; otherwise the
                 first transport error explains the abort. *)
              List.fold_left
                (fun acc (_, v) ->
                  match (acc, v) with
                  | Some (Error.Txn_conflict _), _ -> acc
                  | _, Ok (Txnkit.Occ.Conflict r) ->
                    Some (Error.Txn_conflict r)
                  | None, Error e -> Some e
                  | acc, _ -> acc)
                None verdicts
            in
            Error
              (match err with
               | Some e -> e
               | None -> Error.Txn_conflict "conflict")
          end
        end
  end
end

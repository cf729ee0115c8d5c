(* Macro benchmarks: YCSB (Fig 9), TPC-C (Fig 10), failure recovery
   (Fig 11), verification workloads (Figs 12-13). *)

open Benchkit

let systems = Adapters.all_transactional

(* --- Figure 9: YCSB --- *)

let fig9a () =
  let rows =
    List.concat_map
      (fun sys ->
        List.map
          (fun clients ->
            let r =
              Driver.run_ycsb
                (Common.setup ~clients sys (Common.params ()))
                (Common.ycsb ())
            in
            Common.check_no_failures r;
            [ r.Driver.r_name; string_of_int clients;
              Report.f0 r.Driver.r_throughput;
              Printf.sprintf "%.1f%%" (100. *. r.Driver.r_abort_rate) ])
          !Common.profile.Common.clients_sweep)
      systems
  in
  Report.table
    ~title:"Fig 9(a): YCSB balanced-uniform throughput vs clients"
    ~header:[ "system"; "clients"; "txn/s"; "aborts" ]
    rows

let fig9b () =
  let rows =
    List.concat_map
      (fun sys ->
        List.map
          (fun shards ->
            let r =
              Driver.run_ycsb
                (Common.setup ~clients:(6 * shards) sys
                   (Common.params ~shards ()))
                (Common.ycsb ~records:(750 * shards) ())
            in
            [ r.Driver.r_name; string_of_int shards;
              Report.f0 r.Driver.r_throughput ])
          [ 1; 2; 4; 8 ])
      systems
  in
  Report.table
    ~title:"Fig 9(b): YCSB scalability vs number of nodes"
    ~note:"clients scale with nodes; expect near-linear growth"
    ~header:[ "system"; "nodes"; "txn/s" ]
    rows

let fig9c () =
  let rows =
    List.concat_map
      (fun sys ->
        List.map
          (fun mix ->
            let r =
              Driver.run_ycsb
                (Common.setup sys (Common.params ()))
                (Common.ycsb ~mix ())
            in
            [ r.Driver.r_name; Ycsb.mix_name mix;
              Report.f0 r.Driver.r_throughput;
              Printf.sprintf "%.1f%%" (100. *. r.Driver.r_abort_rate) ])
          [ Ycsb.Read_heavy; Ycsb.Balanced; Ycsb.Write_heavy ])
      systems
  in
  Report.table
    ~title:"Fig 9(c): YCSB throughput vs workload mix"
    ~header:[ "system"; "mix"; "txn/s"; "aborts" ]
    rows

(* --- Figure 10: TPC-C --- *)

let tpcc_body cfg client rng = Tpcc.run_txn client rng cfg (Tpcc.pick_kind rng)

let fig10a () =
  let cfg = !Common.profile.Common.tpcc in
  let rows =
    List.concat_map
      (fun sys ->
        List.map
          (fun clients ->
            let r =
              Driver.run_transactional
                (Common.setup ~clients sys (Common.params ()))
                ~load:(fun c -> Tpcc.load c cfg)
                ~body:(tpcc_body cfg)
            in
            Common.check_no_failures r;
            [ r.Driver.r_name; string_of_int clients;
              Report.f0 r.Driver.r_throughput;
              Printf.sprintf "%.1f%%" (100. *. r.Driver.r_abort_rate) ])
          !Common.profile.Common.clients_sweep)
      systems
  in
  Report.table
    ~title:"Fig 10(a): TPC-C throughput vs clients (six verified txn types)"
    ~header:[ "system"; "clients"; "txn/s"; "aborts" ]
    rows

let fig10b () =
  (* Per-type latency at peak clients: drive the clients manually so each
     transaction's kind and latency can be recorded. *)
  let cfg = !Common.profile.Common.tpcc in
  let rows =
    List.concat_map
      (fun sys ->
        let per_kind = Hashtbl.create 8 in
        let stat kind =
          match Hashtbl.find_opt per_kind kind with
          | Some s -> s
          | None ->
            let s = Glassdb_util.Stats.create () in
            Hashtbl.replace per_kind kind s;
            s
        in
        let setup = Common.setup sys (Common.params ()) in
        ignore
          (Driver.run_transactional setup
             ~load:(fun c -> Tpcc.load c cfg)
             ~body:(fun client rng ->
               let kind = Tpcc.pick_kind rng in
               let t0 = Sim.now () in
               let r = Tpcc.run_txn client rng cfg kind in
               (match r with
                | Ok () -> Glassdb_util.Stats.add (stat kind) (Sim.now () -. t0)
                | Error _ -> ());
               r));
        List.map
          (fun kind ->
            [ setup.Driver.sys.System.name;
              Tpcc.kind_name kind;
              Report.ms (Glassdb_util.Stats.mean (stat kind));
              string_of_int (Glassdb_util.Stats.count (stat kind)) ])
          Tpcc.all_kinds)
      systems
  in
  Report.table
    ~title:"Fig 10(b): TPC-C latency per transaction type at peak load"
    ~header:[ "system"; "type"; "latency ms"; "count" ]
    rows

(* --- Figure 11: failure recovery --- *)

let fig11 () =
  (* 40 s steady state, kill one node, reboot 20 s later (timeline scaled
     4x down: crash at 10 s, reboot at 15 s, 20 s total). *)
  let cfg = Common.ycsb () in
  let keys = Ycsb.keys cfg in
  let mk_setup () =
    { (Common.setup ~clients:24 Adapters.glassdb
         { (Common.params ()) with System.rpc_timeout = 0.15 })
      with Driver.duration = 20.0 }
  in
  let no_repl =
    Driver.run_timeline (mk_setup ())
      ~load:(fun c -> Ycsb.load c cfg)
      ~body:(fun client rng -> Ycsb.run_txn client rng cfg keys)
      ~events:
        [ (10.0, fun a -> a.System.a_crash 0);
          (15.0, fun a -> a.System.a_recover 0) ]
  in
  (* Replicated variant: every shard is fronted by a Raft group of three;
     commits wait for majority replication, and the crash kills shard 0's
     Raft leader instead of the node (the replicas take over after an
     election).  See DESIGN.md on this substitution. *)
  let replicated =
    let buckets = ref [] in
    Sim.run (fun () ->
        let params = Common.params () in
        let admin = Adapters.glassdb.System.make params in
        admin.System.a_start ();
        let groups =
          Array.init params.System.shards (fun i ->
              Raft.create ~n:3 ~seed:(100 + i)
                ~election_timeout:(0.6, 1.2) ~heartbeat:0.1
                ~apply:(fun ~replica_id:_ ~index:_ _ -> ())
                ())
        in
        Array.iter Raft.start groups;
        let loader = admin.System.a_client 0 in
        Ycsb.load loader cfg;
        Sim.sleep 2.0 (* let leaders settle *);
        let hist = Glassdb_util.Stats.histogram ~bucket_width:1.0 in
        let t_start = Sim.now () in
        let stop_at = t_start +. 20.0 in
        let master = Glassdb_util.Rng.create 42 in
        for i = 1 to 24 do
          let client = admin.System.a_client i in
          let rng = Glassdb_util.Rng.split master in
          Sim.spawn (fun () ->
              while Sim.now () < stop_at do
                let t0 = Sim.now () in
                let shard =
                  Glassdb_util.Rng.int_below rng params.System.shards
                in
                (* The write set must replicate before the commit counts. *)
                let replicated_ok =
                  Raft.submit groups.(shard) ~timeout:1.0 "txn"
                in
                if replicated_ok then begin
                  match Ycsb.run_txn client rng cfg keys with
                  | Ok () -> Glassdb_util.Stats.hist_add hist (Sim.now () -. t_start)
                  | Error _ -> ()
                end;
                if Sim.now () = t0 then Sim.sleep 1e-6
              done)
        done;
        Sim.spawn (fun () ->
            Sim.sleep 10.0;
            match Raft.leader groups.(0) with
            | Some l -> Raft.crash groups.(0) l
            | None -> ());
        Sim.spawn (fun () ->
            Sim.sleep 15.0;
            for r = 0 to 2 do
              if not (Raft.is_alive groups.(0) r) then Raft.recover groups.(0) r
            done);
        Sim.spawn (fun () ->
            Sim.sleep 20.0;
            admin.System.a_stop ();
            Array.iter Raft.stop groups;
            buckets := Glassdb_util.Stats.hist_buckets hist;
            Sim.stop ()));
    !buckets
  in
  let rate buckets t =
    match List.assoc_opt t buckets with Some n -> n | None -> 0
  in
  let rows =
    List.init 20 (fun i ->
        let t = float_of_int i in
        [ Report.f0 t;
          string_of_int (rate no_repl t);
          string_of_int (rate replicated t) ])
  in
  Report.table
    ~title:"Fig 11: failure recovery timeline (committed txns per second)"
    ~note:
      "crash at t=10s, reboot at t=15s.  Without replication the crashed \
       shard's transactions abort until reboot; with Raft x3 a leader \
       election restores service in a few seconds"
    ~header:[ "t (s)"; "no-replication"; "raft x3" ]
    rows

(* --- Figures 12-13: verification workloads --- *)

let fig12a () =
  let cfg = Common.ycsb () in
  let variants =
    [ (Adapters.glassdb, 0.1, "GlassDB");
      (Adapters.glassdb, 0.0, "GlassDB-0ms");
      (Adapters.ledgerdb, 0.1, "LedgerDB*");
      (Adapters.qldb, 0.1, "QLDB*") ]
  in
  let rows =
    List.concat_map
      (fun (sys, delay, label) ->
        List.map
          (fun clients ->
            let params =
              { (Common.params ~verify_delay:delay ()) with
                System.sync_persist = (delay = 0.) }
            in
            let r =
              Driver.run_verified (Common.setup ~clients sys params) cfg
                ~pick:Ycsb.workload_x
            in
            Common.check_no_failures r;
            [ label; string_of_int clients; Report.f0 r.Driver.r_throughput ])
          !Common.profile.Common.clients_sweep)
      variants
  in
  Report.table
    ~title:"Fig 12(a): Workload-X throughput vs clients (distributed)"
    ~note:"GlassDB-0ms = immediate (synchronous) verification"
    ~header:[ "system"; "clients"; "ops/s" ]
    rows

let fig12b () =
  let cfg = Common.ycsb () in
  let keys = Ycsb.keys cfg in
  let rows =
    List.concat_map
      (fun sys ->
        let put_lat = Glassdb_util.Stats.create () in
        let get_lat = Glassdb_util.Stats.create () in
        let setup = Common.setup sys (Common.params ()) in
        (* Manual client loop so each operation's kind and latency can be
           recorded separately. *)
        let vstats = Glassdb_util.Stats.create () in
        Sim.run (fun () ->
            let admin = setup.Driver.sys.System.make setup.Driver.params in
            admin.System.a_start ();
            let loader = admin.System.a_client 0 in
            Ycsb.load loader cfg;
            let stop_at = Sim.now () +. setup.Driver.duration /. 2. in
            let master = Glassdb_util.Rng.create 43 in
            for i = 1 to 16 do
              let client = admin.System.a_client i in
              let rng = Glassdb_util.Rng.split master in
              Sim.spawn (fun () ->
                  while Sim.now () < stop_at do
                    let op = Ycsb.workload_x rng in
                    let t0 = Sim.now () in
                    (match Ycsb.run_verified_op client rng cfg keys op with
                     | Ok v ->
                       (match op with
                        | Ycsb.V_put -> Glassdb_util.Stats.add put_lat (Sim.now () -. t0)
                        | _ -> Glassdb_util.Stats.add get_lat (Sim.now () -. t0));
                       Option.iter
                         (fun v ->
                           Glassdb_util.Stats.add vstats
                             (v.System.latency /. float_of_int (max 1 v.System.keys)))
                         v
                     | Error _ -> ());
                    List.iter
                      (fun v ->
                        Glassdb_util.Stats.add vstats
                          (v.System.latency /. float_of_int (max 1 v.System.keys)))
                      (client.System.c_flush ~force:false);
                    if Sim.now () = t0 then Sim.sleep 1e-6
                  done);
            done;
            Sim.spawn (fun () ->
                Sim.sleep (setup.Driver.duration /. 2.);
                admin.System.a_stop ();
                Sim.stop ()));
        [ [ setup.Driver.sys.System.name;
            Report.ms (Glassdb_util.Stats.mean put_lat);
            Report.ms (Glassdb_util.Stats.mean get_lat);
            Report.ms (Glassdb_util.Stats.mean vstats) ] ])
      systems
  in
  Report.table
    ~title:"Fig 12(b): Workload-X per-operation latency"
    ~header:[ "system"; "write ms"; "read ms"; "verify ms/key" ]
    rows

let fig13 () =
  let cfg = Common.ycsb ~records:2000 () in
  let rows =
    List.map
      (fun sys ->
        let params = Common.params ~shards:1 () in
        let r =
          Driver.run_verified (Common.setup ~clients:16 sys params) cfg
            ~pick:Ycsb.workload_x
        in
        [ r.Driver.r_name; Report.f0 r.Driver.r_throughput ])
      [ Adapters.glassdb; Adapters.ledgerdb; Adapters.qldb; Adapters.trillian ]
  in
  Report.table
    ~title:"Fig 13: Workload-X on a single node (incl. Trillian)"
    ~note:"Trillian pays a cross-process MySQL backend on every operation"
    ~header:[ "system"; "ops/s" ]
    rows

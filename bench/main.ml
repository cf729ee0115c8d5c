(* Benchmark suite entry point: regenerates every table and figure of the
   paper's evaluation (Table 1, Figures 4-14).

     dune exec bench/main.exe                 # everything, default profile
     dune exec bench/main.exe -- --quick      # smaller sweeps
     dune exec bench/main.exe -- fig9a fig13  # selected experiments
     dune exec bench/main.exe -- --list

   Absolute numbers come from a simulated cluster (see DESIGN.md); the
   comparisons and trends are the reproduction targets. *)

let bechamel_micro () =
  (* Raw data-structure microbenchmarks via Bechamel: the building blocks
     whose costs drive every higher-level result. *)
  let open Bechamel in
  let sha =
    Test.make ~name:"sha256-1KiB"
      (Staged.stage (fun () ->
           ignore (Glassdb_util.Sha256.digest_string (String.make 1024 'x'))))
  in
  let store = Storage.Node_store.create () in
  let cfg = Postree.Pos_tree.config store in
  let base =
    Postree.Pos_tree.insert_batch (Postree.Pos_tree.empty cfg)
      (List.init 5000 (fun i -> (Printf.sprintf "key-%05d" i, "value")))
  in
  let counter = ref 0 in
  let pos_insert =
    Test.make ~name:"pos-tree-single-update"
      (Staged.stage (fun () ->
           incr counter;
           ignore
             (Postree.Pos_tree.insert_batch base
                [ (Printf.sprintf "key-%05d" (!counter mod 5000), "new") ])))
  in
  let proof = Postree.Pos_tree.prove base "key-02500" in
  let root = Postree.Pos_tree.root_hash base in
  let pos_verify =
    Test.make ~name:"pos-tree-verify-proof"
      (Staged.stage (fun () ->
           assert
             (Postree.Pos_tree.verify ~root ~key:"key-02500"
                ~value:(Some "value") proof)))
  in
  let log = Mtree.Merkle_log.create () in
  for i = 0 to 9999 do
    ignore (Mtree.Merkle_log.append log (string_of_int i))
  done;
  let log_proof =
    Test.make ~name:"merkle-log-inclusion-10k"
      (Staged.stage (fun () ->
           ignore (Mtree.Merkle_log.inclusion_proof log ~index:5000 ~size:10000)))
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg_b =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 100) ()
  in
  let grouped =
    Test.make_grouped ~name:"structures"
      [ sha; pos_insert; pos_verify; log_proof ]
  in
  Printf.printf "\n== Bechamel micro-benchmarks (ns/run, OLS estimate) ==\n%!";
  let raw = Benchmark.all cfg_b instances grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Glassdb_util.Det.sorted_bindings ~cmp:String.compare results
  |> List.iter (fun (name, result) ->
         match Analyze.OLS.estimates result with
         | Some [ est ] -> Printf.printf "%-40s %14.1f\n%!" name est
         | _ -> Printf.printf "%-40s (no estimate)\n%!" name)

let experiments : (string * string * (unit -> unit)) list =
  [ ("table1", "proof sizes vs history length (Table 1)", Micro.table1);
    ("fig4a", "GlassDB phases vs txn size", Micro.fig4a);
    ("fig4b", "GlassDB phases vs workload mix", Micro.fig4b);
    ("fig4c", "GlassDB phases vs nodes", Micro.fig4c);
    ("fig4d", "GlassDB phases vs persist interval", Micro.fig4d);
    ("fig5", "client verification cost vs delay", Micro.fig5);
    ("fig6a", "throughput vs persist interval", Micro.fig6a);
    ("fig6b", "throughput vs verification delay", Micro.fig6b);
    ("fig7", "server/client costs vs baselines (7a-c)", Micro.fig7);
    ("fig7d", "storage vs batch size", Micro.fig7d);
    ("fig8", "design-choice ablation", Micro.fig8);
    ("fig9a", "YCSB throughput vs clients", Macro.fig9a);
    ("fig9b", "YCSB scalability vs nodes", Macro.fig9b);
    ("fig9c", "YCSB throughput vs mix", Macro.fig9c);
    ("fig10a", "TPC-C throughput vs clients", Macro.fig10a);
    ("fig10b", "TPC-C per-type latency", Macro.fig10b);
    ("fig11", "failure recovery timeline", Macro.fig11);
    ("fig12a", "Workload-X throughput (distributed)", Macro.fig12a);
    ("fig12b", "Workload-X per-op latency", Macro.fig12b);
    ("fig13", "Workload-X single node incl. Trillian", Macro.fig13);
    ("fig14", "auditing cost vs interval", Micro.fig14);
    ("micro", "Bechamel data-structure micro-benchmarks", bechamel_micro);
    ("bench1",
     "batched multiproofs vs independent proofs (writes BENCH_1.json)",
     fun () ->
       Bench1.run_and_write
         ~quick:(!Common.profile == Common.quick)
         ~path:"BENCH_1.json" ());
    ("recovery",
     "fault-injected crash/recover run (writes BENCH_4.json)",
     fun () ->
       Recovery.run_and_write
         ~quick:(!Common.profile == Common.quick)
         ~path:"BENCH_4.json" ()) ]

let run_suite quick names =
  if quick then Common.profile := Common.quick;
  let selected =
    match names with
    | [] -> experiments
    | names ->
      List.map
        (fun n ->
          match List.find_opt (fun (id, _, _) -> id = n) experiments with
          | Some e -> e
          | None ->
            Printf.eprintf "unknown experiment %S (try --list)\n" n;
            exit 2)
        names
  in
  Printf.printf "GlassDB benchmark suite: %d experiment(s), %s profile\n%!"
    (List.length selected)
    (if quick then "quick" else "default");
  let (), total =
    Benchkit.Wallclock.wall_timed (fun () ->
        List.iter (fun (id, _, f) -> Common.timed id f) selected)
  in
  Printf.printf "\nTotal wall time: %.0fs\n" total

let list_experiments () =
  List.iter (fun (id, doc, _) -> Printf.printf "%-8s %s\n" id doc) experiments

open Cmdliner

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Smaller sweeps and clusters.")

let list_flag =
  Arg.(value & flag & info [ "list" ] ~doc:"List available experiments.")

let names = Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT")

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a Chrome trace-event file (virtual-time spans + gauge \
           counter tracks, loadable in Perfetto) covering the selected \
           experiments.")

let main quick list names trace =
  if list then list_experiments ()
  else begin
    Option.iter (fun _ -> Obs.Trace.enable ()) trace;
    run_suite quick names;
    Option.iter
      (fun path ->
        Obs.Export.write_trace ~path;
        Printf.printf "trace: wrote %s\n%!" path)
      trace
  end

let cmd =
  Cmd.v
    (Cmd.info "glassdb-bench"
       ~doc:"Regenerate the paper's tables and figures in simulation")
    Term.(const main $ quick $ list_flag $ names $ trace_file)

let () = exit (Cmd.eval cmd)

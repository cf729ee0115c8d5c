(* One benchmark run:

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   --trace 0 measures the end-to-end metrics with tracing off; --trace 1
   is the per-layer run (see {!Perfbench.Measure}).  Either way the run
   checks its outputs, prints its configuration, every shard's final
   digest and every metric by name with its unit, and ends with one JSON
   line.  A failed check exits 1. *)

open Perfbench
module W = Workload

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10
  and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       " " ^ String.concat " | " (List.map (fun s -> s.W.name) W.all));
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " host seconds to measure (about)");
      ("--trace", Arg.Set_int trace, " 0 = end-to-end run, 1 = per-layer run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>";
  let spec =
    match W.find !workload with
    | Some s -> s
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  let nproc = Domain.recommended_domain_count () in
  let pool = min 2 nproc in
  Glassdb_util.Pool.set_global_size pool;
  let window_s = float_of_int !seconds *. spec.W.sim_s_per_host_s in
  Printf.printf
    "# config workload=%s seed=%d trace=%d pool=%d nproc=%d ocaml=%s \
     OCAMLRUNPARAM=%s shards=%d clients=%d records=%d theta=%g \
     window_sim_s=%g setup_pool=1\n%!"
    spec.W.name !seed !trace pool nproc Sys.ocaml_version
    (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM"))
    W.shards W.clients spec.W.records spec.W.theta window_s;
  let o = Measure.run spec ~seed:!seed ~window_s ~trace:(!trace = 1) in
  Printf.printf
    "# ops=%d failed=%d op_latency_samples=%d op_p50_ms=%s verify_samples=%d \
     blocks=%d host_window_s=%.3f setup_host_s=%.3f\n"
    o.Measure.ops o.Measure.failed
    (Array.length o.Measure.op_latency)
    (Catalog.number (1000. *. W.percentile o.Measure.op_latency 0.5))
    o.Measure.verify_samples o.Measure.blocks o.Measure.host_s
    o.Measure.setup_host_s;
  Printf.printf "# setup_s by simulation: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") o.Measure.setups));
  Printf.printf "# host_ops_per_s=%s, by simulation: %s\n"
    (Catalog.number (float_of_int o.Measure.ops /. o.Measure.host_s))
    (String.concat " " (List.map (Printf.sprintf "%.1f") o.Measure.host_rates));
  if o.Measure.min_samples < 1000 then
    print_endline
      "# a simulation has fewer than 1000 latency samples: its p99 has <10 \
       beyond it";
  List.iteri
    (fun i digests ->
      Array.iteri
        (fun s d ->
          Printf.printf "# digest run=%d shard=%d block=%d root=%s head=%s\n" i s
            d.Glassdb.Ledger.block_no
            (Glassdb_util.Hex.encode d.Glassdb.Ledger.root)
            (Glassdb_util.Hex.encode d.Glassdb.Ledger.head))
        digests)
    o.Measure.digests;
  List.iter
    (fun (name, v) ->
      Printf.printf "%s %s %s\n" name (Catalog.number v)
        (Catalog.find name).Catalog.unit_)
    o.Measure.metrics;
  List.iter (Printf.printf "# FAILED CHECK: %s\n") o.Measure.problems;
  let correct = o.Measure.problems = [] in
  print_endline
    (Catalog.result_json ~correct
       ~attempted:(o.Measure.ops + o.Measure.failed)
       ~failed:o.Measure.failed
       (List.map
          (fun (n, v) -> (n, if Float.is_finite v then v else 0.))
          o.Measure.metrics));
  exit (if correct then 0 else 1)

(* Self-test of the benchmark, on tiny instances of every workload:

   - BENCHMARK.json names exactly the workloads and metrics this program
     reports, with the same units and directions, and every run prints
     each of them;
   - two runs of one seed give identical simulated-clock metrics and
     identical shard digests;
   - shard digests and simulated-clock metrics are identical at pool
     sizes 1 and 2;
   - every run passes its own correctness checks.

   Usage: selftest.exe <path to BENCHMARK.json>.  Exits 1 on a failure. *)

open Perfbench
module W = Workload

let failures = ref 0

let check cond fmt =
  Printf.ksprintf
    (fun msg ->
      if not cond then begin
        incr failures;
        Printf.printf "FAIL %s\n%!" msg
      end)
    fmt

(* --- BENCHMARK.json against the catalog --- *)

let str = function Bench1.Str s -> s | _ -> ""

let entries j key fields =
  match Bench1.field key j with
  | Some (Bench1.Arr l) ->
    List.map
      (fun m ->
        List.map
          (fun f -> Option.fold ~none:"" ~some:str (Bench1.field f m))
          fields)
      l
  | _ -> []

let check_manifest path =
  let j = Bench1.parse (In_channel.with_open_bin path In_channel.input_all) in
  let catalog l =
    List.map
      (fun m ->
        [ m.Catalog.name;
          m.Catalog.unit_;
          (match m.Catalog.better with
           | Catalog.Higher -> "higher"
           | Catalog.Lower -> "lower") ])
      l
  in
  let fields = [ "name"; "unit"; "better" ] in
  check
    (entries j "end_to_end" fields = catalog Catalog.end_to_end)
    "BENCHMARK.json end_to_end differs from the catalog";
  check
    (entries j "per_layer" fields = catalog Catalog.per_layer)
    "BENCHMARK.json per_layer differs from the catalog";
  check
    (entries j "workloads" [ "name" ] = List.map (fun s -> [ s.W.name ]) W.all)
    "BENCHMARK.json workloads differ from the program's"

(* --- tiny runs --- *)

let tiny spec = { spec with W.records = 600; warmup_s = 0.02 }
let window_s = 0.06
let seed = 7

let sim_metrics =
  [ "sim_ops_per_s"; "op_mean_ms"; "op_p99_ms"; "storage_bytes_per_user_byte" ]

let sim_view (o : Measure.outcome) =
  ( List.filter (fun (n, _) -> List.mem n sim_metrics) o.Measure.metrics,
    o.Measure.digests )

let run ~pool ~trace spec =
  Glassdb_util.Pool.set_global_size pool;
  let o = Measure.run ~probe_budget:0.01 spec ~seed ~window_s ~trace in
  check (o.Measure.problems = []) "%s pool=%d trace=%b: %s" spec.W.name pool
    trace (String.concat "; " o.Measure.problems);
  let expected = if trace then Catalog.per_layer else Catalog.end_to_end in
  check
    (List.map fst o.Measure.metrics
     = List.map (fun m -> m.Catalog.name) expected)
    "%s trace=%b: printed metrics differ from the catalog" spec.W.name trace;
  List.iter
    (fun (name, _) ->
      check ((Catalog.find name).Catalog.unit_ <> "") "%s has no unit" name)
    o.Measure.metrics;
  o

let () =
  check_manifest Sys.argv.(1);
  List.iter
    (fun spec ->
      let spec = tiny spec in
      let a = run ~pool:2 ~trace:false spec in
      let b = run ~pool:2 ~trace:false spec in
      let c = run ~pool:1 ~trace:false spec in
      ignore (run ~pool:2 ~trace:true spec);
      check (sim_view a = sim_view b)
        "%s: two runs of one seed differ on the simulated clock" spec.W.name;
      check (sim_view a = sim_view c)
        "%s: pool sizes 1 and 2 differ on the simulated clock" spec.W.name;
      Printf.printf "%s: %d ops, digests %s\n%!" spec.W.name a.Measure.ops
        (String.concat " "
           (List.concat_map
              (fun ds ->
                Array.to_list
                  (Array.map
                     (fun d ->
                       Glassdb_util.Hex.encode_prefix d.Glassdb.Ledger.root)
                     ds))
              a.Measure.digests)))
    W.all;
  if !failures > 0 then begin
    Printf.printf "perfbench selftest: %d failures\n" !failures;
    exit 1
  end;
  print_endline "perfbench selftest: ok"

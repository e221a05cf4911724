(* perfbench entry point, run from the repository root:
   main.exe --workload W --seed N --seconds S --trace 0|1

   Runs one workload, checks its outputs, prints every metric by name
   and unit, appends a provenance-stamped row to perfbench/out/runs.jsonl
   and prints the result object as the last line. Exits 1 when an
   output check fails, 2 on a usage or environment error. *)

open Perfbench

let setups = 5
let out = "perfbench/out"

let usage () =
  prerr_endline
    "usage: main.exe --workload sim-gossip|live-load|live-failover --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, traced =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some tr when t > 0.0 -> (s, t, tr)
    | _ -> usage ()
  in
  let run =
    match !workload with
    | "sim-gossip" -> Sim_gossip.run
    | "live-load" -> Live_load.run
    | "live-failover" -> Live_failover.run ~out
    | _ -> usage ()
  in
  (* a run that wedges is killed by SIGALRM well inside the 180 s the
     harness allows, exiting non-zero without a result *)
  ignore (Unix.alarm 165);
  (try Unix.mkdir out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let prov =
    {
      Report.git_rev = Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_GIT_REV");
      src_hash = Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_SRC_HASH");
      ocaml = Sys.ocaml_version;
      nproc = Domain.recommended_domain_count ();
      workload = !workload;
      seed;
      seconds;
      trace = traced;
    }
  in
  Printf.printf "provenance %s\n%!" (Report.provenance_json prov);
  let o =
    try run ~seed ~seconds ~traced ~setups with
    | Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "perfbench: %s(%s): %s\n" fn arg (Unix.error_message e);
      exit 2
    | Util.Timeout what ->
      Printf.eprintf "perfbench: %s did not finish within its time limit\n" what;
      exit 2
  in
  let lat p = Util.percentile o.Outcome.latencies_ms p in
  let e2e =
    [
      ("setup_s", Util.median o.Outcome.setup_s, "s");
      ("deliver_p50_ms", lat 50.0, "ms");
      ("deliver_p99_ms", lat 99.0, "ms");
      ("cpu_ms_per_update", o.Outcome.cpu_ms_per_update, "ms");
    ]
  in
  let violations = ref o.Outcome.violations in
  let samples = List.length o.Outcome.latencies_ms in
  (* p99 wants ten samples beyond it; the simulator's latencies are
     simulated time, so fewer suffice there *)
  let min_samples = if !workload = "sim-gossip" then 200 else 1000 in
  if samples < min_samples then
    violations :=
      !violations @ [ Printf.sprintf "only %d latency samples, want %d" samples min_samples ];
  List.iter
    (fun (name, v, _) ->
      if not (Float.is_finite v && v > 0.0) then
        violations := !violations @ [ Printf.sprintf "%s is %g" name v ])
    e2e;
  let tag = if traced then "traced " else "" in
  List.iter (fun (name, v, unit) -> Printf.printf "%smetric %s %.6g %s\n" tag name v unit) e2e;
  Printf.printf "%smetric deliver_samples %d count\n" tag samples;
  List.iter
    (fun (name, v, unit) -> Printf.printf "%smetric %s %.6g %s\n" tag name v unit)
    o.Outcome.info;
  Printf.printf "%smetric failed_frac %.6g ratio\n" tag
    (float_of_int o.Outcome.failed /. float_of_int (max 1 o.Outcome.attempted));
  let layer_metrics =
    match (traced, o.Outcome.window) with
    | false, _ -> []
    | true, None -> failwith "a traced run measured no traced window"
    | true, Some w ->
      let self = Layers.self_sum w.Layers.spans in
      Printf.printf "layers self time %.4g s of %.4g s wall\n" self w.Layers.wall_s;
      if self > w.Layers.wall_s then
        violations := !violations @ [ "layer self times exceed the traced window's wall time" ];
      let path =
        Filename.concat out (Printf.sprintf "trace-%s-%d.jsonl" !workload seed)
      in
      Spans.write_jsonl w.Layers.spans path;
      Printf.printf "spans %d kept, %d beyond capacity, written to %s\n"
        (Spans.kept w.Layers.spans) (Spans.dropped w.Layers.spans) path;
      let ms = Layers.metrics w in
      List.iter (fun (n, v, u, better) -> Printf.printf "layer %s %.6g %s %s\n" n v u better) ms;
      List.map (fun (n, v, u, _) -> (n, v, u)) ms
  in
  List.iter (fun v -> Printf.printf "check failed: %s\n" v) !violations;
  let correct = !violations = [] in
  Report.append_row (Filename.concat out "runs.jsonl") ~prov ~correct
    ~attempted:o.Outcome.attempted ~failed:o.Outcome.failed ~violations:!violations
    (e2e @ o.Outcome.info @ layer_metrics);
  print_endline
    (Report.result_json ~correct ~attempted:o.Outcome.attempted ~failed:o.Outcome.failed
       (if traced then layer_metrics else e2e));
  exit (if correct then 0 else 1)

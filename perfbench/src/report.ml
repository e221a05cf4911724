(* What a run prints: a provenance line, one line per metric by name
   and unit, and as the last line the result object
   {correct, attempted, failed, metrics}. *)

type provenance = {
  git_rev : string;
  src_hash : string;
  ocaml : string;
  nproc : int;
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
}

let json_string s = Printf.sprintf "%S" s

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let provenance_json p =
  Printf.sprintf
    "{\"git_rev\":%s,\"src_hash\":%s,\"ocaml\":%s,\"nproc\":%d,\"workload\":%s,\"seed\":%d,\"seconds\":%s,\"trace\":%b}"
    (json_string p.git_rev) (json_string p.src_hash) (json_string p.ocaml) p.nproc
    (json_string p.workload) p.seed (json_float p.seconds) p.trace

let metrics_json ms =
  String.concat ","
    (List.map
       (fun (name, v, unit) ->
         Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string name) (json_float v)
           (json_string unit))
       ms)

let result_json ~correct ~attempted ~failed ms =
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" correct
    attempted failed (metrics_json ms)

(* One provenance-stamped row per run, appended to [path]. *)
let append_row path ~prov ~correct ~attempted ~failed ~violations ms =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  Printf.fprintf oc
    "{\"provenance\":%s,\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"violations\":[%s],\"metrics\":{%s}}\n"
    (provenance_json prov) correct attempted failed
    (String.concat "," (List.map json_string violations))
    (metrics_json ms)

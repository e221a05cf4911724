(* What one workload run hands back to the report. *)

type t = {
  setup_s : float list;  (* one per set-up *)
  latencies_ms : float list;  (* due -> delivered at every member *)
  cpu_ms_per_update : float;
  attempted : int;
  failed : int;
  violations : string list;  (* output-check failures; empty when correct *)
  info : (string * float * string) list;
      (* workload-specific end-to-end numbers: name, value, unit *)
  window : Layers.window option;  (* the traced window, in traced runs *)
}

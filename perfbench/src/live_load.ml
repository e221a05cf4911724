(* live-load: the 5-member live cluster under an open-loop submit
   stream, in two phases.

   - Paced: 100 updates/s spread over the members. Latency here is set
     by the decision period D = 30 ms, not by CPU, so per-op speed-ups
     should leave it alone; CPU per update is measured here.
   - Ramp: steps of rising rate. A step passes when its p99 stays
     within [p99_limit_ms] = 2 D, its backlog does not grow, nothing
     stays undelivered and no view changes. The first failing step ends
     the ramp; a step whose backlog grows is cut short, so the cluster
     never sits in the collapse past the cliff. *)

open Tasim
module R = Live_rig

let paced_rate = 100
let p99_limit_ms = 60.0
let ramp_rates = [ 200; 300; 400; 500; 600; 700; 800; 1000; 1200 ]
let step_s = 1.0

(* a step is cut once this much submitted work is outstanding *)
let backlog_s = 0.2
let drain_bound = Time.of_sec 2

type phase = {
  subs : R.update list;
  user_s : float;
  sys_s : float;
  drained : bool;
  aborted : bool;
  views : int;
}

(* One open-loop phase at [rate] for [span_s], then a bounded drain. *)
let phase rig ~rate ~span_s =
  let views0 = rig.R.views in
  let u0, s0 = Util.cpu () in
  let subs = ref [] in
  let backlog = max 4 (int_of_float (float_of_int rate *. backlog_s)) in
  let aborted = ref false in
  let g = R.generator rig ~rate_per_s:rate ~span:(Time.of_sec_f span_s) in
  R.drive rig g
    ~on_new:(fun u -> subs := u :: !subs)
    ~on_pass:(fun () ->
      if Hashtbl.length rig.R.outstanding > backlog then aborted := true;
      !aborted);
  let drained = R.drain rig ~timeout:drain_bound in
  let u1, s1 = Util.cpu () in
  {
    subs = !subs;
    user_s = u1 -. u0;
    sys_s = s1 -. s0;
    drained;
    aborted = !aborted;
    views = rig.R.views - views0;
  }

let done_ (u : R.update) = u.R.done_at <> None
let completed p = List.length (List.filter done_ p.subs)

let latencies p =
  List.map
    (fun (u : R.update) ->
      match u.R.done_at with
      | Some at -> Time.to_ms_f (Time.sub at u.R.due)
      | None -> Float.infinity)
    p.subs

let cpu_ms_per_update p =
  (p.user_s +. p.sys_s) *. 1e3 /. float_of_int (max 1 (completed p))

let run ~seed ~seconds ~traced ~setups =
  let setup_times = ref [] in
  let last = ref None in
  for i = 0 to setups - 1 do
    let t0 = Util.wall () in
    let rig =
      R.create ~seed ~setup:i ~traced ~watch:false ~store:(Runtime.Live_store.in_memory ())
    in
    (try R.form rig
     with e ->
       R.shutdown rig;
       raise e);
    setup_times := (Util.wall () -. t0) :: !setup_times;
    if i < setups - 1 then R.shutdown rig else last := Some rig
  done;
  let rig = Option.get !last in
  Fun.protect ~finally:(fun () -> R.shutdown rig) @@ fun () ->
  let paced_s = seconds *. 0.6 in
  let ramp_s = seconds -. paced_s in
  (* the traced run measures an untraced stretch of the paced phase
     first, for the tracing overhead *)
  let plain = phase rig ~rate:paced_rate ~span_s:(if traced then paced_s *. 0.3 else paced_s) in
  let frames0 = R.frames rig and sys0 = R.syscalls rig and passes0 = rig.R.passes in
  let st = Runtime.Live_store.stats rig.R.store in
  let persist0 = Stats.count st "live:store:persist" in
  let pfail0 = Stats.count st "live:store:persist-failed" in
  let susp0 = rig.R.suspicions and late0 = rig.R.late_rejected and views0 = rig.R.views in
  let spans = Spans.create Layers.span_names in
  let u0, s0 = Util.cpu () in
  let w0 = Util.wall () in
  let paced =
    if not traced then [ plain ]
    else begin
      Layers.tracer := Some spans;
      [ plain; phase rig ~rate:paced_rate ~span_s:(paced_s *. 0.7) ]
    end
  in
  let ramp_deadline = Util.wall () +. ramp_s in
  let rec ramp passed = function
    | [] -> (passed, None)
    | rate :: rest ->
      if Util.wall () +. step_s > ramp_deadline then (passed, None)
      else begin
        let p = phase rig ~rate ~span_s:step_s in
        let ok =
          (not p.aborted) && p.drained && p.views = 0
          && Util.percentile (latencies p) 99.0 <= p99_limit_ms
        in
        if ok then ramp ((rate, p) :: passed) rest else (passed, Some (rate, p))
      end
  in
  let passed, failing = ramp [] ramp_rates in
  let u1, s1 = Util.cpu () in
  let wall_s = Util.wall () -. w0 in
  Layers.tracer := None;
  let final_drained = R.drain rig ~timeout:drain_bound in
  let counted_phases = paced @ List.map snd passed in
  let subs = List.concat_map (fun p -> p.subs) counted_phases in
  let counted = List.filter_map (fun u -> if done_ u then Some u.R.uid else None) subs in
  let violations =
    List.concat_map (fun p -> Checker.no_view_changes ~phase:"load" p.views) counted_phases
    @ (if rig.R.suspicions > 0 && failing = None then
         [ Printf.sprintf "%d suspicion(s) with no overloaded step" rig.R.suspicions ]
       else [])
    @ R.check rig ~drained:final_drained ~counted
  in
  let paced_lat = List.concat_map latencies paced in
  let max_rate = match passed with (r, _) :: _ -> r | [] -> paced_rate in
  let last_paced = List.nth paced (List.length paced - 1) in
  let window =
    if not traced then None
    else
      Some
        {
          Layers.spans;
          wall_s;
          user_s = u1 -. u0;
          sys_s = s1 -. s0;
          updates =
            List.length
              (List.filter done_
                 (last_paced.subs @ List.concat_map (fun (_, p) -> p.subs) passed
                 @ match failing with Some (_, p) -> p.subs | None -> []));
          engine_events = 0;
          minor_words = 0.0;
          late_rejected = rig.R.late_rejected - late0;
          suspicions = rig.R.suspicions - susp0;
          views = rig.R.views - views0;
          frames = R.frames rig - frames0;
          syscalls = R.syscalls rig - sys0;
          passes = rig.R.passes - passes0;
          store_persists = Stats.count st "live:store:persist" - persist0;
          store_failures = Stats.count st "live:store:persist-failed" - pfail0;
          gen_late_p99_ms = Util.percentile rig.R.late_ms 99.0;
          overhead_frac = (cpu_ms_per_update last_paced /. cpu_ms_per_update plain) -. 1.0;
        }
  in
  let info =
    [
      ("max_rate_per_s", float_of_int max_rate, "updates/s");
      ("generator_late_p99_ms", Util.percentile rig.R.late_ms 99.0, "ms");
      ("cpu_ms_per_update_raw", cpu_ms_per_update last_paced, "ms");
      ("host_kernel_ms", Util.Host.kernel_ms rig.R.host, "ms");
    ]
    @
    match failing with
    | Some (rate, p) ->
      [
        ("ramp_fail_rate_per_s", float_of_int rate, "updates/s");
        ("ramp_fail_p99_ms", Util.percentile (latencies p) 99.0, "ms");
        ("ramp_fail_undelivered", float_of_int (List.length p.subs - completed p), "count");
      ]
    | None -> []
  in
  {
    Outcome.setup_s = List.rev !setup_times;
    latencies_ms = paced_lat;
    cpu_ms_per_update = cpu_ms_per_update last_paced *. Util.Host.scale rig.R.host;
    attempted = List.length subs;
    failed = List.length subs - List.length counted;
    violations;
    info;
    window;
  }

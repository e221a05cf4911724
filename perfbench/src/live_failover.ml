(* live-failover: the live cluster with an on-disk Live_store, a low
   paced rate, and repeated decider kills.

   Members [victims] take turns to die: each cycle waits until one of
   them, as the current decider, broadcasts a decision — seen in the
   wrapped automaton's effects — and kills it right then, so detection
   delay does not depend on where in the cycle the kill lands. The
   victim restarts [restart_delay] after the kill (once excluded) and
   must be readmitted before the next cycle.

   Updates are submitted only at the survivors, the members never
   killed. A restarted member numbers its proposals from 0 again, so
   the group drops its new proposals as already received, and where
   one does get ordered the members disagree on its payload; submitting
   at a restarted member would turn that defect into failed checks on
   every run. A client retries an update not delivered within
   [retry_after] at another survivor, doubling its wait after each
   attempt up to [retry_cap] so retries cannot swamp a slow group;
   retries are new proposals of the same update. *)

open Tasim
module R = Live_rig

let rate = 60
let victims = [ 3; 4 ]
let retry_after = Time.of_ms 60
let retry_cap = Time.of_sec 1
let max_tries = 8
let restart_delay = Time.of_ms 300

(* quiet time after a rejoin before the next kill is armed *)
let settle = Time.of_ms 300
let exclusion_bound = Time.of_sec 5
let rejoin_bound = Time.of_sec 10
let drain_bound = Time.of_sec 5

type stage =
  | Steady of Time.t  (* armed from this time on *)
  | Excluding of int
  | Down of int
  | Rejoining of int

type cycle = {
  victim : int;
  killed_at : Time.t;
  mutable excluded_in : Time.t option;
  mutable restarted_at : Time.t option;
  mutable rejoined_in : Time.t option;
  mutable first_after : R.update option;  (* first update due after the kill *)
}

let full = Proc_set.full ~n:R.n

let run ~out ~seed ~seconds ~traced ~setups =
  let dir =
    Filename.concat out (Printf.sprintf "store-%d-%d" (Unix.getpid ()) seed)
  in
  Fun.protect ~finally:(fun () -> Util.rm_rf dir) @@ fun () ->
  let setup_times = ref [] in
  let last = ref None in
  for i = 0 to setups - 1 do
    Util.rm_rf dir;
    let t0 = Util.wall () in
    let store = Runtime.Live_store.on_disk ~dir () in
    let rig = R.create ~seed ~setup:i ~traced ~watch:true ~store in
    (try R.form rig
     with e ->
       R.shutdown rig;
       raise e);
    setup_times := (Util.wall () -. t0) :: !setup_times;
    if i < setups - 1 then R.shutdown rig else last := Some rig
  done;
  let rig = Option.get !last in
  Fun.protect ~finally:(fun () -> R.shutdown rig) @@ fun () ->
  let violations = ref [] in
  let fail s = violations := s :: !violations in
  let cycles = ref [] in
  let stage = ref (Steady (R.now rig)) in
  let stop_cycles = ref false in
  let node i = rig.R.nodes.(i) in
  (* client retries, at a member other than the last one tried *)
  let retry () =
    let now = R.now rig in
    Hashtbl.iter
      (fun _ (u : R.update) ->
        let wait = Time.min retry_cap (Time.mul retry_after (1 lsl min 10 (max 0 (u.R.tries - 1)))) in
        if Time.compare (Time.sub now u.R.last_try) wait >= 0 then
          if u.R.tries >= max_tries then u.R.last_try <- Time.infinity
          else
            match R.pick_member rig ~avoid:(u.R.last_node :: victims) with
            | Some i -> R.submit_attempt rig u ~at_node:i
            | None -> ())
      rig.R.outstanding
  in
  let on_new u =
    match !cycles with
    | c :: _ when c.first_after = None -> c.first_after <- Some u
    | _ -> ()
  in
  let on_pass () =
    let now = R.now rig in
    retry ();
    (match !stage with
    | Steady armed_at ->
      let p = rig.R.decision_from in
      if (not !stop_cycles) && Time.compare now armed_at >= 0 && List.mem p victims then begin
        Runtime.Node.kill (node p);
        R.close_segment rig p;
        R.forget_member rig p;
        cycles :=
          {
            victim = p;
            killed_at = now;
            excluded_in = None;
            restarted_at = None;
            rejoined_in = None;
            first_after = None;
          }
          :: !cycles;
        stage := Excluding p
      end
    | Excluding p ->
      let c = List.hd !cycles in
      if R.agreed_on rig (Proc_set.remove (Proc_id.of_int p) full) then begin
        List.iter fail (R.invariants rig ~phase:"exclusion");
        c.excluded_in <- Some (Time.sub now c.killed_at);
        stage := Down p
      end
      else if Time.compare (Time.sub now c.killed_at) exclusion_bound > 0 then begin
        fail (Printf.sprintf "p%d not excluded within %s" p (Time.to_string exclusion_bound));
        stop_cycles := true;
        stage := Down p
      end
    | Down p ->
      let c = List.hd !cycles in
      if Time.compare (Time.sub now c.killed_at) restart_delay >= 0 then begin
        Runtime.Node.restart (node p);
        c.restarted_at <- Some now;
        stage := Rejoining p
      end
    | Rejoining p ->
      let c = List.hd !cycles in
      let since = Time.sub now (Option.get c.restarted_at) in
      if R.agreed_on rig full then begin
        List.iter fail (R.invariants rig ~phase:"rejoin");
        c.rejoined_in <- Some since;
        stage := Steady (Time.add now settle)
      end
      else if Time.compare since rejoin_bound > 0 then begin
        fail (Printf.sprintf "p%d not readmitted within %s" p (Time.to_string rejoin_bound));
        stop_cycles := true;
        stage := Steady Time.infinity
      end);
    false
  in
  let frames0 = R.frames rig and sys0 = R.syscalls rig and passes0 = rig.R.passes in
  let st = Runtime.Live_store.stats rig.R.store in
  let persist0 = Stats.count st "live:store:persist" in
  let pfail0 = Stats.count st "live:store:persist-failed" in
  let susp0 = rig.R.suspicions and late0 = rig.R.late_rejected and views0 = rig.R.views in
  let spans = Spans.create Layers.span_names in
  (* one open-loop stretch: wall, user and system CPU, updates
     completed *)
  let stretch span_s =
    let c0 = rig.R.completed in
    let u0, s0 = Util.cpu () in
    let w0 = Util.wall () in
    let g = R.generator rig ~rate_per_s:rate ~span:(Time.of_sec_f span_s) in
    R.drive rig g ~avoid:victims ~on_new ~on_pass;
    let u1, s1 = Util.cpu () in
    (Util.wall () -. w0, u1 -. u0, s1 -. s0, rig.R.completed - c0)
  in
  let per_update (_, u, s, c) = (u +. s) *. 1e3 /. float_of_int (max 1 c) in
  let plain = stretch (if traced then seconds *. 0.3 else seconds) in
  if traced then Layers.tracer := Some spans;
  let measured = if traced then stretch (seconds *. 0.7) else plain in
  Layers.tracer := None;
  (* finish the cycle in progress, then let in-flight updates land *)
  stop_cycles := true;
  ignore
    (R.run_until rig ~timeout:rejoin_bound (fun () ->
         ignore (on_pass ());
         match !stage with Steady _ -> true | _ -> false));
  let drained =
    R.run_until rig ~timeout:drain_bound (fun () ->
        retry ();
        Hashtbl.length rig.R.outstanding = 0)
  in
  let ms t = Time.to_ms_f t in
  let cycles = List.rev !cycles in
  List.iter
    (fun c ->
      if c.excluded_in = None || c.rejoined_in = None then
        fail (Printf.sprintf "cycle killing p%d did not exclude and readmit it" c.victim))
    cycles;
  if cycles = [] then fail "no kill cycle ran";
  let updates = List.map fst rig.R.latencies in
  let counted = List.map (fun (u : R.update) -> u.R.uid) updates in
  violations := List.rev !violations @ R.check rig ~drained ~counted;
  let med f = Util.median (List.filter_map f cycles) in
  let outage c =
    match c.first_after with
    | Some { R.done_at = Some at; _ } -> Some (ms (Time.sub at c.killed_at))
    | _ -> None
  in
  let wall_s, user_s, sys_s, completed = measured in
  let window =
    if not traced then None
    else
      Some
        {
          Layers.spans;
          wall_s;
          user_s;
          sys_s;
          updates = completed;
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
          overhead_frac = (per_update measured /. per_update plain) -. 1.0;
        }
  in
  {
    Outcome.setup_s = List.rev !setup_times;
    latencies_ms = List.map snd rig.R.latencies;
    cpu_ms_per_update = per_update measured *. Util.Host.scale rig.R.host;
    attempted = rig.R.next_uid;
    failed = rig.R.next_uid - List.length updates;
    violations = !violations;
    info =
      [
        ("kills", float_of_int (List.length cycles), "count");
        ("exclusion_ms", med (fun c -> Option.map ms c.excluded_in), "ms");
        ("outage_ms", med outage, "ms");
        ("rejoin_ms", med (fun c -> Option.map ms c.rejoined_in), "ms");
        ("generator_late_p99_ms", Util.percentile rig.R.late_ms 99.0, "ms");
        ("cpu_ms_per_update_raw", per_update measured, "ms");
        ("host_kernel_ms", Util.Host.kernel_ms rig.R.host, "ms");
      ];
    window;
  }

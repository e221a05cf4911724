(* sim-gossip: the deterministic simulator at N=128 with gossip
   dissemination and adaptive suspicion. Engine, Member, the failure
   detector and the oal do all the work; there is no codec and no
   socket. The rig rebuilds Service.create's wiring (engine, oracle
   clocks, stable store, member automaton) so the traced run can wrap
   the member automaton. *)

open Tasim
open Broadcast
open Timewheel

let n = 128

(* one simulated update every 100 ms on average, at a random member *)
let submit_gap_min = Time.of_ms 50
let submit_gap_max = Time.of_ms 150
let chunk = Time.of_ms 200
let drain = Time.of_ms 1500
(* the fixed stretch every set-up replays, to check determinism *)
let replay_span = Time.of_ms 500

type rig = {
  engine : ((int, int list) Member.state, (int, int list) Control_msg.t, int Member.obs) Engine.t;
  rng : Rng.t;  (* the submit stream *)
  mutable next_due : Time.t;
  mutable next_id : int;
  due : (int, Time.t) Hashtbl.t;  (* update id -> submit time *)
  got : (int, int) Hashtbl.t;  (* update id -> members delivered *)
  mutable latencies_us : float list;  (* of updates submitted in the window *)
  mutable window_from : int;  (* first update id of the measured window *)
  mutable completed : int;  (* updates delivered at every member *)
  seqs : Util.Ibuf.t array;  (* per member delivery order *)
  mutable timers : int;
  mutable suspicions : int;
  mutable late_rejected : int;
  mutable views : int;
}

let params () =
  Params.make ~n ~dissemination:Dissemination.default_gossip
    ~adaptive_suspicion:true ()

let wrap_member rig (a : (_, _, _) Engine.automaton) ~traced =
  if not traced then
    {
      a with
      Engine.on_timer =
        (fun s ~clock ~key ->
          rig.timers <- rig.timers + 1;
          a.Engine.on_timer s ~clock ~key);
    }
  else
    {
      a with
      Engine.on_receive =
        (fun s ~clock ~src m ->
          let payload =
            match m with
            | Control_msg.Submit { payload; _ } -> payload
            | Control_msg.Proposal_msg p | Control_msg.Retransmit p -> p.Proposal.payload
            | _ -> -1
          in
          Layers.wrap
            (Layers.sp_member_recv (Layers.member_kind m))
            ~payload
            (fun () -> a.Engine.on_receive s ~clock ~src m));
      on_timer =
        (fun s ~clock ~key ->
          rig.timers <- rig.timers + 1;
          Layers.wrap Layers.sp_member_timer ~payload:(-1) (fun () ->
              a.Engine.on_timer s ~clock ~key));
    }

let create ~seed ~traced =
  let params = params () in
  let net = { Net.default_config with Net.delta = params.Params.delta } in
  let engine = Engine.create { Engine.default_config with Engine.net; seed } ~n in
  Engine.classify engine Control_msg.kind;
  let clocks =
    Clocksync.Oracle.clocks (Engine.rng engine) ~n ~epsilon:params.Params.epsilon
      ~max_drift:1e-6
  in
  let storage = Storage.Store.create ~n () in
  let member_cfg =
    Member.config
      ~apply:(fun acc v -> v :: acc)
      ~persist:(fun ~self ~now r -> Storage.Store.write storage ~proc:self ~now r)
      ~restore:(fun ~self ~now -> Storage.Store.read storage ~proc:self ~now)
      ~initial_app:[] params
  in
  let rig =
    {
      engine;
      rng = Rng.create (seed * 7919 + 17);
      next_due = Time.zero;
      next_id = 0;
      due = Hashtbl.create 4096;
      got = Hashtbl.create 4096;
      latencies_us = [];
      window_from = max_int;
      completed = 0;
      seqs = Array.init n (fun _ -> Util.Ibuf.create ());
      timers = 0;
      suspicions = 0;
      late_rejected = 0;
      views = 0;
    }
  in
  let automaton = wrap_member rig (Member.automaton member_cfg) ~traced in
  List.iter
    (fun id -> Engine.add_process engine id automaton ~clock:clocks.(Proc_id.to_int id) ())
    (Proc_id.all ~n);
  Engine.on_observe engine (fun at proc obs ->
      match obs with
      | Member.Delivered { proposal; _ } ->
        let id = proposal.Proposal.payload in
        Util.Ibuf.push rig.seqs.(Proc_id.to_int proc) id;
        let k = 1 + Option.value ~default:0 (Hashtbl.find_opt rig.got id) in
        Hashtbl.replace rig.got id k;
        if k = n then begin
          rig.completed <- rig.completed + 1;
          if id >= rig.window_from then
            rig.latencies_us <-
              float_of_int (Time.to_us (Time.sub at (Hashtbl.find rig.due id)))
              :: rig.latencies_us
        end
      | Member.View_installed _ -> rig.views <- rig.views + 1
      | Member.Suspected _ -> rig.suspicions <- rig.suspicions + 1
      | Member.Late_rejected _ -> rig.late_rejected <- rig.late_rejected + 1
      | Member.Transition _ | Member.Became_decider | Member.Excluded -> ());
  rig

let full_view rig =
  let full = Proc_set.full ~n in
  match Engine.state_of rig.engine (Proc_id.of_int 0) with
  | None -> false
  | Some s0 ->
    let gid = Member.group_id s0 in
    Group_id.is_known gid
    && List.for_all
         (fun p ->
           match Engine.state_of rig.engine p with
           | Some s -> Proc_set.equal (Member.group s) full && Group_id.equal (Member.group_id s) gid
           | None -> false)
         (Proc_id.all ~n)

(* The formation point the repo's M3 bench and Run.settle use: run
   cycle by cycle until all members agree on the full view, then one
   more cycle so rotation is under way. *)
let form rig =
  let cycle = Params.cycle (params ()) in
  let run_cycle () = Engine.run rig.engine ~until:(Time.add (Engine.now rig.engine) cycle) in
  let rec go tries =
    if tries = 0 then raise (Util.Timeout "sim-gossip formation");
    run_cycle ();
    if full_view rig then run_cycle () else go (tries - 1)
  in
  go 20

(* Schedule the submit stream up to [until] and run the engine there. *)
let advance rig ~until ~submit =
  if submit then begin
    if Time.compare rig.next_due (Engine.now rig.engine) < 0 then
      rig.next_due <- Engine.now rig.engine;
    while Time.compare rig.next_due until < 0 do
      let id = rig.next_id in
      rig.next_id <- id + 1;
      Hashtbl.replace rig.due id rig.next_due;
      Engine.inject_at rig.engine rig.next_due
        (Proc_id.of_int (Rng.int rig.rng n))
        (Member.submit ~semantics:Semantics.total_strong id);
      rig.next_due <-
        Time.add rig.next_due (Rng.uniform_time rig.rng submit_gap_min submit_gap_max)
    done
  end;
  Layers.wrap Layers.sp_engine ~payload:(-1) (fun () -> Engine.run rig.engine ~until)

let events rig =
  let c = Stats.counters (Engine.stats rig.engine) in
  let starts p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  List.fold_left
    (fun acc (name, v) -> if starts "sent:" name || starts "delivered:" name then acc + v else acc)
    rig.timers c

let seq_hash rig =
  Array.fold_left
    (fun h b -> Array.fold_left (fun h x -> (h * 1_000_003) lxor x) (h + 1) (Util.Ibuf.to_array b))
    17 rig.seqs

(* One set-up: create, form, then replay the fixed stretch. Returns the
   rig, its set-up seconds and the replay fingerprint. *)
let setup ~seed ~traced =
  (* start from a clean heap so the previous set-up's garbage is not
     collected on this one's clock *)
  Gc.full_major ();
  let t0 = Util.wall () in
  let rig = create ~seed ~traced in
  form rig;
  let setup_s = Util.wall () -. t0 in
  let stop = Time.add (Engine.now rig.engine) replay_span in
  advance rig ~until:stop ~submit:true;
  (rig, setup_s, (events rig, seq_hash rig))

type stretch = {
  wall_s : float;
  user_s : float;
  sys_s : float;
  events : int;
  completed : int;
  minor_words : float;
}

let measure rig ~host ~span_s =
  let ev0 = events rig and done0 = rig.completed in
  let mw0 = Gc.minor_words () in
  let u0, s0 = Util.cpu () in
  let w0 = Util.wall () in
  while Util.wall () -. w0 < span_s do
    advance rig ~until:(Time.add (Engine.now rig.engine) chunk) ~submit:true;
    Util.Host.sample host
  done;
  let u1, s1 = Util.cpu () in
  {
    wall_s = Util.wall () -. w0;
    user_s = u1 -. u0;
    sys_s = s1 -. s0;
    events = events rig - ev0;
    completed = rig.completed - done0;
    minor_words = Gc.minor_words () -. mw0;
  }

let cpu_ms_per_update st =
  (st.user_s +. st.sys_s) *. 1e3 /. float_of_int (max 1 st.completed)

let run ~seed ~seconds ~traced ~setups =
  let fail = ref [] in
  let setup_times = ref [] and fp0 = ref None and last = ref None in
  for i = 1 to setups do
    let rig, s, fp = setup ~seed ~traced in
    setup_times := s :: !setup_times;
    (match !fp0 with
    | None -> fp0 := Some fp
    | Some f ->
      if f <> fp then
        fail := "two set-ups at one seed replayed different event counts or deliveries" :: !fail);
    if i = setups then last := Some rig
  done;
  let rig = Option.get !last in
  Gc.full_major ();
  let base_views = rig.views in
  rig.window_from <- rig.next_id;
  let host = Util.Host.create () in
  let plain = measure rig ~host ~span_s:(if traced then seconds *. 0.3 else seconds) in
  let rate st = float_of_int st.events /. st.wall_s in
  let window, reported =
    if not traced then (None, plain)
    else begin
      let spans = Spans.create Layers.span_names in
      let susp0 = rig.suspicions and late0 = rig.late_rejected and views0 = rig.views in
      Layers.tracer := Some spans;
      let st = measure rig ~host ~span_s:(seconds *. 0.7) in
      Layers.tracer := None;
      ( Some
          {
            Layers.spans;
            wall_s = st.wall_s;
            user_s = st.user_s;
            sys_s = st.sys_s;
            updates = st.completed;
            engine_events = st.events;
            minor_words = st.minor_words;
            late_rejected = rig.late_rejected - late0;
            suspicions = rig.suspicions - susp0;
            views = rig.views - views0;
            frames = 0;
            syscalls = 0;
            passes = 0;
            store_persists = 0;
            store_failures = 0;
            gen_late_p99_ms = 0.0;
            overhead_frac = 1.0 -. (rate st /. rate plain);
          },
        st )
    end
  in
  (* drain: stop submitting, let everything in flight land *)
  advance rig ~until:(Time.add (Engine.now rig.engine) drain) ~submit:false;
  let segs =
    Array.to_list
      (Array.mapi
         (fun i b ->
           { Checker.who = Printf.sprintf "p%d" i; stable = true; items = Util.Ibuf.to_array b })
         rig.seqs)
  in
  fail := Checker.deliveries ~drained:true segs @ !fail;
  if not (full_view rig) then fail := "the full group is not agreed at the end" :: !fail;
  if rig.suspicions > 0 then
    fail := Printf.sprintf "%d suspicion(s) in a faultless run" rig.suspicions :: !fail;
  fail := Checker.no_view_changes ~phase:"steady state" (rig.views - base_views) @ !fail;
  {
    (* formation is pure CPU work: scaled to the reference host speed
       like the CPU metric *)
    Outcome.setup_s = List.rev_map (fun s -> s *. Util.Host.scale host) !setup_times;
    latencies_ms = List.map (fun us -> us /. 1e3) rig.latencies_us;
    cpu_ms_per_update = cpu_ms_per_update reported *. Util.Host.scale host;
    attempted = rig.next_id;
    failed = rig.next_id - rig.completed;
    violations = List.rev !fail;
    info =
      [
        ("sim_events_per_s", rate reported, "events/s");
        ("cpu_ms_per_update_raw", cpu_ms_per_update reported, "ms");
        ("host_kernel_ms", Util.Host.kernel_ms host, "ms");
        ("setup_s_raw", Util.median !setup_times, "s");
      ];
    window;
  }

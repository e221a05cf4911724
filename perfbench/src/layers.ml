(* Layer boundaries the traced run wraps, and the per-layer metrics it
   reports. The span names and the metric list are shared by every
   workload so each traced run emits the same metric set; a layer a
   workload does not exercise reports 0. *)

open Timewheel

let member_kinds =
  [|
    "submit"; "proposal"; "retransmit"; "nack"; "decision"; "no-decision";
    "join"; "reconfiguration"; "state-transfer"; "gossip";
  |]

(* every kind that crosses the wire: member traffic plus clocksync *)
let wire_kinds = Array.append member_kinds [| "cs-request"; "cs-reply" |]

let member_kind : (_, _) Control_msg.t -> int = function
  | Control_msg.Submit _ -> 0
  | Control_msg.Proposal_msg _ -> 1
  | Control_msg.Retransmit _ -> 2
  | Control_msg.Nack _ -> 3
  | Control_msg.Decision _ -> 4
  | Control_msg.No_decision _ -> 5
  | Control_msg.Join_msg _ -> 6
  | Control_msg.Reconfig _ -> 7
  | Control_msg.State_transfer _ -> 8
  | Control_msg.Gossip _ -> 9

let wire_kind : (_, _) Full_stack.msg -> int = function
  | Full_stack.Gc m -> member_kind m
  | Full_stack.Cs (Clocksync.Protocol.Request _) -> 10
  | Full_stack.Cs (Clocksync.Protocol.Reply _) -> 11

(* span name indices *)
let n_member = Array.length member_kinds
let n_wire = Array.length wire_kinds
let sp_engine = 0
let sp_member_recv k = 1 + k
let sp_member_timer = 1 + n_member
let sp_clocksync = sp_member_timer + 1
let sp_encode k = sp_clocksync + 1 + k
let sp_decode k = sp_clocksync + 1 + n_wire + k
let sp_persist = sp_clocksync + 1 + (2 * n_wire)
let sp_restore = sp_persist + 1

let span_names =
  Array.concat
    [
      [| "engine.run" |];
      Array.map (fun k -> "member.recv." ^ k) member_kinds;
      [| "member.timer"; "clocksync.step" |];
      Array.map (fun k -> "codec.encode." ^ k) wire_kinds;
      Array.map (fun k -> "codec.decode." ^ k) wire_kinds;
      [| "store.persist"; "store.restore" |];
    ]

(* The tracer the wrappers record into; [None] outside the traced
   window, when every wrapper calls straight through. *)
let tracer : Spans.t option ref = ref None

let wrap name ~payload f =
  match !tracer with None -> f () | Some t -> Spans.span t name ~payload f

(* What a workload measured over its traced window. *)
type window = {
  spans : Spans.t;
  wall_s : float;
  user_s : float;
  sys_s : float;
  updates : int;  (* updates delivered at every member in the window *)
  engine_events : int;
  minor_words : float;
  late_rejected : int;
  suspicions : int;
  views : int;
  frames : int;  (* datagrams sent + received *)
  syscalls : int;
  passes : int;  (* poll-loop passes (predicate calls) *)
  store_persists : int;
  store_failures : int;
  gen_late_p99_ms : float;
  overhead_frac : float;
      (* how much slower the traced window ran than the untraced one,
         as a share of the untraced work rate *)
}

let per_div a b = if b = 0 then 0.0 else a /. float_of_int b

(* (name, value, unit, better) — the order and names BENCHMARK.json
   lists under per_layer. *)
let metrics w =
  let sp = w.spans in
  let calls = Spans.calls sp in
  let member_self =
    let s = ref (Spans.self_s sp sp_member_timer) in
    for k = 0 to n_member - 1 do
      s := !s +. Spans.self_s sp (sp_member_recv k)
    done;
    !s
  in
  let codec_self =
    let s = ref 0.0 in
    for k = 0 to n_wire - 1 do
      s := !s +. Spans.self_s sp (sp_encode k) +. Spans.self_s sp (sp_decode k)
    done;
    !s
  in
  let store_self = Spans.self_s sp sp_persist +. Spans.self_s sp sp_restore in
  let cs_self = Spans.self_s sp sp_clocksync in
  let engine_self = Spans.self_s sp sp_engine in
  let member_recv_calls =
    let c = ref 0 in
    for k = 1 to n_member - 1 do
      c := !c + calls (sp_member_recv k)
    done;
    !c
  in
  let bytes_total = Array.fold_left ( + ) 0 (Array.init n_wire (fun k -> Spans.amount sp (sp_encode k))) in
  let encoded = Array.fold_left ( + ) 0 (Array.init n_wire (fun k -> calls (sp_encode k))) in
  let cpu = w.user_s +. w.sys_s in
  let us_per name = per_div (Spans.self_s sp name *. 1e6) (calls name) in
  let ns_per name = per_div (Spans.self_s sp name *. 1e9) (calls name) in
  List.concat
    [
      [
        ("engine.events", float_of_int w.engine_events, "count", "higher");
        ( "engine.self_us_per_event",
          per_div (engine_self *. 1e6) w.engine_events,
          "us",
          "lower" );
        ( "gc.minor_words_per_event",
          per_div w.minor_words w.engine_events,
          "words",
          "lower" );
      ];
      Array.to_list
        (Array.mapi
           (fun k kind ->
             ( "member.calls." ^ kind,
               float_of_int (calls (sp_member_recv k)),
               "count",
               "lower" ))
           member_kinds);
      Array.to_list
        (Array.mapi
           (fun k kind -> ("member.step_us." ^ kind, us_per (sp_member_recv k), "us", "lower"))
           member_kinds);
      [
        ("member.timer_calls", float_of_int (calls sp_member_timer), "count", "lower");
        ("member.timer_us", us_per sp_member_timer, "us", "lower");
        ( "member.late_rejected_frac",
          per_div (float_of_int w.late_rejected) member_recv_calls,
          "ratio",
          "lower" );
        ("member.suspicions", float_of_int w.suspicions, "count", "lower");
        ("member.views", float_of_int w.views, "count", "lower");
        ("clocksync.calls", float_of_int (calls sp_clocksync), "count", "lower");
        ("clocksync.step_us", us_per sp_clocksync, "us", "lower");
      ];
      Array.to_list
        (Array.mapi
           (fun k kind -> ("codec.encode_ns." ^ kind, ns_per (sp_encode k), "ns", "lower"))
           wire_kinds);
      Array.to_list
        (Array.mapi
           (fun k kind -> ("codec.decode_ns." ^ kind, ns_per (sp_decode k), "ns", "lower"))
           wire_kinds);
      Array.to_list
        (Array.mapi
           (fun k kind ->
             ( "codec.bytes." ^ kind,
               per_div (float_of_int (Spans.amount sp (sp_encode k))) (calls (sp_encode k)),
               "bytes",
               "lower" ))
           wire_kinds);
      [
        ("codec.frames_per_update", per_div (float_of_int encoded) w.updates, "count", "lower");
        ("codec.bytes_per_update", per_div (float_of_int bytes_total) w.updates, "bytes", "lower");
        ( "transport.syscalls_per_frame",
          per_div (float_of_int w.syscalls) w.frames,
          "ratio",
          "lower" );
        ("cpu.sys_frac", (if cpu > 0.0 then w.sys_s /. cpu else 0.0), "ratio", "lower");
        ( "loop.user_self_s",
          (if w.passes = 0 then 0.0
           else Float.max 0.0 (w.user_s -. member_self -. codec_self -. cs_self -. store_self)),
          "s",
          "lower" );
        ( "loop.idle_frac",
          (if w.passes = 0 then 0.0 else Float.max 0.0 (1.0 -. (cpu /. w.wall_s))),
          "ratio",
          "higher" );
        ( "loop.passes_per_s",
          (if w.wall_s > 0.0 then float_of_int w.passes /. w.wall_s else 0.0),
          "1/s",
          "lower" );
        ("store.persists", float_of_int w.store_persists, "count", "lower");
        ( "store.persist_ms",
          per_div (Spans.self_s sp sp_persist *. 1e3) (calls sp_persist),
          "ms",
          "lower" );
        ( "store.restore_ms",
          per_div (Spans.self_s sp sp_restore *. 1e3) (calls sp_restore),
          "ms",
          "lower" );
        ("store.failures", float_of_int w.store_failures, "count", "lower");
        ("generator.late_p99_ms", w.gen_late_p99_ms, "ms", "lower");
        ("trace.overhead_frac", w.overhead_frac, "ratio", "lower");
      ];
    ]

(* Layer self times summed, for the check that they fit in the
   window's wall time. *)
let self_sum sp =
  let s = ref 0.0 in
  Array.iteri (fun i _ -> s := !s +. Spans.self_s sp i) span_names;
  !s

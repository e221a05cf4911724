(* The live cluster both live workloads drive: 5 members over loopback
   UDP in this process, one poll loop on one domain.

   The rig rebuilds Live.mk_node's wiring so the traced run can wrap
   the codec (Codec.encode_to / decode_bytes), the stable store
   (Live_store.persist / restore) and the Full_stack automaton (its
   clocksync and member halves) — and so deliveries are counted through
   the rig's own on_obs callback, O(1) per delivery.

   The open-loop generator and every other workload action run inside
   the poll loop's predicate: no extra thread. Updates are timed from
   the moment they were due, so a stalled loop shows as latency, and
   the generator's own lateness is recorded. *)

open Tasim
open Broadcast
open Timewheel
module Node = Runtime.Node
module Cluster = Runtime.Cluster
module Clock = Runtime.Clock
module Codec = Runtime.Codec
module Transport = Runtime.Transport
module Live_store = Runtime.Live_store
module Live = Runtime.Live

let n = 5

(* Disjoint from the ports the repo's tests and benches bind (47800 to
   49700); each set-up of a run takes its own block of 16. *)
let base_port = 51200

(* Full_stack's timer-key layout: member timers are shifted to keys of
   10 and above, smaller keys belong to clocksync and the start poll. *)
let member_key_base = 10

type update = {
  uid : int;
  due : Time.t;
  mutable done_at : Time.t option;  (* delivered at every required member *)
  mutable tries : int;
  mutable last_try : Time.t;
  mutable last_node : int;  (* where the last attempt was submitted *)
}

type attempt = {
  aid : int;
  upd : update;
  mutable got : int;  (* bitmask of members that delivered it *)
  mutable required : int;  (* members it must reach: up and in the view at submit *)
}

type node_log = {
  mutable seg : Util.Ibuf.t;  (* current segment of deliveries *)
  mutable closed : Util.Ibuf.t list;  (* segments ended by a kill or an exclusion *)
  mutable perturbed : bool;
  mutable gids : (int * int) list;  (* installed group ids, newest first *)
}

type t = {
  clock : Clock.t;
  mutable cluster : Live.cluster;
  mutable nodes : Live.node array;
  store : Live_store.t;
  rng : Rng.t;
  attempts : (string, attempt) Hashtbl.t;  (* payload -> attempt *)
  by_aid : (int, attempt) Hashtbl.t;
  outstanding : (int, update) Hashtbl.t;  (* uid -> not yet delivered *)
  logs : node_log array;
  mutable next_uid : int;
  mutable next_aid : int;
  mutable latencies : (update * float) list;  (* completed: latency ms *)
  mutable completed : int;
  mutable late_ms : float list;  (* generator lateness per submit *)
  mutable views : int;
  mutable suspicions : int;
  mutable late_rejected : int;
  mutable passes : int;
  mutable decision_from : int;  (* member whose step just broadcast a decision *)
  host : Util.Host.t;  (* sampled from the open-loop phases *)
}

let now t = Clock.now t.clock
let ms_of span = Time.to_ms_f span

let payload_id t payload =
  match Hashtbl.find_opt t.attempts payload with Some a -> a.aid | None -> -1

(* ---------------------------------------------------------------- *)
(* delivery accounting *)

(* An attempt is delivered once some member delivered it and every
   member it was required at did; kills shrink the required set, so an
   attempt every required member of which died needs a retry. *)
let complete t (a : attempt) at =
  let u = a.upd in
  if u.done_at = None && a.got <> 0 && a.got land a.required = a.required then begin
    u.done_at <- Some at;
    t.completed <- t.completed + 1;
    Hashtbl.remove t.outstanding u.uid;
    t.latencies <- (u, ms_of (Time.sub at u.due)) :: t.latencies
  end

let on_deliver t self payload at =
  Util.Ibuf.push t.logs.(self).seg (payload_id t payload);
  match Hashtbl.find_opt t.attempts payload with
  | None -> ()
  | Some a ->
    a.got <- a.got lor (1 lsl self);
    complete t a at

let close_segment t self =
  let l = t.logs.(self) in
  l.perturbed <- true;
  l.closed <- l.seg :: l.closed;
  l.seg <- Util.Ibuf.create ()

let on_obs t self at (o : Live.obs) =
  match o with
  | Full_stack.Member_obs (Member.Delivered { proposal; _ }) ->
    on_deliver t self proposal.Proposal.payload at
  | Full_stack.Member_obs (Member.View_installed { group_id; _ }) ->
    t.views <- t.views + 1;
    let l = t.logs.(self) in
    l.gids <- (Group_id.epoch group_id, Group_id.seq group_id) :: l.gids
  | Full_stack.Member_obs (Member.Suspected _) -> t.suspicions <- t.suspicions + 1
  | Full_stack.Member_obs (Member.Late_rejected _) -> t.late_rejected <- t.late_rejected + 1
  | Full_stack.Member_obs Member.Excluded -> close_segment t self
  | Full_stack.Member_obs
      (Member.Transition _ | Member.Became_decider)
  | Full_stack.Sync_obs _ | Full_stack.Member_started ->
    ()

(* ---------------------------------------------------------------- *)
(* assembly *)

let wrap_codec t =
  let encode_to = Codec.encode_to Codec.string_payload in
  let decode = Codec.decode_bytes Codec.string_payload in
  let payload_of = function
    | Full_stack.Gc (Control_msg.Proposal_msg p | Control_msg.Retransmit p) ->
      payload_id t p.Proposal.payload
    | _ -> -1
  in
  let encode_to ~sender m w =
    match !Layers.tracer with
    | None -> encode_to ~sender m w
    | Some sp ->
      let name = Layers.sp_encode (Layers.wire_kind m) in
      let len = Spans.span sp name ~payload:(payload_of m) (fun () -> encode_to ~sender m w) in
      Spans.add sp name len;
      len
  in
  let decode buf ~pos ~len =
    match !Layers.tracer with
    | None -> decode buf ~pos ~len
    | Some sp ->
      let start = Spans.now_ns () in
      let r = decode buf ~pos ~len in
      (match r with
      | Ok (_, m) -> Spans.record sp (Layers.sp_decode (Layers.wire_kind m)) ~start ~payload:(payload_of m)
      | Error _ -> ());
      r
  in
  (encode_to, decode)

let wrap_stack t ~self (a : (Live.state, Live.msg, Live.obs) Engine.automaton) =
  let scan ((_, effs) as r) =
    if
      List.exists
        (function
          | Engine.Broadcast (Full_stack.Gc (Control_msg.Decision _)) -> true | _ -> false)
        effs
    then t.decision_from <- self;
    r
  in
  let recv_span = function
    | Full_stack.Cs _ -> Layers.sp_clocksync
    | Full_stack.Gc g -> Layers.sp_member_recv (Layers.member_kind g)
  in
  let recv_payload = function
    | Full_stack.Gc (Control_msg.Submit { payload; _ }) -> payload_id t payload
    | Full_stack.Gc (Control_msg.Proposal_msg p | Control_msg.Retransmit p) ->
      payload_id t p.Proposal.payload
    | _ -> -1
  in
  {
    a with
    Engine.on_receive =
      (fun s ~clock ~src m ->
        scan
          (Layers.wrap (recv_span m) ~payload:(recv_payload m) (fun () ->
               a.Engine.on_receive s ~clock ~src m)));
    on_timer =
      (fun s ~clock ~key ->
        let name = if key >= member_key_base then Layers.sp_member_timer else Layers.sp_clocksync in
        scan (Layers.wrap name ~payload:(-1) (fun () -> a.Engine.on_timer s ~clock ~key)));
  }

(* A node that never started still holds its socket; close it too. *)
let close_node nd =
  Node.kill nd;
  let tr = Node.transport nd in
  if not (Transport.is_closed tr) then Transport.close tr

(* [traced] wraps every layer boundary; [watch] wraps the automaton
   only to see decision broadcasts (the failover workload's kill
   trigger). Without either the nodes run the library's own functions
   unwrapped. *)
let create ~seed ~setup ~traced ~watch ~store =
  let cfg = Live.config ~n ~base_port:(base_port + (16 * setup)) ~store () in
  let clock = Clock.create () in
  let persist, restore =
    if traced then
      ( (fun ~self ~now:_ r ->
          Layers.wrap Layers.sp_persist ~payload:(-1) (fun () -> Live_store.persist store ~self r)),
        fun ~self ~now:_ ->
          Layers.wrap Layers.sp_restore ~payload:(-1) (fun () -> Live_store.restore store ~self) )
    else
      ( (fun ~self ~now:_ r -> Live_store.persist store ~self r),
        fun ~self ~now:_ -> Live_store.restore store ~self )
  in
  let member_cfg =
    Member.config ~apply:(fun log u -> u :: log) ~persist ~restore ~initial_app:[]
      cfg.Live.params
  in
  let automaton = Full_stack.automaton member_cfg cfg.Live.cs_config in
  let t =
    {
      clock;
      cluster = Cluster.create ~clock ~nodes:[];
      nodes = [||];
      store;
      rng = Rng.create ((seed * 104_729) + 3);
      attempts = Hashtbl.create 4096;
      by_aid = Hashtbl.create 4096;
      outstanding = Hashtbl.create 256;
      logs =
        Array.init n (fun _ ->
            { seg = Util.Ibuf.create (); closed = []; perturbed = false; gids = [] });
      next_uid = 0;
      next_aid = 0;
      latencies = [];
      completed = 0;
      late_ms = [];
      views = 0;
      suspicions = 0;
      late_rejected = 0;
      passes = 0;
      decision_from = -1;
      host = Util.Host.create ();
    }
  in
  let port_of p = cfg.Live.base_port + Proc_id.to_int p in
  let opened = ref [] in
  let mk_node self =
    let i = Proc_id.to_int self in
    let encode_to, decode =
      if traced then wrap_codec t
      else (Codec.encode_to Codec.string_payload, Codec.decode_bytes Codec.string_payload)
    in
    let mk_transport stats =
      Transport.create ~encode_to ~decode ~kind_of:Full_stack.kind_of_msg ~self ~n ~port_of
        ~stats ()
    in
    let automaton =
      if traced || watch then wrap_stack t ~self:i automaton else automaton
    in
    let node =
      Node.create ~automaton ~clock ~mk_transport ~on_obs:(fun at o -> on_obs t i at o) ()
    in
    opened := node :: !opened;
    node
  in
  (* a bind failure (port taken) must not leak the sockets already
     open *)
  let nodes =
    try List.map mk_node (Proc_id.all ~n)
    with e ->
      List.iter close_node !opened;
      raise e
  in
  t.cluster <- Cluster.create ~clock ~nodes;
  t.nodes <- Array.of_list nodes;
  t

let shutdown t = Array.iter close_node t.nodes

(* ---------------------------------------------------------------- *)
(* views *)

(* Up, in its own group and not joining or re-forming: a restarted
   member still holds its persisted group while it rejoins, but it
   will receive what is ordered meanwhile by state transfer, not by
   delivery. *)
let in_view nd =
  Node.is_up nd
  &&
  match Live.member_of nd with
  | Some m -> (
    Member.has_group m
    && Proc_set.mem (Node.self nd) (Member.group m)
    &&
    match Creator_state.kind_of (Member.creator_state m) with
    | Creator_state.KJoin | Creator_state.KN_failure -> false
    | Creator_state.KFailure_free | Creator_state.KWrong_suspicion
    | Creator_state.KOne_failure_receive | Creator_state.KOne_failure_send ->
      true)
  | None -> false

(* Every up member holds a member state and all agree on one known
   view; that view's group. *)
let agreed t =
  let up = List.filter Node.is_up (Array.to_list t.nodes) in
  let states = List.filter_map Live.member_of up in
  match states with
  | [] -> None
  | m0 :: rest ->
    let g = Member.group m0 and gid = Member.group_id m0 in
    if
      List.length states = List.length up
      && Group_id.is_known gid
      && List.for_all
           (fun m -> Proc_set.equal (Member.group m) g && Group_id.equal (Member.group_id m) gid)
           rest
    then Some g
    else None

let agreed_on t expected =
  match agreed t with Some g -> Proc_set.equal g expected | None -> false

(* ---------------------------------------------------------------- *)
(* driving *)

(* Run the loop until [pred] holds or [timeout] passes; the predicate
   runs after every poll pass. *)
let run_until t ~timeout pred =
  let deadline = Time.add (now t) timeout in
  Cluster.run_until t.cluster ~deadline ~poll_cap:(Time.of_ms 5) (fun () ->
      t.passes <- t.passes + 1;
      pred ())

(* Start the cluster and wait until the full group is agreed. *)
let form t =
  Cluster.start t.cluster;
  if not (run_until t ~timeout:(Time.of_sec 20) (fun () -> agreed_on t (Proc_set.full ~n))) then
    raise (Util.Timeout "live formation")

let submit_attempt t (u : update) ~at_node =
  let payload = Printf.sprintf "u%d.%d" u.uid u.tries in
  let required =
    Array.fold_left
      (fun acc nd -> if in_view nd then acc lor (1 lsl Proc_id.to_int (Node.self nd)) else acc)
      0 t.nodes
  in
  let a = { aid = t.next_aid; upd = u; got = 0; required } in
  t.next_aid <- t.next_aid + 1;
  Hashtbl.replace t.attempts payload a;
  Hashtbl.replace t.by_aid a.aid a;
  u.tries <- u.tries + 1;
  u.last_try <- now t;
  u.last_node <- at_node;
  Live.submit t.nodes.(at_node) ~semantics:Semantics.total_strong payload

(* A member to submit at: up, in the view and not in [avoid], chosen
   from the seed. *)
let pick_member t ~avoid =
  let ok =
    List.filter (fun i -> (not (List.mem i avoid)) && in_view t.nodes.(i)) (List.init n Fun.id)
  in
  match ok with
  | [] -> None
  | _ -> Some (List.nth ok (Rng.int t.rng (List.length ok)))

let new_update t ~due =
  let u = { uid = t.next_uid; due; done_at = None; tries = 0; last_try = due; last_node = -1 } in
  t.next_uid <- t.next_uid + 1;
  Hashtbl.replace t.outstanding u.uid u;
  u

(* The open-loop generator, called from the predicate: submit every
   update whose due time has come. [gap] is the interval between due
   times; returns the updates submitted. *)
type generator = { mutable next_due : Time.t; gap : Time.t; stop : Time.t }

let generator t ~rate_per_s ~span =
  let gap = Time.of_us (1_000_000 / rate_per_s) in
  let start = now t in
  { next_due = start; gap; stop = Time.add start span }

let generate t g ~avoid ~on_new =
  let at = now t in
  while Time.compare g.next_due at <= 0 && Time.compare g.next_due g.stop < 0 do
    let u = new_update t ~due:g.next_due in
    t.late_ms <- ms_of (Time.sub at g.next_due) :: t.late_ms;
    (match pick_member t ~avoid with
    | Some i -> submit_attempt t u ~at_node:i
    | None -> ());
    on_new u;
    g.next_due <- Time.add g.next_due g.gap
  done

(* Drive an open-loop phase: the generator plus [on_pass] (which may
   end the phase early by returning true) until the generator's span
   is over. The loop sleeps at most until the next due time. *)
let drive ?(avoid = []) t g ~on_new ~on_pass =
  let finished = ref false in
  while not !finished do
    let deadline = Time.min g.next_due g.stop in
    ignore
      (Cluster.run_until t.cluster ~deadline ~poll_cap:(Time.of_ms 5) (fun () ->
           t.passes <- t.passes + 1;
           Util.Host.sample t.host;
           generate t g ~avoid ~on_new;
           let stop = on_pass () in
           t.decision_from <- -1;
           if stop || Time.compare (now t) g.stop >= 0 then finished := true;
           !finished))
  done

(* Member [i] is gone: it no longer has to deliver what is in flight. *)
let forget_member t i =
  Hashtbl.iter
    (fun _ (a : attempt) ->
      if a.upd.done_at = None && a.required land (1 lsl i) <> 0 then begin
        a.required <- a.required land lnot (1 lsl i);
        complete t a (now t)
      end)
    t.by_aid

(* ---------------------------------------------------------------- *)
(* counters and checks *)

(* The repo's own safety oracle (Invariant.check_all) over the up
   members' states: ordinals, views, majority groups, epochs. *)
let invariants t ~phase =
  let states =
    Array.to_list t.nodes
    |> List.filter_map (fun nd ->
           if Node.is_up nd then Option.map (fun m -> (Node.self nd, m)) (Live.member_of nd)
           else None)
  in
  List.map
    (fun (v : Invariant.violation) ->
      Printf.sprintf "invariant %s (%s): %s" v.Invariant.property phase v.Invariant.detail)
    (Invariant.check_all ~n states)

let node_count t name =
  Array.fold_left (fun acc nd -> acc + Stats.count (Node.stats nd) name) 0 t.nodes

let syscalls t =
  node_count t "live:syscall:sendmmsg" + node_count t "live:syscall:recvmmsg"
  + node_count t "live:syscall:sendto" + node_count t "live:syscall:recvfrom"

let frames t = node_count t "live:sent" + node_count t "live:recv"

(* The final application log of an up member, oldest first, as attempt
   ids; payloads the rig never submitted map to -1. *)
let app_log t nd =
  match Live.member_of nd with
  | None -> [||]
  | Some m -> Array.of_list (List.rev_map (fun p -> payload_id t p) (Member.app m))

let check t ~drained ~counted =
  let up = List.filter (fun nd -> Node.is_up nd) (Array.to_list t.nodes) in
  let name nd = Printf.sprintf "p%d" (Proc_id.to_int (Node.self nd)) in
  let logs = List.map (fun nd -> (name nd, app_log t nd)) up in
  let reference = match logs with (_, r) :: _ -> Some r | [] -> None in
  let segments =
    List.concat
      (List.init n (fun i ->
           let l = t.logs.(i) in
           let who = Printf.sprintf "p%d" i in
           { Checker.who; stable = not l.perturbed; items = Util.Ibuf.to_array l.seg }
           :: List.map
                (fun b -> { Checker.who; stable = false; items = Util.Ibuf.to_array b })
                l.closed))
  in
  let unknown =
    List.concat_map
      (fun (who, items) ->
        if Array.exists (fun id -> id < 0) items then
          [ who ^ "'s application log holds an update nobody submitted" ]
        else [])
      logs
  in
  let aids = Hashtbl.create 1024 in
  Hashtbl.iter (fun _ (a : attempt) -> Hashtbl.add aids a.upd.uid a.aid) t.by_aid;
  let attempts_of uid = Hashtbl.find_all aids uid in
  unknown
  @ Checker.app_logs ~drained logs
  @ Checker.deliveries ?reference ~drained segments
  @ Checker.stretches ?reference segments
  @ Checker.complete ~counted ~attempts_of logs
  @ Checker.epochs_advance
      (List.init n (fun i -> (Printf.sprintf "p%d" i, List.rev t.logs.(i).gids)))

(* Wait until nothing is outstanding, at most [timeout]. *)
let drain t ~timeout = run_until t ~timeout (fun () -> Hashtbl.length t.outstanding = 0)

(* Output checks shared by every workload.

   Deliveries are compared as sequences of proposal ids (ints). A
   [segment] is what one member delivered over a stretch in which it
   stayed up and in the group: a member that is never killed and never
   excluded has one [stable] segment covering the whole run; a kill or
   an exclusion closes the current segment and the member's next
   deliveries start a new, non-stable one. *)

type segment = { who : string; stable : bool; items : int array }

let find_dup items =
  let seen = Hashtbl.create (Array.length items) in
  let rec go i =
    if i >= Array.length items then None
    else if Hashtbl.mem seen items.(i) then Some items.(i)
    else begin
      Hashtbl.add seen items.(i) ();
      go (i + 1)
    end
  in
  go 0

let is_prefix a ~of_ =
  Array.length a <= Array.length of_
  &&
  let rec go i = i >= Array.length a || (a.(i) = of_.(i) && go (i + 1)) in
  go 0

let positions r =
  let pos = Hashtbl.create (Array.length r) in
  Array.iteri (fun i id -> Hashtbl.replace pos id i) r;
  pos

(* The reference order: the given one when the workload has an
   authoritative copy (a final application log), else the longest
   stable segment. *)
let reference_of ?reference segments =
  match reference with
  | Some r -> Some r
  | None ->
    List.fold_left
      (fun acc s ->
        if not s.stable then acc
        else
          match acc with
          | Some r when Array.length r >= Array.length s.items -> acc
          | _ -> Some s.items)
      None segments

(* Deliveries agree with one total order:
   - no segment delivers one proposal twice;
   - every stable segment is a prefix of the reference, and equals it
     when [drained] (every member up throughout delivered everything). *)
let deliveries ?reference ~drained segments =
  let violations = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  List.iter
    (fun s ->
      match find_dup s.items with
      | Some id -> fail "%s delivered proposal %d twice" s.who id
      | None -> ())
    segments;
  (match reference_of ?reference segments with
  | None -> ()
  | Some r ->
    (match find_dup r with
    | Some id -> fail "reference order holds proposal %d twice" id
    | None -> ());
    List.iter
      (fun s ->
        if s.stable then
          if not (is_prefix s.items ~of_:r) then
            fail "%s's deliveries are not a prefix of the common order" s.who
          else if drained && Array.length s.items <> Array.length r then
            fail "%s delivered %d of %d proposals" s.who (Array.length s.items)
              (Array.length r))
      segments);
  List.rev !violations

(* Every segment of a member that was killed or excluded is a
   contiguous stretch of the reference order. *)
let stretches ?reference segments =
  match reference_of ?reference segments with
  | None -> []
  | Some r ->
    let pos = positions r in
    List.filter_map
      (fun s ->
        if s.stable || Array.length s.items = 0 then None
        else
          match Hashtbl.find_opt pos s.items.(0) with
          | None ->
            Some (Printf.sprintf "%s delivered proposal %d outside the common order" s.who s.items.(0))
          | Some start ->
            let rec go k =
              if k >= Array.length s.items then None
              else if start + k >= Array.length r || r.(start + k) <> s.items.(k) then
                Some
                  (Printf.sprintf "%s's deliveries leave the common order at proposal %d" s.who
                     s.items.(k))
              else go (k + 1)
            in
            go 0)
      segments

(* Final application logs of the members up at the end are one
   replicated state: prefix-consistent, identical once drained. *)
let app_logs ~drained logs =
  let segs = List.map (fun (who, items) -> { who; stable = true; items }) logs in
  deliveries ~drained segs

(* Every update the workload counted as delivered everywhere is in every
   final application log (through any of its attempts). *)
let complete ~counted ~attempts_of logs =
  List.concat_map
    (fun (who, items) ->
      let present = Hashtbl.create (Array.length items) in
      Array.iter (fun id -> Hashtbl.replace present id ()) items;
      List.filter_map
        (fun upd ->
          if List.exists (Hashtbl.mem present) (attempts_of upd) then None
          else Some (Printf.sprintf "%s lacks update %d counted as delivered" who upd))
        counted)
    logs

(* Group ids a member installs, as (epoch, seq), only move forward. *)
let epochs_advance installs =
  List.concat_map
    (fun (who, gids) ->
      let rec go = function
        | (e0, s0) :: (((e1, s1) :: _) as rest) ->
          if compare (e1, s1) (e0, s0) <= 0 then
            [ Printf.sprintf "%s installed group %d.%d after %d.%d" who e1 s1 e0 s0 ]
          else go rest
        | [ _ ] | [] -> []
      in
      go gids)
    installs

let no_view_changes ~phase count =
  if count = 0 then []
  else [ Printf.sprintf "%d view change(s) during faultless %s" count phase ]

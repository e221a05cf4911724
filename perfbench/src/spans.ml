(* In-memory span recorder for the traced run.

   The benchmark wraps calls into each layer's public functions; every
   wrapped call is one span: name, start, end, the enclosing span and
   the update payload id it serves (-1 when none). Self time of a span
   is its duration minus the part covered by its child spans, which the
   recorder accumulates online, so the per-name totals cover every span
   even when only the first [capacity] spans are kept for the trace
   file. Recording allocates nothing: timestamps come from the
   monotonic clock as unboxed ints and spans live in preallocated
   arrays. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  names : string array;
  self_ns : int array;  (* per name: durations minus child coverage *)
  calls : int array;
  amount : int array;  (* per name: a quantity the caller adds, e.g. bytes *)
  (* open-span stack *)
  st_name : int array;
  st_start : int array;
  st_child : int array;
  st_index : int array;  (* stored span index, or -1 when not kept *)
  mutable depth : int;
  (* kept spans, struct of arrays *)
  capacity : int;
  sp_name : int array;
  sp_start : int array;
  sp_stop : int array;
  sp_parent : int array;
  sp_payload : int array;
  mutable kept : int;
  mutable dropped : int;
}

let max_depth = 16

let create ?(capacity = 50_000) names =
  let k = Array.length names in
  {
    names;
    self_ns = Array.make k 0;
    calls = Array.make k 0;
    amount = Array.make k 0;
    st_name = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    st_index = Array.make max_depth (-1);
    depth = 0;
    capacity;
    sp_name = Array.make capacity 0;
    sp_start = Array.make capacity 0;
    sp_stop = Array.make capacity 0;
    sp_parent = Array.make capacity (-1);
    sp_payload = Array.make capacity (-1);
    kept = 0;
    dropped = 0;
  }

let enter t name ~payload =
  let d = t.depth in
  if d >= max_depth then invalid_arg "Spans.enter: nesting too deep";
  let start = now_ns () in
  t.st_name.(d) <- name;
  t.st_start.(d) <- start;
  t.st_child.(d) <- 0;
  if t.kept < t.capacity then begin
    let i = t.kept in
    t.sp_name.(i) <- name;
    t.sp_start.(i) <- start;
    t.sp_stop.(i) <- start;
    t.sp_parent.(i) <- (if d > 0 then t.st_index.(d - 1) else -1);
    t.sp_payload.(i) <- payload;
    t.st_index.(d) <- i;
    t.kept <- i + 1
  end
  else begin
    t.st_index.(d) <- -1;
    t.dropped <- t.dropped + 1
  end;
  t.depth <- d + 1

let leave t =
  let stop = now_ns () in
  let d = t.depth - 1 in
  t.depth <- d;
  let name = t.st_name.(d) in
  let dur = stop - t.st_start.(d) in
  t.self_ns.(name) <- t.self_ns.(name) + dur - t.st_child.(d);
  t.calls.(name) <- t.calls.(name) + 1;
  let i = t.st_index.(d) in
  if i >= 0 then t.sp_stop.(i) <- stop;
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur

(* [span t name ~payload f] runs [f ()] inside a span; an exception
   still closes it. *)
let span t name ~payload f =
  enter t name ~payload;
  match f () with
  | r ->
    leave t;
    r
  | exception e ->
    leave t;
    raise e

(* A span whose bounds the caller took itself, for calls whose span
   name is only known once they return (a decode learns its kind). *)
let record t name ~start ~payload =
  enter t name ~payload;
  let d = t.depth - 1 in
  t.st_start.(d) <- start;
  let i = t.st_index.(d) in
  if i >= 0 then t.sp_start.(i) <- start;
  leave t

let add t name x = t.amount.(name) <- t.amount.(name) + x
let amount t name = t.amount.(name)
let calls t name = t.calls.(name)
let self_s t name = float_of_int t.self_ns.(name) *. 1e-9

let write_jsonl t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  for i = 0 to t.kept - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"payload\":%d}\n"
      i t.names.(t.sp_name.(i)) t.sp_start.(i) t.sp_stop.(i) t.sp_parent.(i)
      t.sp_payload.(i)
  done

let kept t = t.kept
let dropped t = t.dropped

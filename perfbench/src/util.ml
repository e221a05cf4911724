(* Small shared pieces: growable int buffers, percentiles, CPU time. *)

module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 64 0; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

(* Nearest-rank percentile of unsorted samples; [nan] when empty. *)
let percentile samples p =
  let a = Array.of_list samples in
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    Array.sort Float.compare a;
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

let median samples = percentile samples 50.0

(* Process CPU seconds so far: (user, system). *)
let cpu () =
  let t = Unix.times () in
  (t.Unix.tms_utime, t.Unix.tms_stime)

let wall () = Unix.gettimeofday ()

(* A phase that did not finish within its bound, e.g. a formation. *)
exception Timeout of string

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Host speed. The machines this runs on share their cores, and the
   same work can take twice as long from one minute to the next. A
   fixed kernel timed every [period] seconds through the
   measured window tracks that; CPU metrics are scaled by [ref_ms] over
   the kernel's median time, i.e. reported at the speed at which the
   kernel takes [ref_ms]. *)
module Host = struct
  let ref_ms = 1.0
  let period = 0.5

  (* hashing, allocation and sorting: the mix the protocol code does *)
  let kernel () =
    let h = Hashtbl.create 64 in
    for i = 0 to 4000 do
      Hashtbl.replace h ((i * 7919) land 0x1FFF) i
    done;
    let l = Hashtbl.fold (fun k v acc -> (k lxor v) :: acc) h [] in
    List.length (List.sort compare l)

  type t = { mutable next : float; mutable samples : float list }

  let create () = { next = 0.0; samples = [] }

  let sample t =
    let w = wall () in
    if w >= t.next then begin
      t.next <- w +. period;
      let u0, s0 = cpu () in
      ignore (Sys.opaque_identity (kernel ()));
      let u1, s1 = cpu () in
      t.samples <- ((u1 -. u0 +. s1 -. s0) *. 1e3) :: t.samples
    end

  let kernel_ms t = median t.samples

  (* ms of CPU at the reference speed per ms measured *)
  let scale t = match t.samples with [] -> 1.0 | _ -> ref_ms /. kernel_ms t
end

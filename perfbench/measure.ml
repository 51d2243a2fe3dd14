(* Host-time measurement helpers shared by the workloads.

   Every figure the benchmark reports is host time or host memory: what
   running the simulator costs.  Simulated quantities never appear here;
   they go into the correctness digest instead. *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Wall seconds taken by [f ()], with its result. *)
let timed f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* Linear-interpolated percentile [p] in [0, 100] of a non-empty list. *)
let percentile p xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "Measure.percentile: no samples";
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float rank in
  let hi = Stdlib.min (n - 1) (lo + 1) in
  a.(lo) +. ((rank -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 50.0 xs

(* Accumulated host cost of calls into one layer's public functions,
   timed from outside the layer. *)
type cost = { mutable secs : float; mutable ops : int; mutable words : float }

let cost () = { secs = 0.0; ops = 0; words = 0.0 }
let ns c = if c.ops = 0 then 0.0 else c.secs *. 1e9 /. float_of_int c.ops
let words c = if c.ops = 0 then 0.0 else c.words /. float_of_int c.ops

(* Charge [f ()], which performs [ops] calls, to [c]. *)
let charge c ~ops f =
  let w0 = Gc.minor_words () in
  let t0 = now_s () in
  let r = f () in
  c.secs <- c.secs +. (now_s () -. t0);
  c.words <- c.words +. (Gc.minor_words () -. w0);
  c.ops <- c.ops + ops;
  r

(* One call of [f] per element of [inputs], [rounds] passes. *)
let per_op c ?(rounds = 1) inputs f =
  charge c ~ops:(rounds * Array.length inputs) (fun () ->
      for _ = 1 to rounds do
        Array.iter f inputs
      done)

(* Peak resident set of this process in MiB (VmHWM), 0 where /proc is
   unavailable. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line -> (
            match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
            | kb -> float_of_int kb /. 1024.0
            | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> scan ())
      in
      let r = scan () in
      close_in ic;
      r

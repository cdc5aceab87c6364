(* Order statistics for latency samples. *)

let sorted values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of percentile [p] among [n] samples, in integer
   arithmetic so p90 of 100 samples is exactly rank 90. *)
let rank n p =
  let permille = int_of_float (Float.round (p *. 10.0)) in
  ((permille * n) + 999) / 1000

let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  a.(max 0 (min (n - 1) (rank n p - 1)))

let median values = percentile (sorted values) 50.0

(* The highest percentile of the ladder with at least ten samples
   beyond it, so a tail figure always rests on ten observations.  The
   ladder stops at p99: each workload's sample count is sized into one
   band of it, and a percentile that jumped up between runs as the
   count crossed 10 000 would not compare run to run. *)
let ladder = [ 99.0; 90.0; 50.0 ]

let tail_percentile n = List.find_opt (fun p -> n - rank n p >= 10) ladder

let mean = function
  | [] -> 0.0
  | values ->
      List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values)

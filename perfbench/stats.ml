(* Order statistics for the benchmark's latency samples. *)

(* Nearest-rank percentile: the smallest sample with at least [p]
   percent of the samples at or below it. A tail percentile is only
   reported when at least [min_beyond] samples lie above its rank, so
   a p90 needs 100 samples when [min_beyond] is 10. *)
let percentile ?(min_beyond = 0) samples p =
  let n = Array.length samples in
  if n = 0 then Error "no samples"
  else
    let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n))) in
    if n - rank < min_beyond then
      Error
        (Printf.sprintf "p%g of %d samples has %d beyond it (need %d)" p n
           (n - rank) min_beyond)
    else
      let sorted = Array.copy samples in
      Array.sort Float.compare sorted;
      Ok sorted.(rank - 1)

let percentile_exn ?min_beyond samples p =
  match percentile ?min_beyond samples p with
  | Ok v -> v
  | Error msg -> failwith msg

(* Median by the midpoint of the two middle samples, as Python's
   [statistics.median] computes it. *)
let median samples =
  let sorted = List.sort Float.compare samples |> Array.of_list in
  let n = Array.length sorted in
  if n = 0 then nan
  else if n mod 2 = 1 then sorted.(n / 2)
  else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.

(* p10 … p90 by nearest rank, for the run log. *)
let deciles samples =
  List.init 9 (fun i -> percentile_exn samples (float_of_int (10 * (i + 1))))

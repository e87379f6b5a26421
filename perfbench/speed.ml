(* The host's speed, read off a fixed reference loop.

   The benchmark shares a host whose speed wanders by a fifth or more
   over seconds to minutes (README.md, "Host speed"). The timed loop
   runs the reference loop between items, about every [every_ms], and
   scales each item's time by [nominal_ms] over the median of the
   [nearest] reference samples closest to it in time. A scaled time is
   the time the item would take on this host at the speed at which the
   reference loop takes [nominal_ms]. *)

module B = Bigarray

(* 4096 ints, 32 KB: the loop runs from the first-level cache, so what
   the program left in the caches barely changes its time. The buffer
   lies outside the OCaml heap, and the loop allocates nothing, so the
   GC neither scans it nor runs during it. *)
let buf = B.Array1.create B.int B.c_layout 4096
let () = B.Array1.fill buf 0

(* Pseudo-random read-modify-writes into [b]. [b] is left polymorphic
   on purpose: each access is then a call into the runtime, which
   makes the loop a mix of calls and memory traffic and gives it a
   duration (about 0.65 ms) far above the clock's resolution. *)
let reference_loop b =
  let x = ref 12345 in
  for _ = 1 to 30_000 do
    x := (!x * 1103515245 + 12345) land 0x3fffffff;
    let i = !x land 4095 in
    B.Array1.unsafe_set b i (B.Array1.unsafe_get b i + !x)
  done;
  ignore (Sys.opaque_identity !x)

(* The reference loop's usual time, ms, on the 2-vCPU host the
   benchmark was tuned on (README.md). Only the ratio matters when two
   builds are compared on one host. *)
let nominal_ms = 0.65

let every_ms = 50.
let nearest = 3

let now = Telemetry.Clock.now_ns
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

(* Reference samples in the order taken: the midpoint (ns) and the
   duration (ms) of each run of the loop. *)
type t = { mutable at : float list; mutable ms : float list; mutable last : int64 }

let create () = { at = []; ms = []; last = 0L }

let take s =
  let t0 = now () in
  reference_loop buf;
  let t1 = now () in
  s.at <- ((Int64.to_float t0 +. Int64.to_float t1) /. 2.) :: s.at;
  s.ms <- ms_between t0 t1 :: s.ms;
  s.last <- t1

(* Between items: a sample when [every_ms] have passed since the last. *)
let tick s = if ms_between s.last (now ()) >= every_ms then take s

type frozen = { times : float array; durations : float array }

let freeze s =
  { times = Array.of_list (List.rev s.at); durations = Array.of_list (List.rev s.ms) }

let durations f = Array.to_list f.durations

(* The median of the [nearest] samples closest in time to [t]. *)
let local_ms f t =
  let n = Array.length f.times in
  if n = 0 then invalid_arg "Speed.local_ms: no samples";
  let rec first_at_or_after lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if f.times.(mid) < t then first_at_or_after (mid + 1) hi else first_at_or_after lo mid
  in
  let rec pick l r k acc =
    if k = 0 || (l < 0 && r >= n) then acc
    else if r >= n || (l >= 0 && t -. f.times.(l) <= f.times.(r) -. t) then
      pick (l - 1) r (k - 1) (f.durations.(l) :: acc)
    else pick l (r + 1) (k - 1) (f.durations.(r) :: acc)
  in
  let c = first_at_or_after 0 n in
  Stats.median (pick (c - 1) c nearest [])

(* The factor that scales a time taken at [t] to the nominal speed. *)
let scale f t = nominal_ms /. local_ms f t

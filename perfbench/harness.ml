(* What every workload gives the driver loop in main.ml. *)

(* The deferred oracle's judgement of one output. [Known_defect] is a
   wrong answer of a kind already on record (the solver's spurious
   disjuncts): it counts as a failed operation but does not make the
   run incorrect. [Wrong] is any other wrong answer. *)
type verdict = Pass | Known_defect of string | Wrong of string

type 'o t = {
  name : string;
  cycle : int;  (** items in one whole pass over the inputs *)
  digest : string;  (** MD5 (hex) of every generated input text, in order *)
  reset : unit -> unit;
      (** brings the library back to the state timing starts from;
          the traced run calls it before every rep so each rep of the
          batch sees the same state *)
  before_item : unit -> unit;  (** untimed, before each item *)
  run : int -> 'o;  (** decide the item at this cycle position *)
  check : int -> 'o -> verdict;  (** the oracle, run after timing *)
}

(* Counts that only the benchmark sees, bumped by the workloads and
   read as diffs around a traced rep. *)
let candidates = ref 0
let constraints_in = ref 0

(* Before each item of a workload that models one process per item
   ([webcheck FILE]): a cleared store and a collected heap, so no item
   pays for garbage an earlier one left. *)
let fresh_process () =
  Automata.Store.clear ();
  Gc.full_major ()

let span name f = Telemetry.Span.with_span ~name:("bench:" ^ name) f

(* Fisher–Yates, in place. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let md5_hex texts = Digest.to_hex (Digest.string (String.concat "\x00" texts))

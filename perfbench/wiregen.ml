(* Generated constraint systems of the paper's Fig. 2 grammar, each
   with a planted verdict.

   A satisfiable system is built around a planted word per variable:
   every right-hand side is drawn as a generalization of the planted
   words it must accept, so the planted assignment satisfies the
   system by construction (and [generate] re-checks that with the
   benchmark's own matcher). An unsatisfiable system is a satisfiable
   one plus a contradiction that holds whatever the other constraints
   say. The generator never consults the solver, so it cannot steer
   around the solver's defects. *)

type term = V of int | K of string  (** variable index, or a literal *)
type constr = { lhs : term list; rhs : Rx.t }

type t = {
  prefix : string;  (** names are [prefix ^ "v" ^ i] and [prefix ^ "k" ^ i] *)
  nvars : int;
  planted : string array;  (** a word per variable; satisfies the system when [sat] *)
  sat : bool;  (** the planted verdict *)
  constraints : constr list;
  core : constr list;
      (** for an unsatisfiable system, the planted contradiction: a
          subset of [constraints] that is unsatisfiable on its own *)
  text : string;  (** the system in [Dprle.Sysparse] syntax *)
}

let var_name sys i = Printf.sprintf "%sv%d" sys.prefix i
let sort_chars s = String.of_seq (List.to_seq (List.sort_uniq compare (List.of_seq (String.to_seq s))))
let classes = [| Rx.lower; Rx.digits; "abc"; Rx.digits ^ Rx.lower |]

let pick rng a = a.(Random.State.int rng (Array.length a))

let word rng chars len =
  String.init len (fun _ -> chars.[Random.State.int rng (String.length chars)])

(* A regex accepting [w], over a class containing every letter of
   [w]. Shapes 1 and 3 are the two shapes of the solver's known
   spurious-disjunct defect ([c[a-z]*] and [[a-z]{2,8}]) when the left
   side is a variable concatenated with a literal. The bounded shapes
   (3 and 4) are kept off every constraint on a variable that occurs in
   a variable-variable concatenation: their many ε-cuts multiply
   across a CI-group into the §3.5 worst case, seconds per system,
   which is the secure workload's cost class and not this one's. *)
let generalize ?(bounded = true) rng chars w =
  let len = String.length w in
  match Random.State.int rng (if bounded then 5 else 3) with
  | 0 -> Rx.Class (chars, 1, None)
  | 1 -> Rx.Seq [ Rx.Lit (String.sub w 0 1); Rx.Class (chars, 0, None) ]
  | 2 -> Rx.Seq [ Rx.Class (chars, 0, None); Rx.Lit (String.sub w (len - 1) 1) ]
  | 3 ->
      let lo = max 1 (len - Random.State.int rng 3) in
      Rx.Class (chars, lo, Some (len + Random.State.int rng 4))
  | _ -> Rx.Alt [ Rx.Lit w; Rx.Class (pick rng classes, 2, Some 4) ]

let eval_lhs words lhs =
  String.concat "" (List.map (function V i -> words.(i) | K s -> s) lhs)

let satisfies words c = Rx.matches c.rhs (eval_lhs words c.lhs)

(* Sysparse rendering: one [let] per distinct regex or literal, in
   order of first use, then the constraints. *)
let render ~prefix constraints =
  let consts = ref [] in
  let name_of key make =
    match List.assoc_opt key !consts with
    | Some (n, _) -> n
    | None ->
        let n = Printf.sprintf "%sk%d" prefix (List.length !consts) in
        consts := (key, (n, make ())) :: !consts;
        n
  in
  let term = function
    | V i -> Printf.sprintf "%sv%d" prefix i
    | K s -> name_of ("\"" ^ s) (fun () -> Printf.sprintf "%S" s)
  in
  let lines =
    List.map
      (fun c ->
        let lhs = String.concat " . " (List.map term c.lhs) in
        let re = Rx.render c.rhs in
        Printf.sprintf "%s <= %s;" lhs
          (name_of ("/" ^ re) (fun () -> "/^" ^ re ^ "$/")))
      constraints
  in
  let lets =
    List.rev_map (fun (_, (n, v)) -> Printf.sprintf "let %s = %s;" n v) !consts
  in
  String.concat "\n" (lets @ lines) ^ "\n"

let make ?(core = []) ?(prefix = "") planted constraints =
  { prefix; nvars = Array.length planted; planted; sat = core = []; constraints; core;
    text = render ~prefix constraints }

(* The variable of a left side with exactly one variable occurrence. *)
let only_var c =
  match List.filter_map (function V i -> Some i | K _ -> None) c.lhs with [ i ] -> Some i | _ -> None

(* A concatenation of exactly one variable with literals: the shape on
   which the solver's spurious disjuncts are on record. *)
let single_var_concat c = List.length c.lhs > 1 && only_var c <> None

(* The same system under other names. Names are the one part of the
   text that changes no machine and, keeping their order, no solver
   decision. *)
let rename prefix sys = make ~core:sys.core ~prefix sys.planted sys.constraints

(* 2–4 variables, 3–8 constraints, 1–3 concatenations; some
   constraints duplicated or implied by another. *)
let generate rng ~sat =
  let nvars = 2 + Random.State.int rng 3 in
  let cls = Array.init nvars (fun _ -> pick rng classes) in
  let words = Array.init nvars (fun i -> word rng cls.(i) (1 + Random.State.int rng 4)) in
  let nconcat = 1 + Random.State.int rng 3 in
  (* at most one variable-variable concatenation: two of them sharing
     a variable make a CI-cycle, whose combinations multiply *)
  let concat_lhs i =
    let a = Random.State.int rng nvars in
    let lit () = word rng (pick rng [| Rx.lower; Rx.digits ^ Rx.lower |]) (1 + Random.State.int rng 3) in
    match Random.State.int rng (if i = 0 then 3 else 2) with
    | 0 -> [ V a; K (lit ()) ]
    | 1 -> [ K (lit ()); V a ]
    | _ -> [ V a; V ((a + 1 + Random.State.int rng (nvars - 1)) mod nvars) ]
  in
  let lhss = List.init nconcat concat_lhs in
  let coupled i =
    List.exists (fun lhs -> List.mem (V i) lhs && List.for_all (function V _ -> true | K _ -> false) lhs) lhss
  in
  let calm = List.for_all (function V i -> not (coupled i) | K _ -> true) in
  let concats =
    List.map
      (fun lhs ->
        let chars =
          sort_chars (String.concat "" (List.map (function V i -> cls.(i) | K s -> s ^ Rx.lower) lhs))
        in
        { lhs; rhs = generalize ~bounded:(calm lhs) rng chars (eval_lhs words lhs) })
      lhss
  in
  let bounds =
    List.filter_map
      (fun i ->
        if List.exists (List.mem (V i)) lhss && Random.State.int rng 5 = 0 then None
        else Some { lhs = [ V i ]; rhs = generalize ~bounded:(not (coupled i)) rng cls.(i) words.(i) })
      (List.init nvars Fun.id)
  in
  let base = bounds @ concats in
  let contradiction =
    if sat then []
    else
      let a = Random.State.int rng nvars in
      let letters = word rng Rx.lower (1 + Random.State.int rng 3) in
      let digits_only = Rx.Class (Rx.digits, 0, None) in
      match Random.State.int rng (if List.length base <= 6 then 3 else 2) with
      | 0 -> [ { lhs = [ V a; K letters ]; rhs = digits_only } ]
      | 1 -> [ { lhs = [ K letters; V a ]; rhs = digits_only } ]
      | _ ->
          [ { lhs = [ V a ]; rhs = Rx.Class (Rx.digits, 1, None) };
            { lhs = [ V a ]; rhs = Rx.Class (Rx.lower, 1, None) } ]
  in
  let room = 8 - List.length base - List.length contradiction in
  let extra () =
    match Random.State.int rng 2 with
    | 0 -> List.nth base (Random.State.int rng (List.length base))
    | _ ->
        let i = Random.State.int rng nvars in
        { lhs = [ V i ]; rhs = Rx.Class (sort_chars (Rx.digits ^ Rx.lower), 0, None) }
  in
  let extras = List.init (Random.State.int rng (min 2 room + 1)) (fun _ -> extra ()) in
  let planted = base @ extras in
  List.iter
    (fun c -> if not (satisfies words c) then failwith "Wiregen: planted word rejected")
    planted;
  make ~core:contradiction words (planted @ contradiction)

(* The pool: [size] systems, a quarter of them unsatisfiable (which
   ones is itself seeded). *)
let pool rng ~size =
  let unsat = Array.init size (fun i -> i < size / 4) in
  Harness.shuffle rng unsat;
  Array.map (fun u -> generate rng ~sat:(not u)) unsat

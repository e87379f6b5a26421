(* Sorted lists of disjoint, non-adjacent inclusive intervals over
   bytes 0-255. The normal form is unique, so structural equality of
   the lists coincides with set equality. *)

type t = (int * int) list

let empty : t = []

let full : t = [ (0, 255) ]

(* Normalization: sort by lower bound, then merge overlapping or
   adjacent intervals. All constructors funnel through [normalize] so
   every value of type [t] is in normal form. *)
let normalize (intervals : (int * int) list) : t =
  let sorted =
    List.sort (fun (a, _) (b, _) -> Int.compare a b)
      (List.filter (fun (lo, hi) -> lo <= hi) intervals)
  in
  let rec merge = function
    | (lo1, hi1) :: (lo2, hi2) :: rest when lo2 <= hi1 + 1 ->
        merge ((lo1, max hi1 hi2) :: rest)
    | iv :: rest -> iv :: merge rest
    | [] -> []
  in
  merge sorted

let clamp_byte c =
  if c < 0 || c > 255 then invalid_arg "Charset: byte out of range" else c

let singleton c =
  let b = Char.code c in
  [ (b, b) ]

let range lo hi =
  let lo = Char.code lo and hi = Char.code hi in
  if lo > hi then invalid_arg "Charset.range: lo > hi";
  [ (lo, hi) ]

let of_list chars = normalize (List.map (fun c -> (Char.code c, Char.code c)) chars)

let of_string s = of_list (List.init (String.length s) (String.get s))

let of_ranges rs =
  List.iter (fun (lo, hi) -> ignore (clamp_byte lo); ignore (clamp_byte hi)) rs;
  normalize rs

let ranges (t : t) = t

let digit = range '0' '9'
let lower = range 'a' 'z'
let upper = range 'A' 'Z'

let union a b = normalize (a @ b)

let alpha = union lower upper
let word = union alpha (union digit (singleton '_'))
let space = of_list [ ' '; '\t'; '\n'; '\r'; '\011'; '\012' ]
let printable = [ (32, 126) ]

let rec inter (a : t) (b : t) : t =
  match (a, b) with
  | [], _ | _, [] -> []
  | (lo1, hi1) :: ta, (lo2, hi2) :: tb ->
      let lo = max lo1 lo2 and hi = min hi1 hi2 in
      let rest = if hi1 < hi2 then inter ta b else inter a tb in
      if lo <= hi then (lo, hi) :: rest else rest

let complement (a : t) : t =
  let rec gaps next = function
    | [] -> if next <= 255 then [ (next, 255) ] else []
    | (lo, hi) :: rest ->
        let tail = gaps (hi + 1) rest in
        if next <= lo - 1 then (next, lo - 1) :: tail else tail
  in
  gaps 0 a

let diff a b = inter a (complement b)

let mem c (t : t) =
  let b = Char.code c in
  List.exists (fun (lo, hi) -> lo <= b && b <= hi) t

let is_empty t = t = []

let is_full t = t = full

let equal (a : t) (b : t) = a = b

(* Lexicographic over the intervals, a proper prefix first: the order
   [Stdlib.compare] gives the list, without its polymorphic walk (the
   store's canonical key sorts every state's edges by label). *)
let rec compare (a : t) (b : t) =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (lo1, hi1) :: ta, (lo2, hi2) :: tb ->
      if lo1 <> lo2 then Int.compare lo1 lo2
      else if hi1 <> hi2 then Int.compare hi1 hi2
      else compare ta tb

let rec intersects (a : t) (b : t) =
  match (a, b) with
  | [], _ | _, [] -> false
  | (lo1, hi1) :: ta, (lo2, hi2) :: tb ->
      if max lo1 lo2 <= min hi1 hi2 then true
      else if hi1 < hi2 then intersects ta b
      else intersects a tb

let subset a b = is_empty (diff a b)

let cardinal t = List.fold_left (fun acc (lo, hi) -> acc + hi - lo + 1) 0 t

let min_elt = function
  | [] -> raise Not_found
  | (lo, _) :: _ -> Char.chr lo

let choose t =
  if is_empty t then raise Not_found
  else
    let printable_part = inter t printable in
    min_elt (if is_empty printable_part then t else printable_part)

let iter f t =
  List.iter
    (fun (lo, hi) ->
      for b = lo to hi do
        f (Char.chr b)
      done)
    t

let fold f t init =
  List.fold_left
    (fun acc (lo, hi) ->
      let acc = ref acc in
      for b = lo to hi do
        acc := f (Char.chr b) !acc
      done;
      !acc)
    init t

let to_list t = List.rev (fold (fun c acc -> c :: acc) t [])

(* Partition refinement via boundary points: collect all interval
   boundaries, then cut the union of the inputs at every boundary.
   Each resulting block lies entirely inside or outside each input
   set, which is exactly the refinement property. One sort of the
   boundary array plus a single merged sweep over the (sorted)
   universe keeps this O(m log m) in the total interval count — it
   runs once per product cell / subset-search node, so the old
   repeated-union construction dominated those hot paths. *)
let refine (sets : t list) : t list =
  let intervals = List.concat sets in
  if intervals = [] then []
  else begin
    let universe = normalize intervals in
    let cuts = Array.make (2 * List.length intervals) 0 in
    List.iteri
      (fun i (lo, hi) ->
        cuts.(2 * i) <- lo;
        cuts.((2 * i) + 1) <- hi + 1)
      intervals;
    Array.sort Int.compare cuts;
    (* Walk the universe intervals and the sorted cut array together;
       every cut strictly inside the current interval splits it. *)
    let ncuts = Array.length cuts in
    let ci = ref 0 in
    let blocks = ref [] in
    List.iter
      (fun (lo, hi) ->
        while !ci < ncuts && cuts.(!ci) <= lo do incr ci done;
        let start = ref lo in
        while !ci < ncuts && cuts.(!ci) <= hi do
          let c = cuts.(!ci) in
          if c > !start then begin
            blocks := [ (!start, c - 1) ] :: !blocks;
            start := c
          end;
          incr ci
        done;
        blocks := [ (!start, hi) ] :: !blocks)
      universe;
    List.rev !blocks
  end

let pp_byte ppf b =
  let c = Char.chr b in
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ' ' -> Fmt.char ppf c
  | '\n' -> Fmt.string ppf "\\n"
  | '\t' -> Fmt.string ppf "\\t"
  | '\r' -> Fmt.string ppf "\\r"
  | '-' | ']' | '[' | '\\' | '^' -> Fmt.pf ppf "\\%c" c
  | c when b >= 33 && b <= 126 -> Fmt.char ppf c
  | _ -> Fmt.pf ppf "\\x%02x" b

let pp ppf (t : t) =
  if is_empty t then Fmt.string ppf "∅"
  else if is_full t then Fmt.string ppf "Σ"
  else
    match t with
    | [ (lo, hi) ] when lo = hi -> pp_byte ppf lo
    | _ ->
        Fmt.char ppf '[';
        List.iter
          (fun (lo, hi) ->
            if lo = hi then pp_byte ppf lo
            else if hi = lo + 1 then (pp_byte ppf lo; pp_byte ppf hi)
            else Fmt.pf ppf "%a-%a" pp_byte lo pp_byte hi)
          t;
        Fmt.char ppf ']'

let to_string t = Fmt.str "%a" pp t

let hash (t : t) = Hashtbl.hash t

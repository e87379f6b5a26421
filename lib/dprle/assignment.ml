module Nfa = Automata.Nfa
module Store = Automata.Store
module SMap = Map.Make (String)

type t = Store.handle SMap.t

let of_list bindings = SMap.of_seq (List.to_seq bindings)

let find t v =
  match SMap.find_opt v t with
  | Some h -> h
  | None -> invalid_arg (Printf.sprintf "Assignment.find: unbound variable %S" v)

let find_opt t v = SMap.find_opt v t

let union a b = SMap.union (fun _ _ hb -> Some hb) a b

let bindings t = SMap.bindings t

let variables t = List.map fst (SMap.bindings t)

(* [prune_subsumed] compares all pairs of disjuncts, and the same
   variable languages recur across them: the store's inclusion cache
   answers the repeats. *)
let subsumes a b =
  SMap.for_all
    (fun v hb ->
      match SMap.find_opt v a with
      | None -> false
      | Some ha -> Store.subset hb ha)
    b

let equal a b = subsumes a b && subsumes b a

let prune_subsumed assignments =
  let indexed = List.mapi (fun i a -> (i, a)) assignments in
  List.filter_map
    (fun (i, a) ->
      let dominated =
        List.exists
          (fun (j, b) ->
            i <> j && subsumes b a && ((not (subsumes a b)) || j < i))
          indexed
      in
      if dominated then None else Some a)
    indexed

(* Witnesses, samples and the printed regex are read off the
   handle's minimized machine, so every consumer sees one rendering
   of a language. *)
let witness t =
  let exception Empty in
  try
    Some
      (List.map
         (fun (v, h) ->
           match Nfa.shortest_word (Store.minimized h) with
           | Some w -> (v, w)
           | None -> raise Empty)
         (SMap.bindings t))
  with Empty -> None

let samples t v ~n =
  Nfa.sample_words (Store.minimized (find t v)) ~max_len:24 ~max_count:n

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun (v, h) ->
      Fmt.pf ppf "%s ↦ /%s/@ " v (Regex.Pretty.pretty (Store.minimized h)))
    (SMap.bindings t);
  Fmt.pf ppf "@]"

let pp_witnesses ppf t =
  match witness t with
  | None -> Fmt.string ppf "<empty language>"
  | Some ws ->
      Fmt.pf ppf "[%a]"
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (v, w) -> Fmt.pf ppf "%s ↦ %S" v w))
        ws

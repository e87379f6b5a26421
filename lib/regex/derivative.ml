let rec nullable : Ast.t -> bool = function
  | Empty | Chars _ -> false
  | Epsilon | Star _ | Opt _ -> true
  | Seq (a, b) -> nullable a && nullable b
  | Alt (a, b) -> nullable a || nullable b
  | Plus a -> nullable a
  | Repeat (a, lo, _) -> lo = 0 || nullable a

(* All construction is routed through [Simplify.norm] so every
   derivative we hand out is already in rewrite normal form, which
   keeps repeated derivation (matching a long word) from growing the
   term. *)

let rec deriv_raw c : Ast.t -> Ast.t = function
  | Empty | Epsilon -> Empty
  | Chars cs -> if Charset.mem c cs then Epsilon else Empty
  | Seq (a, b) ->
      let da_b = Ast.seq (deriv_raw c a) b in
      if nullable a then Ast.alt da_b (deriv_raw c b) else da_b
  | Alt (a, b) -> Ast.alt (deriv_raw c a) (deriv_raw c b)
  | Star a as star -> Ast.seq (deriv_raw c a) star
  | Plus a -> Ast.seq (deriv_raw c a) (Ast.star a)
  | Opt a -> deriv_raw c a
  | Repeat (a, lo, hi) ->
      let rest =
        Ast.repeat a (max 0 (lo - 1)) (Option.map (fun h -> h - 1) hi)
      in
      (* d(a{0,0}) is handled by [Ast.repeat] collapsing to ε above;
         here hi ≥ 1 whenever the Repeat node survived the smart
         constructor. *)
      Ast.seq (deriv_raw c a) rest

let deriv c r = Simplify.norm (deriv_raw c r)

let matches re w =
  nullable (String.fold_left (fun r c -> deriv c r) re w)

let pattern_matches { Ast.re; anchored_start; anchored_end } w =
  let re = if anchored_end then re else Ast.seq re (Ast.star Ast.any) in
  let re = if anchored_start then re else Ast.seq (Ast.star Ast.any) re in
  matches re w

open Helpers

let unit_tests =
  [
    test "empty has no members" (fun () ->
        check_bool "mem" false (Charset.mem 'a' Charset.empty);
        check_int "cardinal" 0 (Charset.cardinal Charset.empty);
        check_bool "is_empty" true (Charset.is_empty Charset.empty));
    test "full has all members" (fun () ->
        check_int "cardinal" 256 (Charset.cardinal Charset.full);
        check_bool "mem nul" true (Charset.mem '\000' Charset.full);
        check_bool "mem 255" true (Charset.mem '\255' Charset.full));
    test "singleton" (fun () ->
        let s = Charset.singleton 'x' in
        check_bool "mem x" true (Charset.mem 'x' s);
        check_bool "mem y" false (Charset.mem 'y' s);
        check_int "cardinal" 1 (Charset.cardinal s));
    test "range and classes" (fun () ->
        check_int "digit" 10 (Charset.cardinal Charset.digit);
        check_int "word" 63 (Charset.cardinal Charset.word);
        check_bool "word _" true (Charset.mem '_' Charset.word);
        check_bool "space tab" true (Charset.mem '\t' Charset.space);
        check_bool "digit letter" false (Charset.mem 'a' Charset.digit));
    test "of_string dedupes" (fun () ->
        let s = Charset.of_string "abba" in
        check_int "cardinal" 2 (Charset.cardinal s));
    test "union merges adjacent ranges" (fun () ->
        let u = Charset.union (Charset.range 'a' 'm') (Charset.range 'n' 'z') in
        check_bool "equals a-z" true (Charset.equal u Charset.lower);
        check_int "single interval" 1 (List.length (Charset.ranges u)));
    test "complement of empty is full" (fun () ->
        check_bool "eq" true (Charset.equal (Charset.complement Charset.empty) Charset.full));
    test "choose prefers printable" (fun () ->
        let s = Charset.union (Charset.singleton '\001') (Charset.singleton 'q') in
        check_string "choose" "q" (String.make 1 (Charset.choose s)));
    test "min_elt" (fun () ->
        check_string "min" "0" (String.make 1 (Charset.min_elt Charset.digit));
        Alcotest.check_raises "empty" Not_found (fun () ->
            ignore (Charset.min_elt Charset.empty)));
    test "range rejects inverted bounds" (fun () ->
        Alcotest.check_raises "inverted"
          (Invalid_argument "Charset.range: lo > hi") (fun () ->
            ignore (Charset.range 'z' 'a')));
    test "to_list round trip" (fun () ->
        let s = Charset.of_string "dcba" in
        Alcotest.(check (list char)) "sorted" [ 'a'; 'b'; 'c'; 'd' ] (Charset.to_list s));
    test "pp formats classes" (fun () ->
        check_string "digit" "[0-9]" (Charset.to_string Charset.digit);
        check_string "full" "Σ" (Charset.to_string Charset.full);
        check_string "empty" "∅" (Charset.to_string Charset.empty);
        check_string "singleton" "a" (Charset.to_string (Charset.singleton 'a')));
    test "refine on overlapping sets" (fun () ->
        let blocks = Charset.refine [ Charset.range 'a' 'm'; Charset.range 'g' 'z' ] in
        check_int "three blocks" 3 (List.length blocks);
        let union = List.fold_left Charset.union Charset.empty blocks in
        check_bool "covers" true (Charset.equal union Charset.lower));
  ]

let prop_tests =
  let pair_char =
    QCheck2.Gen.(
      let* a = charset_gen in
      let* b = charset_gen in
      let* byte = int_bound 255 in
      return (a, b, Char.chr byte))
  in
  [
    qtest "mem union = or" pair_char (fun (a, b, c) ->
        Charset.mem c (Charset.union a b) = (Charset.mem c a || Charset.mem c b));
    qtest "mem inter = and" pair_char (fun (a, b, c) ->
        Charset.mem c (Charset.inter a b) = (Charset.mem c a && Charset.mem c b));
    qtest "mem diff = and-not" pair_char (fun (a, b, c) ->
        Charset.mem c (Charset.diff a b) = (Charset.mem c a && not (Charset.mem c b)));
    qtest "mem complement = not" pair_char (fun (a, _, c) ->
        Charset.mem c (Charset.complement a) = not (Charset.mem c a));
    qtest "complement involutive" pair_char (fun (a, _, _) ->
        Charset.equal (Charset.complement (Charset.complement a)) a);
    qtest "union commutative" pair_char (fun (a, b, _) ->
        Charset.equal (Charset.union a b) (Charset.union b a));
    qtest "inter subset of operands" pair_char (fun (a, b, _) ->
        let i = Charset.inter a b in
        Charset.subset i a && Charset.subset i b);
    qtest "compare orders as the polymorphic compare of the ranges" pair_char
      (fun (a, b, _) ->
        Int.compare (Charset.compare a b) 0
        = Int.compare (compare (Charset.ranges a) (Charset.ranges b)) 0);
    qtest "intersects agrees with inter" pair_char (fun (a, b, _) ->
        Charset.intersects a b = not (Charset.is_empty (Charset.inter a b)));
    qtest "cardinal of union" pair_char (fun (a, b, _) ->
        Charset.cardinal (Charset.union a b)
        = Charset.cardinal a + Charset.cardinal b - Charset.cardinal (Charset.inter a b));
    qtest "refine blocks are disjoint and cover"
      QCheck2.Gen.(list_size (int_range 0 5) charset_gen)
      (fun sets ->
        let blocks = Charset.refine sets in
        let universe = List.fold_left Charset.union Charset.empty sets in
        let cover = List.fold_left Charset.union Charset.empty blocks in
        let disjoint =
          let rec check = function
            | [] -> true
            | b :: rest ->
                (not (List.exists (Charset.intersects b) rest)) && check rest
          in
          check blocks
        in
        let refines =
          List.for_all
            (fun set ->
              List.for_all
                (fun block ->
                  Charset.subset block set || not (Charset.intersects block set))
                blocks)
            sets
        in
        Charset.equal cover universe && disjoint && refines);
    qtest "hash consistent with equal" pair_char (fun (a, b, _) ->
        (not (Charset.equal a b)) || Charset.hash a = Charset.hash b);
  ]

let suite = [ ("charset:unit", unit_tests); ("charset:props", prop_tests) ]

(* Hash-consed language handles with memoized operations. See the
   .mli for the contract; the two load-bearing pieces here are the
   canonical key (equal keys must imply equal languages — we get the
   stronger property that the trimmed machines are isomorphic) and the
   disabled mode, which must behave exactly like the pre-store code
   path so [--no-cache] is a faithful ablation. *)

module Metrics = Telemetry.Metrics

let intern_hit = Metrics.Counter.make "store.intern.hit"
let intern_miss = Metrics.Counter.make "store.intern.miss"
let opcache_hit = Metrics.Counter.make "store.opcache.hit"
let opcache_miss = Metrics.Counter.make "store.opcache.miss"
let opcache_evict = Metrics.Counter.make "store.opcache.evict"
let machine_states = Metrics.Histogram.make "store.machine.states"

(* The ledger's raw material: per op, where the cache spends ([key] =
   keying/lookup, paid on hit and miss alike) and what a hit avoids
   ([miss] = the compute the cache would have skipped). [Ledger] below
   derives net savings from these plus the hit/miss counters. *)
let ledger_key = Metrics.Timer.make "store.ledger.key"
let ledger_miss = Metrics.Timer.make "store.ledger.miss"

(* Atomic so an engine worker spawned after [--no-cache] reliably
   observes the ablation flag; it is only ever written from the main
   domain (CLI setup, bench arms). *)
let enabled_flag = Atomic.make true
let enabled () = Atomic.get enabled_flag

(* ------------------------------------------------------------------ *)
(* Cost gate *)

(* One keying rule, decided by machine size alone so that every
   counter the store emits is a function of the workload, never of
   timing. A machine of at most [max_states] states is keyed by its
   canonical form. A larger one is shared only by physical identity
   (the MRU below): the key is a full serialization of the trimmed
   machine, so its cost grows with the machine while a memo hit's value
   does not. Without the ceiling the Fig. 12 [secure] workload runs at
   less than half its throughput (DESIGN §9). *)
module Gate = struct
  let max_states = 256
  let skip_c = Metrics.Counter.make "store.gate.skip"
  let skip op = Metrics.Counter.incr ~labels:[ ("op", op) ] skip_c 1
end

type handle = {
  id : int;
  nfa : Nfa.t;
  (* [keyed] = this handle's id is stable for its language in this
     domain (it came out of the intern or text table), so it is usable as
     a memo key. An over-ceiling or disabled-store handle is not: its
     id never repeats, and memoizing on it would only fill tables with
     garbage. *)
  mutable keyed : bool;
  mutable dfa_memo : Dfa.t option;
  mutable min_dfa_memo : Dfa.t option;
  mutable minimized_memo : Nfa.t option;
  mutable empty_memo : bool option;
  mutable compact_memo : handle option;
      (* the interned handle of this machine's minimal DFA — a slot of
         its own because the canonical key of the minimized machine is
         itself the expensive part, and [min_dfa_memo] alone would
         leave every caller re-paying it *)
  mutable word : string option;
      (* [Some w] once [of_word w] has returned this handle: its
         language is exactly [{w}] *)
}

let nfa h = h.nfa
let id h = h.id
let word h = h.word

(* ------------------------------------------------------------------ *)
(* Canonical key *)

(* Serialization of the trimmed machine under a deterministic BFS
   renumbering. Two machines whose trimmed forms are isomorphic under
   *this* traversal order produce equal strings; since the traversal
   is a function of the machine's structure alone, equal keys imply
   the trimmed machines are isomorphic, hence language-equal. (The
   converse is not sought: structurally different machines for the
   same language hash apart, which only costs sharing.)

   Traversal: BFS from the start state, expanding each state's char
   edges ordered by (label, old destination id) and then its ε-edges
   ordered by old destination id. Trim guarantees every state but the
   final state of an empty-language machine is reachable; any
   leftovers are appended in old-id order so the key is total. Each
   state is then written with its char edges ordered by (label, new
   destination id) and its ε-edges by new destination id.

   Each state's char edges are sorted once, for the traversal; the
   write only re-orders runs of one label by their new ids, and such
   runs are short. Keys are interned thousands of times per workload,
   so the write allocates nothing per edge and puts every digit
   directly — a [Printf.sprintf] here once cost more than the rest of
   the traversal combined. *)

let compare_edge ((c1 : Charset.t), (d1 : int)) (c2, d2) =
  let c = Charset.compare c1 c2 in
  if c <> 0 then c else Int.compare d1 d2

(* in-place insertion sort of [a.(lo) .. a.(hi - 1)]: ε-lists,
   same-label runs and most states' edge lists hold a handful of
   entries *)
let insertion_sort cmp a lo hi =
  for i = lo + 1 to hi - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && cmp a.(!j) x > 0 do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* a dense determinized state has up to 256 edges, where an O(k²)
   sort would dominate *)
let sort_edges (a : (Charset.t * int) array) =
  let k = Array.length a in
  if k > 16 then Array.sort compare_edge a else insertion_sort compare_edge a 0 k

(* non-negative only: state ids, state counts and byte bounds *)
let rec add_int buf i =
  if i >= 10 then add_int buf (i / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (i mod 10)))

let rec add_ranges buf = function
  | [] -> ()
  | (lo, hi) :: rest ->
      add_int buf lo;
      Buffer.add_char buf '-';
      add_int buf hi;
      Buffer.add_char buf ',';
      add_ranges buf rest

(* The key of [m] restricted to the [live] states its BFS reaches:
   trimming keeps the live states' relative order and drops every edge
   into a dead one, so numbering and writing only those states is the
   key of the trimmed machine, with no trimmed copy built. [leftovers]
   appends the live states the BFS missed, which only the canonical
   empty machine has. *)
let key_of ~live ~leftovers m =
  let n = Nfa.num_states m in
  let order = Array.make (max n 1) (-1) in
  let inv = Array.make (max n 1) 0 in
  let next = ref 0 in
  let number q =
    if order.(q) < 0 then begin
      order.(q) <- !next;
      inv.(!next) <- q;
      incr next
    end
  in
  (* a state's char edges by (label, old destination), built on first
     use *)
  let sorted = Array.make (max n 1) [||] in
  let char_edges q =
    match Nfa.char_transitions m q with
    | [] -> [||]
    | edges ->
        if Array.length sorted.(q) = 0 then begin
          let a = Array.of_list edges in
          sort_edges a;
          sorted.(q) <- a
        end;
        sorted.(q)
  in
  let eps = ref (Array.make 8 0) in
  (* the live ε-successors of [q] mapped through [f] into [!eps],
     sorted; returns their count *)
  let eps_edges q f =
    let ds = List.filter live (Nfa.eps_transitions_from m q) in
    let k = List.length ds in
    if k > Array.length !eps then eps := Array.make (2 * k) 0;
    List.iteri (fun i d -> !eps.(i) <- f d) ds;
    insertion_sort Int.compare !eps 0 k;
    k
  in
  (* BFS: the numbering order is the visiting order. A dead state
     leads to no live one, so skipping dead states leaves the live ones
     in the order a BFS of the trimmed machine visits them. *)
  number (Nfa.start m);
  let head = ref 0 in
  while !head < !next do
    let q = inv.(!head) in
    incr head;
    Array.iter (fun (_, d) -> if live d then number d) (char_edges q);
    let k = eps_edges q Fun.id in
    for i = 0 to k - 1 do
      number !eps.(i)
    done
  done;
  if leftovers then
    for q = 0 to n - 1 do
      number q
    done;
  let n = !next in
  let buf = Buffer.create 1024 in
  add_int buf n;
  Buffer.add_char buf '#';
  add_int buf order.(Nfa.start m);
  Buffer.add_char buf '#';
  add_int buf order.(Nfa.final m);
  let dests = ref (Array.make 8 0) in
  for i = 0 to n - 1 do
    let q = inv.(i) in
    Buffer.add_char buf '|';
    let edges = char_edges q in
    let k = Array.length edges in
    if k > Array.length !dests then dests := Array.make (2 * k) 0;
    let dests = !dests in
    (* -1 for an edge into a dead state, which the write skips *)
    for j = 0 to k - 1 do
      dests.(j) <- order.(snd edges.(j))
    done;
    let j = ref 0 in
    while !j < k do
      let label = fst edges.(!j) in
      let stop = ref (!j + 1) in
      while !stop < k && Charset.compare (fst edges.(!stop)) label = 0 do
        incr stop
      done;
      insertion_sort Int.compare dests !j !stop;
      for e = !j to !stop - 1 do
        if dests.(e) >= 0 then begin
          add_ranges buf (Charset.ranges label);
          Buffer.add_char buf '>';
          add_int buf dests.(e);
          Buffer.add_char buf ';'
        end
      done;
      j := !stop
    done;
    Buffer.add_char buf '!';
    let k = eps_edges q (fun d -> order.(d)) in
    for e = 0 to k - 1 do
      add_int buf !eps.(e);
      Buffer.add_char buf ','
    done
  done;
  Buffer.contents buf

(* The live states are the co-reachable ones the BFS reaches: one
   backward sweep marks them. Without a live start the language is
   empty, and its trimmed machine is the canonical empty one. *)
let canonical_key m =
  let coreachable = Nfa.coreachable_flags m (Nfa.final m) in
  if Nfa.Flags.mem coreachable (Nfa.start m) then
    key_of ~live:(Nfa.Flags.mem coreachable) ~leftovers:false m
  else key_of ~live:(fun _ -> true) ~leftovers:true (fst (Nfa.trim m))

(* ------------------------------------------------------------------ *)
(* Intern table *)

(* One intern table per domain: the store is deliberately not shared
   across engine workers (no locks on the solve hot path; a worker's
   cache dies with its domain). Handles must therefore stay inside
   the domain that interned them. *)
let intern_table_key : (string, handle) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let intern_table () = Domain.DLS.get intern_table_key

(* Monotone across [clear]/[set_enabled] — and globally unique across
   domains — so stale ids in surviving caller-side memo keys can never
   alias a new machine. *)
let next_id = Atomic.make 0

let fresh_handle m =
  let id = Atomic.fetch_and_add next_id 1 in
  {
    id;
    nfa = m;
    keyed = false;
    dfa_memo = None;
    min_dfa_memo = None;
    minimized_memo = None;
    empty_memo = None;
    compact_memo = None;
    word = None;
  }

(* Physical-identity fast path: callers that hold one machine value
   across many solves (a corpus-wide attack language, a compiled
   constant) re-intern the same physical [Nfa.t] once per file.
   Machines are immutable, so pointer equality proves language
   equality; a tiny MRU list answers those repeats without paying the
   canonical key again. *)
let physeq_limit = 8

let physeq_key : (Nfa.t * handle) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let physeq_find m =
  let rec go = function
    | [] -> None
    | (m', h) :: _ when m' == m -> Some h
    | _ :: rest -> go rest
  in
  go !(Domain.DLS.get physeq_key)

let physeq_add m h =
  let r = Domain.DLS.get physeq_key in
  let rest = List.filter (fun (m', _) -> m' != m) !r in
  r := (m, h) :: List.filteri (fun i _ -> i < physeq_limit - 1) rest

(* Interning pays the canonical key — that serialization is the
   "key-hash tax" the cache-effectiveness ledger prices, because the
   key cost scales with machine size while a hit saves the rebuild the
   caller already did plus the memo state attached to the shared
   handle. *)
let intern m =
  if not (enabled ()) then fresh_handle m
  else
    match physeq_find m with
    | Some h ->
        Metrics.Counter.incr intern_hit 1;
        h
    | None ->
        if Nfa.num_states m > Gate.max_states then begin
          (* share by pointer identity only, so a caller holding one big
             machine across solves still gets one handle *)
          Gate.skip "intern";
          let h = fresh_handle m in
          physeq_add m h;
          h
        end
        else begin
          let table = intern_table () in
          let key =
            Metrics.Timer.time ledger_key
              ~labels:[ ("op", "intern") ]
              (fun () -> canonical_key m)
          in
          match Hashtbl.find_opt table key with
          | Some h ->
              Metrics.Counter.incr intern_hit 1;
              physeq_add m h;
              h
          | None ->
              Metrics.Counter.incr intern_miss 1;
              Metrics.Histogram.observe machine_states
                (float_of_int (Nfa.num_states m));
              let h =
                Metrics.Timer.time ledger_miss
                  ~labels:[ ("op", "intern") ]
                  (fun () -> fresh_handle m)
              in
              h.keyed <- true;
              Hashtbl.replace table key h;
              physeq_add m h;
              h
        end

(* ------------------------------------------------------------------ *)
(* Constant fast paths *)

(* The dominant intern traffic is re-interning machines rebuilt from
   the same constant text — word literals evaluated once per fixpoint
   iteration, the same [/pattern/] in every request a warm wire store
   parses, the implicit-top Σ* looked up on every absent binding. Each
   has a far cheaper stable key than the canonical serialization: its
   source text, or nothing at all. The handles they return are [keyed]
   (their ids are stable per domain), so downstream op memos work at
   full strength without the tax. *)

type source = Word | Pattern

let text_table_key : (source * string, handle) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

(* [build] must be a function of [text] alone; an exception it raises
   propagates and leaves the table untouched. *)
let of_text source text build =
  if not (enabled ()) then fresh_handle (build ())
  else
    let table = Domain.DLS.get text_table_key in
    match Hashtbl.find_opt table (source, text) with
    | Some h ->
        Metrics.Counter.incr intern_hit 1;
        h
    | None ->
        (* one canonical-key toll (unless over the ceiling) so an equal
           machine arriving via another construction path still shares
           the handle; every later ask for this text is a string hash *)
        let h = intern (build ()) in
        h.keyed <- true;
        Hashtbl.replace table (source, text) h;
        h

let of_word w =
  let h = of_text Word w (fun () -> Nfa.of_word w) in
  h.word <- Some w;
  h

let of_pattern text build = of_text Pattern text build

let top_handle_key : handle option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let top () =
  if not (enabled ()) then fresh_handle Nfa.sigma_star
  else
    let r = Domain.DLS.get top_handle_key in
    match !r with
    | Some h ->
        Metrics.Counter.incr intern_hit 1;
        h
    | None ->
        let h = intern Nfa.sigma_star in
        r := Some h;
        h

(* ------------------------------------------------------------------ *)
(* Per-handle memo slots *)

let dfa h =
  if not (enabled ()) then Dfa.of_nfa h.nfa
  else
    match h.dfa_memo with
    | Some d -> d
    | None ->
        let d = Dfa.of_nfa h.nfa in
        h.dfa_memo <- Some d;
        d

let min_dfa h =
  (* the {!dfa} slot is read, not filled: a residual's upper bound
     needs only the minimal machine, and keeping the raw
     determinization beside it would hold both for every bound *)
  let compute () =
    match (h.word, h.dfa_memo) with
    | Some w, _ -> Dfa.of_word w
    | None, Some d -> Dfa.minimize d
    | None, None -> Dfa.minimize (Dfa.of_nfa h.nfa)
  in
  if not (enabled ()) then compute ()
  else
    match h.min_dfa_memo with
    | Some d -> d
    | None ->
        let d = compute () in
        h.min_dfa_memo <- Some d;
        d

let minimized h =
  if not (enabled ()) then Lang.compact h.nfa
  else
    match h.minimized_memo with
    | Some m -> m
    | None ->
        let m = Lang.compact h.nfa in
        h.minimized_memo <- Some m;
        m

let is_empty h =
  if not (enabled ()) then Nfa.is_empty_lang h.nfa
  else
    match h.empty_memo with
    | Some b -> b
    | None ->
        let b = Nfa.is_empty_lang h.nfa in
        h.empty_memo <- Some b;
        b

let compacted h =
  if not (enabled ()) then fresh_handle (Dfa.to_nfa (min_dfa h))
  else
    match h.compact_memo with
    | Some c -> c
    | None ->
        (* the DFA slots are read, not filled: the solver compacts every
           gci slice it binds, and keeping two DFAs per slice grew the
           live heap of perfbench's warm [wire] store by 13% *)
        let d =
          match (h.min_dfa_memo, h.dfa_memo) with
          | Some m, _ -> m
          | None, Some d -> Dfa.minimize d
          | None, None -> Dfa.minimize (Dfa.of_nfa h.nfa)
        in
        let c = intern (Dfa.to_nfa d) in
        h.compact_memo <- Some c;
        (* compaction is idempotent: re-minimizing a machine that is
           already a minimal DFA yields an isomorphic machine, hence
           the same canonical key and the same handle *)
        c.compact_memo <- Some c;
        c

(* ------------------------------------------------------------------ *)
(* Generic bounded LRU memoization *)

module Memo = struct
  type 'v entry = { value : 'v; mutable stamp : int }

  type 'v state = {
    table : (int list, 'v entry) Hashtbl.t;
    mutable tick : int;
  }

  (* A memo names a per-domain table: [create] allocates a DLS key and
     each domain materializes its own state on first use, for the same
     reason the intern table is domain-local. The [clearers] list is
     only ever extended at module-init time (all [create] call sites
     are top-level definitions), before any worker domain exists. *)
  type 'v t = { op : string; key : 'v state Domain.DLS.key }

  (* Every table registers a clearer so [Store.clear] reaches caches
     created by higher layers (solver, residual) without a type-level
     dependency on their value types. A clearer resets the calling
     domain's instance; worker tables are dropped wholesale when their
     domain exits. *)
  let clearers : (unit -> unit) list ref = ref []

  (* Per-table entry cap; a full table evicts its least-recently-used
     half in one batch. *)
  let capacity = 4096

  let create ~op =
    let key =
      Domain.DLS.new_key (fun () ->
          { table = Hashtbl.create 64; tick = 0 })
    in
    let t = { op; key } in
    clearers :=
      (fun () ->
        let s = Domain.DLS.get key in
        Hashtbl.reset s.table;
        s.tick <- 0)
      :: !clearers;
    t

  (* Batch-evict the least-recently-used half: O(n) with no auxiliary
     order structure to maintain on hits, amortized O(1) per insert. *)
  let evict_half op s =
    let n = Hashtbl.length s.table in
    let stamps = Array.make n 0 in
    let i = ref 0 in
    Hashtbl.iter
      (fun _ e ->
        stamps.(!i) <- e.stamp;
        incr i)
      s.table;
    Array.sort compare stamps;
    let cutoff = stamps.(n / 2) in
    let victims =
      Hashtbl.fold
        (fun k e acc -> if e.stamp < cutoff then k :: acc else acc)
        s.table []
    in
    List.iter (Hashtbl.remove s.table) victims;
    Metrics.Counter.incr ~labels:[ ("op", op) ] opcache_evict (List.length victims)

  let find_or_compute t ~key f =
    if not (enabled ()) then f ()
    else begin
      let s = Domain.DLS.get t.key in
      s.tick <- s.tick + 1;
      let labels = [ ("op", t.op) ] in
      let found =
        Metrics.Timer.time ledger_key ~labels (fun () ->
            Hashtbl.find_opt s.table key)
      in
      match found with
      | Some e ->
          e.stamp <- s.tick;
          Metrics.Counter.incr ~labels opcache_hit 1;
          e.value
      | None ->
          Metrics.Counter.incr ~labels opcache_miss 1;
          let v = Metrics.Timer.time ledger_miss ~labels f in
          if Hashtbl.length s.table >= capacity then evict_half t.op s;
          Hashtbl.replace s.table key { value = v; stamp = s.tick };
          v
    end
end

(* ------------------------------------------------------------------ *)
(* Cached binary operations *)

let inter_memo : handle Memo.t = Memo.create ~op:"inter_lang"
let concat_memo : handle Memo.t = Memo.create ~op:"concat_lang"
let union_memo : handle Memo.t = Memo.create ~op:"union_lang"
let cex_memo : string option Memo.t = Memo.create ~op:"counterexample"

(* A pair is worth memoizing only when both ids are stable: an
   over-ceiling handle's id never repeats, so caching on it fills the
   table with entries no lookup can ever hit. *)
let memoizable h1 h2 = h1.keyed && h2.keyed

let cached_binop memo op f h1 h2 =
  if (not (enabled ())) || memoizable h1 h2 then
    Memo.find_or_compute memo ~key:[ h1.id; h2.id ] f
  else begin
    Gate.skip op;
    f ()
  end

(* Algebraic identities, checked by handle identity before any table
   is consulted: the same physical handle is trivially the same
   language, and the per-domain Σ* handle absorbs/neutralizes lattice
   ops. The abstract-interpretation layer hits these constantly — a
   join point unions each unchanged binding with itself, and a fresh
   variable's first refinement intersects with implicit top — and
   every shortcut here skips a whole product construction. Sound with
   the store disabled too ([==] on handles never cross-identifies);
   [is_top] only ever matches the cached enabled-path handle. *)
let is_top h =
  match !(Domain.DLS.get top_handle_key) with
  | Some t -> t == h
  | None -> false

let inter_lang h1 h2 =
  if h1 == h2 then h1
  else if is_top h1 then h2
  else if is_top h2 then h1
  else
    cached_binop inter_memo "inter_lang"
      (fun () -> intern (Ops.inter_lang h1.nfa h2.nfa))
      h1 h2

let concat_lang h1 h2 =
  cached_binop concat_memo "concat_lang"
    (fun () -> intern (Ops.concat_lang h1.nfa h2.nfa))
    h1 h2

let union_lang h1 h2 =
  if h1 == h2 then h1
  else if is_top h1 then h1
  else if is_top h2 then h2
  else
    cached_binop union_memo "union_lang"
      (fun () -> intern (Ops.union_lang h1.nfa h2.nfa))
      h1 h2

let counterexample h1 h2 =
  if h1 == h2 then None
  else if is_top h2 then None (* L ⊆ Σ* *)
  else
    cached_binop cex_memo "counterexample"
      (fun () -> Lang.counterexample h1.nfa h2.nfa)
      h1 h2

let subset h1 h2 = counterexample h1 h2 = None
let equal h1 h2 = subset h1 h2 && subset h2 h1
let disjoint h1 h2 = is_empty (inter_lang h1 h2)

(* ------------------------------------------------------------------ *)
(* Cache-effectiveness ledger *)

module Ledger = struct
  module Snapshot = Metrics.Snapshot

  type row = {
    op : string;
    hits : int;
    misses : int;
    key_ns : int64;
    miss_ns : int64;
    avg_miss_ns : float;
    net_saved_ns : float;
  }

  (* One row per op seen in the snapshot: the memo tables (from the
     [store.opcache.*] counters) plus the intern table itself. The
     formula prices a cache by what its hits actually avoided (the
     average observed miss cost) minus what every caller paid to ask
     (total keying/lookup time) — a cache whose net is negative costs
     more than it saves on this workload. *)
  let of_snapshot snap =
    let ops = Hashtbl.create 8 in
    let note_op labels =
      match List.assoc_opt "op" labels with
      (* intern tracks hits in its own counters, not the per-memo ones;
         it gets a dedicated row below rather than a generic one here. *)
      | Some "intern" | None -> ()
      | Some op -> Hashtbl.replace ops op ()
    in
    List.iter
      (fun (name, labels, _) ->
        if name = "store.opcache.hit" || name = "store.opcache.miss" then
          note_op labels)
      (Snapshot.counters snap);
    List.iter
      (fun (name, labels, _) ->
        if name = "store.ledger.key" || name = "store.ledger.miss" then
          note_op labels)
      (Snapshot.timers snap);
    let timer name op =
      match Snapshot.timer_stat snap ~labels:[ ("op", op) ] name with
      | Some s -> s.Snapshot.total_ns
      | None -> 0L
    in
    let row op ~hits ~misses =
      let key_ns = timer "store.ledger.key" op in
      let miss_ns = timer "store.ledger.miss" op in
      let avg_miss_ns =
        if misses = 0 then 0.
        else Int64.to_float miss_ns /. float_of_int misses
      in
      {
        op;
        hits;
        misses;
        key_ns;
        miss_ns;
        avg_miss_ns;
        net_saved_ns = (float_of_int hits *. avg_miss_ns) -. Int64.to_float key_ns;
      }
    in
    let memo_rows =
      Hashtbl.fold
        (fun op () acc ->
          let c name = Snapshot.counter_value snap ~labels:[ ("op", op) ] name in
          row op ~hits:(c "store.opcache.hit") ~misses:(c "store.opcache.miss")
          :: acc)
        ops []
    in
    let all =
      if
        Snapshot.counter_value snap "store.intern.hit" > 0
        || Snapshot.counter_value snap "store.intern.miss" > 0
      then
        row "intern"
          ~hits:(Snapshot.counter_value snap "store.intern.hit")
          ~misses:(Snapshot.counter_value snap "store.intern.miss")
        :: memo_rows
      else memo_rows
    in
    (* worst offenders first: most negative net savings at the top *)
    List.sort (fun a b -> compare a.net_saved_ns b.net_saved_ns) all

  let ms ns = ns /. 1e6

  let pp_row ppf r =
    Fmt.pf ppf "%-18s %8d %8d %10.3f %12.1f %12.3f %12.3f" r.op r.hits r.misses
      (ms (Int64.to_float r.key_ns))
      r.avg_miss_ns
      (ms (Int64.to_float r.miss_ns))
      (ms r.net_saved_ns)

  let pp ppf rows =
    Fmt.pf ppf "%-18s %8s %8s %10s %12s %12s %12s@." "op" "hits" "misses"
      "key(ms)" "avg_miss(ns)" "miss(ms)" "net_saved(ms)";
    List.iter (fun r -> Fmt.pf ppf "%a@." pp_row r) rows
end

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let hit_totals () = (Metrics.Counter.total intern_hit, Metrics.Counter.total opcache_hit)

let clear () =
  Hashtbl.reset (intern_table ());
  Hashtbl.reset (Domain.DLS.get text_table_key);
  Domain.DLS.get top_handle_key := None;
  Domain.DLS.get physeq_key := [];
  List.iter (fun f -> f ()) !Memo.clearers

let on_clear f = Memo.clearers := f :: !Memo.clearers

let set_enabled b =
  let was = Atomic.get enabled_flag in
  Atomic.set enabled_flag b;
  if was && not b then clear ()

(** The meaning of each mini-PHP construct, in one place.

    Three consumers interpret the same syntax: the concrete
    interpreter ({!Eval}), symbolic execution ({!Symexec}) and the
    dataflow domain ([Analysis.Absdom]). The static prune skips the
    solves for sinks the fixpoint proves safe, which is sound only
    while the fixpoint's branch languages are exactly the languages
    symbolic execution turns into path obligations — so both ask
    {!cond_lang} here, and all three apply sanitizers through
    {!fst}/{!apply}. *)

(** {1 Sanitizers} *)

(** The sanitizer's transducer: images in the domain, preimages when
    an exploit language is pulled back to the raw input. *)
val fst : Ast.sanitizer -> Automata.Fst.t

(** The sanitizer on a concrete string;
    [Fst.apply (fst s) w = Some (apply s w)]. *)
val apply : Ast.sanitizer -> string -> string

(** Slot-name suffix of a read through the sanitizer ([lower],
    [upper], [slashes], [repl<c>_<s>]); symbolic execution names the
    system variable [x~lower] after it. *)
val name : Ast.sanitizer -> string

(** {1 Conditions} *)

(** The string a condition tests (under any number of [Not]s). *)
val cond_operand : Ast.cond -> Ast.expr

(** [holds c w]: the condition's value when its operand evaluates to
    [w]. *)
val holds : Ast.cond -> string -> bool

(** [cond_lang value c]: the language the operand lies in exactly
    when [c] evaluates to [value] — the accept language, or its
    complement. Built once per (test, polarity) and per domain — the
    pattern, word or length comparison, with the operand erased —
    reset with {!Automata.Store.clear}, and rebuilt on every call
    while the store is disabled ([--no-cache]). *)
val cond_lang : bool -> Ast.cond -> Automata.Store.handle

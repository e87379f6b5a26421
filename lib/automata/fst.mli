(** Finite-state transducers (letter-to-string), and the regular
    image/preimage constructions that let the solver reason through
    sanitizers.

    The paper's related work reverses PHP string functions with FSTs
    (Wassermann et al.); this module provides the same capability for
    the sanitizers the corpus needs: a transition consumes one input
    character (from a charset) and emits a string derived from it, or
    emits a fixed string without consuming. Both [image f L] and
    [preimage f L] of a regular language are regular; the solver uses
    preimages to pull a constraint on [sanitize(x)] back to [x]. *)

type output =
  | Copy  (** emit the consumed character *)
  | Map of (char -> char)  (** emit a character-to-character image *)
  | Drop  (** emit nothing *)
  | Wrap of string * string  (** emit [pre ^ c ^ post] *)
  | Subst of string  (** emit a fixed string, ignoring the character *)

type t

(** {1 Construction} *)

module Builder : sig
  type b

  val create : unit -> b

  val add_state : b -> int

  (** [consume b src cs out dst] — read one [c ∈ cs], emit per [out]. *)
  val consume : b -> int -> Charset.t -> output -> int -> unit

  (** [emit b src s dst] — emit [s] without consuming input. *)
  val emit : b -> int -> string -> int -> unit

  val finish : b -> start:int -> finals:int list -> t
end

(** {1 Stock sanitizers} *)

(** The identity transducer. *)
val identity : t

(** PHP [addslashes]: backslash-escape the single quote, the double
    quote, and the backslash. *)
val addslashes : t

(** Delete every occurrence of the characters. *)
val delete_chars : Charset.t -> t

(** PHP [str_replace] with a single-character needle: replace every
    [c] by [s]. *)
val replace_char : char -> string -> t

(** Character map as a transducer: [preimage (map_chars f)] pulls a
    constraint back through [f], e.g. PHP's [strtolower]. *)
val map_chars : (char -> char) -> t

(** {1 Semantics} *)

(** Apply to a concrete string. [None] if the transducer rejects the
    input (stock sanitizers are total). Nondeterministic transducers
    return the first output found. *)
val apply : t -> string -> string option

(** [image f m] accepts [{ f(w) | w ∈ L(m) }]. *)
val image : t -> Nfa.t -> Nfa.t

(** [preimage f m] accepts [{ w | f(w) ∈ L(m) }]. *)
val preimage : t -> Nfa.t -> Nfa.t

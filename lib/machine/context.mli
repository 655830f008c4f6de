(** Iteration contexts (tags).

    In an explicit token store machine every loop iteration gets its own
    activation frame; tokens of different iterations rendezvous in
    different frames.  A context is the stack of loop iteration indices
    enclosing the token, innermost first: the top-level context is [[]];
    entering a loop pushes [0]; taking the back edge increments the top;
    leaving the loop pops it.  Two tokens match at an operator iff their
    contexts are equal — the waiting-matching rule. *)

type t = int list

val toplevel : t

(** [enter c] opens iteration 0 of a fresh loop activation under [c]. *)
val enter : t -> t

(** [next c] advances to the following iteration.
    @raise Invalid_argument at top level. *)
val next : t -> t

(** [leave c] restores the enclosing context.
    @raise Invalid_argument at top level. *)
val leave : t -> t

(** [depth c] is the loop-nesting depth of the context. *)
val depth : t -> int

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Dense ids}

    One per-run table numbers the contexts a run meets densely from 0.
    A token's tag is its id alone: an engine keys its rendezvous and its
    checker state by the int, and reads the context back with {!of_id}
    only where something logs, checks or prints it.  Ids are minted
    only where contexts are, at loop gateways ({!move}); every other
    token, a completed deferred read included, carries its producer's
    id.  Ids are never reused or rolled back: an id is only a name. *)

type table

val table : unit -> table

(** [id tbl c] — [c]'s id, numbering it on first sight. *)
val id : table -> t -> int

(** [of_id tbl i] — the context numbered [i]. *)
val of_id : table -> int -> t

(** [move tbl f i] — the id of [f] applied to the context numbered [i]:
    how a loop gateway's {!enter}, {!next} and {!leave} move a token's
    id. *)
val move : table -> (t -> t) -> int -> int

(** Contexts numbered so far; every id is below it. *)
val count : table -> int

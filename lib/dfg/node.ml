(** Dataflow operator vocabulary (paper, Section 2.2 and Figure 2).

    Operators fire when tokens are present on the required inputs; tokens
    carry values (expression operands and predicates) or are {e dummies}
    used purely to sequence memory operations -- the access tokens of
    Schemas 1–3.  Fan-out is expressed by several arcs leaving the same
    output port: the token is duplicated onto each arc.

    Port conventions (input, output indices) are fixed per kind and
    documented on each constructor; {!in_arity}/{!out_arity} are the single
    source of truth the checker and the machine rely on. *)

type mem_kind =
  | Plain  (** ordinary multiply-writable memory *)
  | I_structure
      (** write-once cells with deferred reads (paper, Sections 2.2/6.3) *)

type kind =
  | Start of int
      (** program entry: no inputs; output port [i] (of [k]) emits the
          [i]-th initial token (one per managed access token) when
          execution begins *)
  | End of int
      (** program exit: [k] inputs collect every circulating token;
          firing [End] is program completion.  No outputs. *)
  | Const of Imp.Value.t
      (** in: trigger(0); out: the constant(0).  The trigger is the
          statement-activation token (an access-token duplicate): a
          constant must fire once per execution of its statement. *)
  | Binop of Imp.Ast.binop  (** in: left(0), right(1); out: result(0) *)
  | Unop of Imp.Ast.unop  (** in: operand(0); out: result(0) *)
  | Id  (** in: value(0); out: the same value(0); wiring helper *)
  | Sink
      (** in: value(0); no outputs.  Consumes and discards a token; used
          by the memory-elimination transform to absorb a dead old-value
          token (Section 6.1). *)
  | Load of { var : string; indexed : bool; mem : mem_kind }
      (** split-phase read of [var].
          in: access(0), index(1) when [indexed];
          out: value(0), access-out(1) *)
  | Store of { var : string; indexed : bool; mem : mem_kind }
      (** split-phase write of [var].
          in: access(0), value(1), index(2) when [indexed];
          out: access-out(0) *)
  | Switch
      (** in: data(0), predicate(1); out: true(0), false(1).  The data
          token is forwarded to the output selected by the predicate
          (Figure 2). *)
  | Merge
      (** single input port accepting any number of arcs; a token arriving
          on any of them is forwarded to out(0).  Determinate in our
          graphs because only one control path delivers per context. *)
  | Synch of int
      (** in: 0..n-1; out: dummy(0) once all inputs have arrived
          (Figure 2's synch tree, collapsed to one operator). *)
  | Loop_entry of { loop : int; arity : int }
      (** loop-control gateway for [arity] managed tokens.
          in: initial(0..k-1) from outside the loop, back(k..2k-1) from
          the back edge; out: 0..k-1 into the loop body.  Firing on the
          initial group opens iteration 0 of a fresh loop context; firing
          on the back group advances the iteration tag.  The paper leaves
          these as black boxes; this is the Monsoon-style frame
          reallocation made explicit.  Pipelined loop control uses one
          arity-1 gateway per variable; barrier loop control uses a
          single arity-k gateway (the complete token set, as Section 3
          requires). *)
  | Loop_exit of { loop : int; arity : int }
      (** in: 0..k-1; out: 0..k-1.  Restores the enclosing context
          (pops the iteration tag). *)

type t = {
  id : int;
  kind : kind;
  label : string;  (** for rendering and error messages *)
}

(** [in_arity k] is the number of input ports of kind [k]. *)
let in_arity : kind -> int = function
  | Start _ -> 0
  | End k -> k
  | Const _ -> 1
  | Binop _ -> 2
  | Unop _ -> 1
  | Id -> 1
  | Sink -> 1
  | Load { indexed; _ } -> if indexed then 2 else 1
  | Store { indexed; _ } -> if indexed then 3 else 2
  | Switch -> 2
  | Merge -> 1
  | Synch n -> n
  | Loop_entry { arity; _ } -> 2 * arity
  | Loop_exit { arity; _ } -> arity

(** [out_arity k] is the number of output ports of kind [k]. *)
let out_arity : kind -> int = function
  | Start k -> k
  | End _ -> 0
  | Const _ | Binop _ | Unop _ | Id -> 1
  | Sink -> 0
  | Load _ -> 2
  | Store _ -> 1
  | Switch -> 2
  | Merge -> 1
  | Synch _ -> 1
  | Loop_entry { arity; _ } -> arity
  | Loop_exit { arity; _ } -> arity

(** [is_memory_op k] holds for loads and stores; these are the operations
    whose ordering the access tokens exist to enforce. *)
let is_memory_op = function Load _ | Store _ -> true | _ -> false

(* Built by concatenation: the builder labels most nodes with this, so
   it runs once per node of every translated graph. *)
let kind_to_string (kind : kind) : string =
  let mem = function Plain -> "" | I_structure -> "-i" in
  let indexed b = if b then "[]" else "" in
  match kind with
  | Start k -> "start/" ^ string_of_int k
  | End k -> "end/" ^ string_of_int k
  | Const v -> "const " ^ Imp.Value.to_string v
  | Binop op -> Imp.Pretty.binop_string op
  | Unop Imp.Ast.Neg -> "neg"
  | Unop Imp.Ast.Not -> "not"
  | Id -> "id"
  | Sink -> "sink"
  | Load { var; indexed = i; mem = m } ->
      String.concat "" [ "load"; mem m; " "; var; indexed i ]
  | Store { var; indexed = i; mem = m } ->
      String.concat "" [ "store"; mem m; " "; var; indexed i ]
  | Switch -> "switch"
  | Merge -> "merge"
  | Synch n -> "synch/" ^ string_of_int n
  | Loop_entry { loop; arity } ->
      String.concat "" [ "loop-entry "; string_of_int loop; "/"; string_of_int arity ]
  | Loop_exit { loop; arity } ->
      String.concat "" [ "loop-exit "; string_of_int loop; "/"; string_of_int arity ]

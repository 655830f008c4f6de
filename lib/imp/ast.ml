(** Abstract syntax of IMP, the small imperative source language of the
    translation framework (paper, Section 2.1).

    IMP is deliberately close to the statement language of the paper: scalar
    and array assignments, structured conditionals and loops, and -- because
    the paper insists on handling {e unstructured} control flow -- labels,
    [goto] and conditional [goto].  Aliasing enters the language through two
    kinds of declarations: [equiv x y] makes [x] and [y] name the same
    storage at run time (FORTRAN reference-parameter style), while
    [mayalias x y] only informs the compiler that the two names {e may}
    coincide (the alias structure of Section 5) without actually sharing
    storage.  The compile-time alias structure is always a conservative
    superset of the run-time equivalences. *)

(** Variable names.  Scalars need no declaration; arrays are declared with
    their extent. *)
type var = string

(** Statement labels, targets of [goto]. *)
type label = string

(** Binary operators.  Comparison operators yield booleans; arithmetic
    operators yield integers; [And]/[Or] operate on booleans. *)
type binop =
  | Add
  | Sub
  | Mul
  | Div  (** total: division by zero yields 0 (language definition) *)
  | Mod  (** total: modulo zero yields 0 *)
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | And
  | Or

(** Unary operators. *)
type unop =
  | Neg  (** integer negation *)
  | Not  (** boolean negation *)

(** Expressions.  Array reads index a declared array; indices are reduced
    modulo the array extent so that evaluation is total (this mirrors the
    reference interpreter and keeps differential testing meaningful). *)
type expr =
  | Int of int
  | Bool of bool
  | Var of var
  | Index of var * expr  (** array read [x[e]] *)
  | Binop of binop * expr * expr
  | Unop of unop * expr

(** Assignment targets. *)
type lvalue =
  | Lvar of var
  | Lindex of var * expr  (** array write [x[e] := ...] *)

(** Statements.  [Label]/[Goto]/[Cond_goto] give unstructured control flow;
    they are only meaningful after flattening (see {!Flat}). *)
type stmt =
  | Skip
  | Assign of lvalue * expr
  | Seq of stmt * stmt
  | If of expr * stmt * stmt
  | While of expr * stmt
  | Label of label
  | Goto of label
  | Cond_goto of expr * label  (** [if e goto l], fallthrough otherwise *)
  | Call of string * var list
      (** procedure call with by-reference arguments (variable names),
          FORTRAN style; expanded by inlining at lowering time *)
  | Case of expr * (int * stmt) list * stmt
      (** multi-way branch on an integer scrutinee (paper, footnote 3):
          lowered to a fresh temporary plus a chain of binary forks *)

(** A parameterised procedure; parameters are scalar names bound by
    reference at each call site -- the paper's Section 5 source of
    aliasing. *)
type proc = {
  pname : string;
  params : var list;
  pbody : stmt;
}

(** A complete program: storage declarations, procedures, and a body. *)
type program = {
  arrays : (var * int) list;  (** declared arrays with extents (>= 1) *)
  equiv : (var * var) list;
      (** run-time storage equivalences: both names denote the same
          location(s); closed transitively by the memory layout *)
  may_alias : (var * var) list;
      (** additional compile-time may-alias pairs (symmetric, not
          necessarily transitive), as in the paper's alias structure *)
  procs : proc list;
  body : stmt;
}

(** [program body] is a program with no arrays, no aliasing and no
    procedures. *)
let program body = { arrays = []; equiv = []; may_alias = []; procs = []; body }

(** [seq ss] chains a statement list into nested {!Seq} (right-associated);
    [seq []] is {!Skip}. *)
let rec seq = function
  | [] -> Skip
  | [ s ] -> s
  | s :: ss -> Seq (s, seq ss)

(** Convenience constructors for building programs in OCaml source (tests,
    examples, workload generators).  Kept in a submodule so that opening it
    is an explicit choice: it shadows arithmetic operators. *)
module Dsl = struct
  let ( := ) x e = Assign (Lvar x, e)
  let v x = Var x
  let i n = Int n
  let ( + ) a b = Binop (Add, a, b)
  let ( - ) a b = Binop (Sub, a, b)
  let ( * ) a b = Binop (Mul, a, b)
  let ( < ) a b = Binop (Lt, a, b)
  let ( <= ) a b = Binop (Le, a, b)
  let ( = ) a b = Binop (Eq, a, b)
  let ( <> ) a b = Binop (Ne, a, b)
  let ( && ) a b = Binop (And, a, b)
  let ( || ) a b = Binop (Or, a, b)
  let idx x e = Index (x, e)
  let set_idx x e1 e2 = Assign (Lindex (x, e1), e2)
end

(** [vars_expr e] is the set of variable names referenced by [e], including
    array names in {!Index} nodes. *)
let rec vars_expr (e : expr) (acc : string list) : string list =
  match e with
  | Int _ | Bool _ -> acc
  | Var x -> x :: acc
  | Index (x, e1) -> vars_expr e1 (x :: acc)
  | Binop (_, e1, e2) -> vars_expr e1 (vars_expr e2 acc)
  | Unop (_, e1) -> vars_expr e1 acc

(** [vars_lvalue lv] is the list of variables referenced by an assignment
    target: the assigned variable itself plus any index variables. *)
let vars_lvalue (lv : lvalue) (acc : string list) : string list =
  match lv with
  | Lvar x -> x :: acc
  | Lindex (x, e) -> vars_expr e (x :: acc)

(** Sorted, deduplicated variable list of an expression. *)
let expr_vars e = List.sort_uniq compare (vars_expr e [])

(** All variables of a statement (reads and writes). *)
let rec stmt_vars_acc s acc =
  match s with
  | Skip | Label _ | Goto _ -> acc
  | Assign (lv, e) -> vars_lvalue lv (vars_expr e acc)
  | Seq (a, b) -> stmt_vars_acc a (stmt_vars_acc b acc)
  | If (e, a, b) -> vars_expr e (stmt_vars_acc a (stmt_vars_acc b acc))
  | While (e, a) -> vars_expr e (stmt_vars_acc a acc)
  | Cond_goto (e, _) -> vars_expr e acc
  | Call (_, args) -> args @ acc
  | Case (e, arms, default) ->
      vars_expr e
        (List.fold_left
           (fun acc (_, s') -> stmt_vars_acc s' acc)
           (stmt_vars_acc default acc)
           arms)

(** Sorted, deduplicated variable list of a whole program, including array
    names and variables mentioned only in declarations. *)
let program_vars (p : program) : var list =
  let decls =
    List.map fst p.arrays
    @ List.concat_map (fun (a, b) -> [ a; b ]) p.equiv
    @ List.concat_map (fun (a, b) -> [ a; b ]) p.may_alias
  in
  (* procedure locals survive inlining under their own names; parameters
     are substituted away by the call's arguments *)
  let proc_locals =
    List.concat_map
      (fun pr ->
        List.filter
          (fun x -> not (List.mem x pr.params))
          (stmt_vars_acc pr.pbody []))
      p.procs
  in
  List.sort_uniq compare (stmt_vars_acc p.body (proc_locals @ decls))

(** [is_array p x] holds iff [x] is declared as an array in [p]. *)
let is_array (p : program) (x : var) : bool = List.mem_assoc x p.arrays

(** [array_size p x] is the declared extent of array [x].
    @raise Not_found if [x] is not an array. *)
let array_size (p : program) (x : var) : int = List.assoc x p.arrays

(** Structural size of an expression (number of AST nodes); used by
    workload generators and statistics. *)
let rec expr_size = function
  | Int _ | Bool _ | Var _ -> 1
  | Index (_, e) -> 1 + expr_size e
  | Binop (_, a, b) -> 1 + expr_size a + expr_size b
  | Unop (_, e) -> 1 + expr_size e

(** Structural size of a statement. *)
let rec stmt_size = function
  | Skip | Label _ | Goto _ -> 1
  | Call (_, args) -> 1 + List.length args
  | Case (e, arms, default) ->
      1 + expr_size e
      + List.fold_left (fun acc (_, s') -> acc + stmt_size s') 0 arms
      + stmt_size default
  | Assign (lv, e) ->
      let lv_sz = match lv with Lvar _ -> 1 | Lindex (_, e') -> expr_size e' in
      1 + lv_sz + expr_size e
  | Seq (a, b) -> stmt_size a + stmt_size b
  | If (e, a, b) -> 1 + expr_size e + stmt_size a + stmt_size b
  | While (e, a) -> 1 + expr_size e + stmt_size a
  | Cond_goto (e, _) -> 1 + expr_size e

(** Structural size of a program: its body and every procedure body. *)
let program_size (p : program) : int =
  List.fold_left (fun n pr -> n + stmt_size pr.pbody) (stmt_size p.body) p.procs

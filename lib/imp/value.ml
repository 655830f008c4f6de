(** Run-time values.

    IMP memory cells always hold integers (the type checker enforces that
    only integer expressions are stored); boolean values exist transiently,
    on dataflow tokens and in predicate evaluation.  Division and modulo are
    total by language definition: a zero divisor yields 0.  This totality is
    what lets the differential tests run arbitrary generated programs
    through every interpreter and compare final stores. *)

type t =
  | Int of int
  | Bool of bool

exception Type_error of string

(** [to_int v] extracts an integer. @raise Type_error on a boolean. *)
let to_int = function
  | Int n -> n
  | Bool _ -> raise (Type_error "expected int, got bool")

(** [to_bool v] extracts a boolean. @raise Type_error on an integer. *)
let to_bool = function
  | Bool b -> b
  | Int _ -> raise (Type_error "expected bool, got int")

let equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Bool x, Bool y -> x = y
  | Int _, Bool _ | Bool _, Int _ -> false

let pp ppf = function
  | Int n -> Fmt.int ppf n
  | Bool b -> Fmt.bool ppf b

let to_string = function
  | Int n -> string_of_int n
  | Bool b -> string_of_bool b

(** [binop op a b] applies a binary operator, with total division.
    @raise Type_error when operand kinds do not match the operator. *)
let binop (op : Ast.binop) (a : t) (b : t) : t =
  let ii f = Int (f (to_int a) (to_int b)) in
  let ib f = Bool (f (to_int a) (to_int b)) in
  let bb f = Bool (f (to_bool a) (to_bool b)) in
  match op with
  | Ast.Add -> ii ( + )
  | Ast.Sub -> ii ( - )
  | Ast.Mul -> ii ( * )
  | Ast.Div -> ii (fun x y -> if y = 0 then 0 else x / y)
  | Ast.Mod -> ii (fun x y -> if y = 0 then 0 else x mod y)
  | Ast.Lt -> ib ( < )
  | Ast.Le -> ib ( <= )
  | Ast.Gt -> ib ( > )
  | Ast.Ge -> ib ( >= )
  | Ast.Eq -> ib ( = )
  | Ast.Ne -> ib ( <> )
  | Ast.And -> bb ( && )
  | Ast.Or -> bb ( || )

(** [unop op a] applies a unary operator.
    @raise Type_error when the operand kind does not match. *)
let unop (op : Ast.unop) (a : t) : t =
  match op with
  | Ast.Neg -> Int (-to_int a)
  | Ast.Not -> Bool (not (to_bool a))

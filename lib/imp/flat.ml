(** Flattened (unstructured) program form.

    The paper's translation starts from a statement-level control-flow
    graph whose only control constructs are binary forks and labelled joins
    (Section 2.1).  [Flat.t] is the textual counterpart: a sequence of
    instructions with explicit labels and branches.  Structured programs
    are lowered here first; programs written with [goto] pass through
    as-is.  The CFG builder consumes this form. *)

type instr =
  | Assign of Ast.lvalue * Ast.expr
  | Goto of Ast.label
  | Branch of Ast.expr * Ast.label * Ast.label
      (** [Branch (p, lt, lf)]: if [p] then goto [lt] else goto [lf] *)
  | Label of Ast.label  (** a join point; no computation *)

type t = {
  arrays : (Ast.var * int) list;
  equiv : (Ast.var * Ast.var) list;
  may_alias : (Ast.var * Ast.var) list;
  code : instr array;
}

exception Invalid of string

exception Recursive_call of string
(** Procedures are expanded by inlining; recursion cannot be expanded. *)

let pp_instr ppf = function
  | Assign (lv, e) -> Fmt.pf ppf "%a := %a" Pretty.pp_lvalue lv Pretty.pp_expr e
  | Goto l -> Fmt.pf ppf "goto %s" l
  | Branch (p, lt, lf) ->
      Fmt.pf ppf "if %a then goto %s else goto %s" Pretty.pp_expr p lt lf
  | Label l -> Fmt.pf ppf "%s:" l

let pp ppf (t : t) =
  Fmt.pf ppf "@[<v>%a@]" (Fmt.array ~sep:Fmt.cut pp_instr) t.code

(* Fresh label supply.  User labels may not contain '$', which the lexer
   guarantees, so generated labels never collide. *)
let fresh_label =
  let counter = ref 0 in
  fun hint ->
    incr counter;
    Fmt.str "$%s%d" hint !counter

(* Variable substitution for by-reference parameter binding. *)
let rec subst_expr (sub : Ast.var -> Ast.var) (e : Ast.expr) : Ast.expr =
  match e with
  | Ast.Int _ | Ast.Bool _ -> e
  | Ast.Var x -> Ast.Var (sub x)
  | Ast.Index (x, e1) -> Ast.Index (sub x, subst_expr sub e1)
  | Ast.Binop (op, a, b) -> Ast.Binop (op, subst_expr sub a, subst_expr sub b)
  | Ast.Unop (op, a) -> Ast.Unop (op, subst_expr sub a)

let subst_lvalue sub = function
  | Ast.Lvar x -> Ast.Lvar (sub x)
  | Ast.Lindex (x, e) -> Ast.Lindex (sub x, subst_expr sub e)

(* Substitute variables and freshen labels (one renaming per inlined
   body, so an inlined procedure's internal control flow cannot collide
   with the caller's or with another expansion's). *)
let rec subst_stmt (sub : Ast.var -> Ast.var) (lbl : Ast.label -> Ast.label)
    (s : Ast.stmt) : Ast.stmt =
  match s with
  | Ast.Skip -> Ast.Skip
  | Ast.Assign (lv, e) -> Ast.Assign (subst_lvalue sub lv, subst_expr sub e)
  | Ast.Seq (a, b) -> Ast.Seq (subst_stmt sub lbl a, subst_stmt sub lbl b)
  | Ast.If (e, a, b) ->
      Ast.If (subst_expr sub e, subst_stmt sub lbl a, subst_stmt sub lbl b)
  | Ast.While (e, a) -> Ast.While (subst_expr sub e, subst_stmt sub lbl a)
  | Ast.Label l -> Ast.Label (lbl l)
  | Ast.Goto l -> Ast.Goto (lbl l)
  | Ast.Cond_goto (e, l) -> Ast.Cond_goto (subst_expr sub e, lbl l)
  | Ast.Call (f, args) -> Ast.Call (f, List.map sub args)
  | Ast.Case (e, arms, default) ->
      Ast.Case
        ( subst_expr sub e,
          List.map (fun (k, s') -> (k, subst_stmt sub lbl s')) arms,
          subst_stmt sub lbl default )

(* Multi-way branches (paper, footnote 3) lower to a fresh temporary and
   a chain of binary forks; the temporary name contains '$' so it cannot
   collide with source variables.  Temporaries are numbered locally per
   [flatten] call, so repeated flattening of the same program yields the
   same names (layout and token universes depend on this). *)
let desugar_case (t : Ast.var) (e : Ast.expr) (arms : (int * Ast.stmt) list)
    (default : Ast.stmt) : Ast.stmt =
  let chain =
    List.fold_right
      (fun (k, s') rest ->
        Ast.If (Ast.Binop (Ast.Eq, Ast.Var t, Ast.Int k), s', rest))
      arms default
  in
  Ast.Seq (Ast.Assign (Ast.Lvar t, e), chain)

(** [flatten p] lowers a structured program to flat form.  [If] and
    [While] become branches and labels; [Label]/[Goto]/[Cond_goto] pass
    through.  The result always ends with a fallthrough to the implicit
    program end. *)
let flatten (p : Ast.program) : t =
  let buf = ref [] in
  let emit instr = buf := instr :: !buf in
  let counter = ref 0 in
  let case_counter = ref 0 in
  let rec go (active : string list) (s : Ast.stmt) : unit =
    let go = go active in
    match s with
    | Ast.Call (f, args) ->
        if List.mem f active then raise (Recursive_call f);
        let proc =
          match List.find_opt (fun pr -> pr.Ast.pname = f) p.Ast.procs with
          | Some pr -> pr
          | None -> raise (Invalid ("undefined procedure " ^ f))
        in
        if List.length args <> List.length proc.Ast.params then
          raise (Invalid ("arity mismatch calling " ^ f));
        incr counter;
        let n = !counter in
        let binding = List.combine proc.Ast.params args in
        let sub x =
          match List.assoc_opt x binding with Some a -> a | None -> x
        in
        let lbl l = Fmt.str "%s$%s%d" l f n in
        go_in (f :: active) (subst_stmt sub lbl proc.Ast.pbody)
    | Ast.Skip -> ()
    | Ast.Assign (lv, e) -> emit (Assign (lv, e))
    | Ast.Seq (a, b) ->
        go a;
        go b
    | Ast.If (e, a, b) ->
        let lt = fresh_label "then"
        and lf = fresh_label "else"
        and lj = fresh_label "fi" in
        emit (Branch (e, lt, lf));
        emit (Label lt);
        go a;
        emit (Goto lj);
        emit (Label lf);
        go b;
        emit (Label lj)
    | Ast.While (e, a) ->
        let lh = fresh_label "head"
        and lb = fresh_label "body"
        and lx = fresh_label "done" in
        emit (Label lh);
        emit (Branch (e, lb, lx));
        emit (Label lb);
        go a;
        emit (Goto lh);
        emit (Label lx)
    | Ast.Label l -> emit (Label l)
    | Ast.Goto l -> emit (Goto l)
    | Ast.Cond_goto (e, l) ->
        let lnext = fresh_label "next" in
        emit (Branch (e, l, lnext));
        emit (Label lnext)
    | Ast.Case (e, arms, default) ->
        incr case_counter;
        go (desugar_case (Fmt.str "case$%d" !case_counter) e arms default)
  and go_in active s = go active s in
  go [] p.Ast.body;
  (* filled in place from a static placeholder: [Array.of_list] of more
     than 256 elements whose first one is freshly allocated forces a
     minor collection *)
  let n = List.length !buf in
  let code = Array.make n (Label "") in
  List.iteri (fun k i -> code.(n - 1 - k) <- i) !buf;
  {
    arrays = p.Ast.arrays;
    equiv = p.Ast.equiv;
    may_alias = p.Ast.may_alias;
    code;
  }

(** [label_table t] maps each label to its instruction index.
    @raise Invalid on duplicate labels. *)
let label_table (t : t) : (Ast.label, int) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i instr ->
      match instr with
      | Label l ->
          if Hashtbl.mem tbl l then raise (Invalid ("duplicate label " ^ l));
          Hashtbl.replace tbl l i
      | Assign _ | Goto _ | Branch _ -> ())
    t.code;
  tbl

(** [validate t] checks that every branch target is a defined label.
    @raise Invalid otherwise. *)
let validate (t : t) : unit =
  let tbl = label_table t in
  let check l =
    if not (Hashtbl.mem tbl l) then raise (Invalid ("undefined label " ^ l))
  in
  Array.iter
    (function
      | Goto l -> check l
      | Branch (_, lt, lf) ->
          check lt;
          check lf
      | Assign _ | Label _ -> ())
    t.code

(** All variables mentioned anywhere in the flat program, sorted. *)
let vars (t : t) : Ast.var list =
  let acc = ref [] in
  let add_list l = acc := l @ !acc in
  add_list (List.map fst t.arrays);
  List.iter (fun (a, b) -> add_list [ a; b ]) t.equiv;
  List.iter (fun (a, b) -> add_list [ a; b ]) t.may_alias;
  Array.iter
    (function
      | Assign (lv, e) -> acc := Ast.vars_lvalue lv (Ast.vars_expr e !acc)
      | Branch (p, _, _) -> acc := Ast.vars_expr p !acc
      | Goto _ | Label _ -> ())
    t.code;
  List.sort_uniq compare !acc

(** [to_program t] re-embeds a flat program as a structured-AST program
    whose body is a sequence of flat statements (labels, gotos and
    conditional gotos).  Useful for pretty-printing and layout. *)
let to_program (t : t) : Ast.program =
  let stmt_of = function
    | Assign (lv, e) -> Ast.Assign (lv, e)
    | Goto l -> Ast.Goto l
    | Branch (p, lt, lf) ->
        Ast.Seq (Ast.Cond_goto (p, lt), Ast.Goto lf)
    | Label l -> Ast.Label l
  in
  {
    Ast.arrays = t.arrays;
    Ast.equiv = t.equiv;
    Ast.may_alias = t.may_alias;
    Ast.procs = [];
    Ast.body = Ast.seq (Array.to_list (Array.map stmt_of t.code));
  }

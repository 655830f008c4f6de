(** Iteration contexts (tags).

    In an explicit token store machine every loop iteration gets its own
    activation frame; tokens of different iterations rendezvous in
    different frames.  We model a frame identifier as the stack of loop
    iteration indices enclosing the token, innermost first: the top-level
    context is [[]]; entering a loop pushes [0]; taking the back edge
    increments the top; leaving the loop pops it.  Two tokens match at an
    operator iff their contexts are equal -- the waiting-matching rule. *)

type t = int list

let toplevel : t = []

(** [enter c] opens iteration 0 of a fresh loop activation under [c]. *)
let enter (c : t) : t = 0 :: c

(** [next c] advances to the following iteration.
    @raise Invalid_argument at top level. *)
let next (c : t) : t =
  match c with
  | i :: rest -> (i + 1) :: rest
  | [] -> invalid_arg "Context.next: top-level context"

(** [leave c] restores the enclosing context.
    @raise Invalid_argument at top level. *)
let leave (c : t) : t =
  match c with
  | _ :: rest -> rest
  | [] -> invalid_arg "Context.leave: top-level context"

let depth (c : t) : int = List.length c
let equal (a : t) (b : t) : bool = a = b
let compare (a : t) (b : t) : int = compare a b

let pp ppf (c : t) =
  Fmt.pf ppf "<%a>" (Fmt.list ~sep:(Fmt.any ".") Fmt.int) (List.rev c)

let to_string c = Fmt.str "%a" pp c

type table = {
  ids : (t, int) Hashtbl.t;
  mutable ctxs : t array;  (** id -> context *)
  mutable count : int;
}

let table () = { ids = Hashtbl.create 64; ctxs = Array.make 64 toplevel; count = 0 }

let id (tbl : table) (c : t) : int =
  match Hashtbl.find_opt tbl.ids c with
  | Some i -> i
  | None ->
      let i = tbl.count in
      if i = Array.length tbl.ctxs then begin
        let a = Array.make (2 * i) toplevel in
        Array.blit tbl.ctxs 0 a 0 i;
        tbl.ctxs <- a
      end;
      tbl.ctxs.(i) <- c;
      tbl.count <- i + 1;
      Hashtbl.add tbl.ids c i;
      i

let of_id (tbl : table) i = tbl.ctxs.(i)
let move (tbl : table) f i = id tbl (f tbl.ctxs.(i))
let count (tbl : table) = tbl.count

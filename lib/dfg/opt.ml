(** Optimization passes over dataflow graphs.

    The paper's closing claim is that dataflow graphs can serve as the
    intermediate representation of an optimizing compiler.  This module
    backs the claim with three classical optimizations performed
    {e directly on the graph}:

    - {b constant folding}: an ALU operator whose operands are constants
      becomes a constant (triggered by one of the folded constants'
      triggers, preserving once-per-activation firing);
    - {b common subexpression elimination}: pure operators of identical
      kind fed from identical source ports compute identical values in
      every context and are merged;
    - {b dead node elimination}: pure operators whose outputs feed
      nothing are removed (their input tokens were fan-out copies).

    All three are semantics-preserving on translated graphs (differential
    tests).  Their scope is per-activation value computation: the
    translator already reads each variable once per statement, so wins
    come from repeated subexpressions and constant arithmetic within
    statements.  Memory operations, switches, merges, synchs and loop
    gateways are structural and never moved. *)

(* A graph under edit: nodes alive or dead, fold decisions, and arcs
   re-sourced through a substitution.  CSE is the only substitution and
   it merges whole pure operators, whose one output is port 0, so the
   substitution is node-indexed: [replace.(n) = m] sends (n, 0) to
   (m, 0), and [-1] leaves [n] alone.  A folded operator is re-labelled
   as a Const in a fresh rebuild, so folds are recorded in [folded] and
   applied during reconstruction. *)
type edit = {
  g : Graph.t;
  alive : bool array;
  replace : int array;
  folded : Imp.Value.t option array;
}

(* The node whose output now stands for port [p]; the index is kept,
   since only port 0 is ever substituted. *)
let resolve (e : edit) (p : Graph.port) : int =
  let rec go n = if e.replace.(n) < 0 then n else go e.replace.(n) in
  go p.Graph.node

(* The constant on input port [i] of [n]: its single arc comes from
   output 0 of a live constant, possibly one folded earlier. *)
let const_input (e : edit) (n : int) (i : int) : Imp.Value.t option =
  match Graph.incoming e.g n i with
  | [ a ] when a.Graph.src.Graph.index = 0 -> (
      let m = resolve e a.Graph.src in
      if not e.alive.(m) then None
      else
        match e.folded.(m) with
        | Some _ as v -> v (* cascaded folds *)
        | None -> (
            match Graph.kind e.g m with Node.Const v -> Some v | _ -> None))
  | _ -> None

(* One constant-folding sweep; returns true if anything changed. *)
let fold_decisions (e : edit) : bool =
  let changed = ref false in
  let fold n v =
    e.folded.(n) <- Some v;
    changed := true
  in
  for n = 0 to Graph.num_nodes e.g - 1 do
    if e.alive.(n) && Option.is_none e.folded.(n) then
      match Graph.kind e.g n with
      | Node.Binop op -> (
          match (const_input e n 0, const_input e n 1) with
          | Some v0, Some v1 -> (
              match Imp.Value.binop op v0 v1 with
              | v -> fold n v
              | exception Imp.Value.Type_error _ -> ())
          | _ -> ())
      | Node.Unop op -> (
          match const_input e n 0 with
          | Some v0 -> (
              match Imp.Value.unop op v0 with
              | v -> fold n v
              | exception Imp.Value.Type_error _ -> ())
          | None -> ())
      | _ -> ()
  done;
  !changed

(* CSE: two pure operators with the same structural key (kind, resolved
   input ports) compute the same value in every context; the later one's
   output is substituted by the earlier one's.  [kind] is the folded
   constant once folded.  A pure operator has at most two inputs, each
   keyed by its resolved source (node, index): (-1, -1) when the port has
   other than one arc, (-2, -2) when absent. *)
let cse_pass (e : edit) : bool =
  let changed = ref false in
  let seen : (Node.kind * int * int * int * int, int) Hashtbl.t =
    Hashtbl.create 64
  in
  let source n i =
    match Graph.incoming e.g n i with
    | [ a ] -> (resolve e a.Graph.src, a.Graph.src.Graph.index)
    | _ -> (-1, -1)
  in
  for n = 0 to Graph.num_nodes e.g - 1 do
    if e.alive.(n) then
      let own = Graph.kind e.g n in
      let kind = match e.folded.(n) with Some v -> Node.Const v | None -> own in
      match kind with
      | Node.Binop _ | Node.Unop _ | Node.Const _ | Node.Id -> (
          let n0, i0 = source n 0 in
          let n1, i1 = if Node.in_arity own > 1 then source n 1 else (-2, -2) in
          let key = (kind, n0, i0, n1, i1) in
          match Hashtbl.find_opt seen key with
          | Some m ->
              e.replace.(n) <- m;
              e.alive.(n) <- false;
              changed := true
          | None -> Hashtbl.replace seen key n)
      | _ -> ()
  done;
  !changed

(* Dead pure nodes: no live arc resolves to any of their output ports.
   Operand arcs into folded nodes do not count as consumption (only the
   chosen trigger survives the rebuild); the trigger source is always a
   statement entry fan-out that also feeds other consumers, or a live
   constant handled by the cascade. *)
let dead_pass (e : edit) : bool =
  let changed = ref false in
  let used = Array.make (Graph.num_nodes e.g) false in
  Array.iter
    (fun a ->
      (* operand arcs into folded nodes do not consume: the rebuild
         derives the trigger by walking through dead operand chains *)
      let dst = a.Graph.dst.Graph.node in
      if e.alive.(dst) && Option.is_none e.folded.(dst) then
        used.(resolve e a.Graph.src) <- true)
    e.g.Graph.arcs;
  for n = 0 to Graph.num_nodes e.g - 1 do
    if e.alive.(n) then
      match Graph.kind e.g n with
      | Node.Const _ | Node.Binop _ | Node.Unop _ | Node.Id ->
          if not used.(n) then begin
            e.alive.(n) <- false;
            changed := true
          end
      | _ -> ()
  done;
  !changed

(** [run g] applies folding, CSE and dead-node elimination to a fixpoint
    and rebuilds the graph. *)
let run (g : Graph.t) : Graph.t =
  let n = Graph.num_nodes g in
  let e =
    {
      g;
      alive = Array.make n true;
      replace = Array.make n (-1);
      folded = Array.make n None;
    }
  in
  let continue_ = ref true in
  while !continue_ do
    let c1 = fold_decisions e in
    let c2 = cse_pass e in
    let c3 = dead_pass e in
    continue_ := c1 || c2 || c3
  done;
  if Array.for_all Fun.id e.alive && Array.for_all Option.is_none e.folded then g
  else begin
    (* rebuild *)
    let remap = Array.make n (-1) in
    let next = ref 0 in
    for i = 0 to n - 1 do
      if e.alive.(i) then begin
        remap.(i) <- !next;
        incr next
      end
    done;
    let b = Graph.Builder.create () in
    for i = 0 to n - 1 do
      if e.alive.(i) then begin
        let node = Graph.node g i in
        let kind, label =
          match e.folded.(i) with
          | Some v -> (Node.Const v, "folded " ^ Imp.Value.to_string v)
          | None -> (node.Node.kind, node.Node.label)
        in
        ignore (Graph.Builder.add b ~label kind)
      end
    done;
    (* the folded constant needs exactly one trigger; derive it from the
       trigger of a constant operand (itself possibly dead), else from
       the first incoming arc: walk back through dead const operands to
       a live source *)
    let rec trigger_of n i =
      if e.alive.(n) then Some (n, i)
      else
        match Graph.incoming g n 0 with
        | [ a' ] -> trigger_of (resolve e a'.Graph.src) a'.Graph.src.Graph.index
        | _ -> None
    in
    (* arcs: keep arcs into live nodes; re-source through substitutions;
       drop VALUE inputs of folded nodes (a folded constant keeps only
       its trigger = its first input's source as trigger).  A folded
       node's in-arity changes from 2/1 to 1 (the trigger). *)
    let trigger_done = Array.make n false in
    Array.iter
      (fun a ->
        let dst = a.Graph.dst.Graph.node in
        if e.alive.(dst) then begin
          let src = resolve e a.Graph.src and index = a.Graph.src.Graph.index in
          if e.alive.(src) then
            match e.folded.(dst) with
            | Some _ ->
                if not trigger_done.(dst) then begin
                  trigger_done.(dst) <- true;
                  match trigger_of src index with
                  | Some (t, ti) ->
                      Graph.Builder.connect b ~dummy:a.Graph.dummy
                        (remap.(t), ti) (remap.(dst), 0)
                  | None -> ()
                end
            | None ->
                Graph.Builder.connect b ~dummy:a.Graph.dummy
                  ~tokens:a.Graph.tokens (remap.(src), index)
                  (remap.(dst), a.Graph.dst.Graph.index)
          else begin
            (* source folded away entirely: can only be the operand of a
               folded node (already handled) or a dead chain *)
            match e.folded.(dst) with
            | Some _ when not trigger_done.(dst) -> (
                trigger_done.(dst) <- true;
                match trigger_of src index with
                | Some (t, ti) ->
                    Graph.Builder.connect b ~dummy:true (remap.(t), ti)
                      (remap.(dst), 0)
                | None -> ())
            | _ -> ()
          end
        end)
      g.Graph.arcs;
    let out = Graph.Builder.finish b in
    (* permission labels live on structural arcs, which this pass never
       rewrites; the certificate only needs its node ids renumbered *)
    {
      out with
      Graph.cert =
        Option.map
          (fun c -> Graph.remap_cert c remap (Graph.num_nodes out))
          g.Graph.cert;
    }
  end

(** Dataflow graphs: nodes, arcs, and an imperative builder.

    An arc connects an output port to an input port.  Several arcs may
    leave the same output port (fan-out duplicates the token); several
    arcs may enter the same input port only on [Merge] nodes.  Dotted
    access-token arcs vs. value arcs (the paper's drawing convention) are
    distinguished by the [dummy] flag, which is purely informational --
    the machine treats all tokens alike. *)

type port = { node : int; index : int }

type arc = {
  src : port;
  dst : port;
  dummy : bool;  (** carries a dummy (access) token; drawn dotted *)
  tokens : int list;
      (** token-universe elements whose permission flows along this arc;
          [[]] on value, predicate and trigger arcs *)
}

(** Certificate metadata for dynamic translation validation: the token
    universe's element names plus, per node, the elements a memory
    operation must hold permission for.  Computed by the translation
    driver from the {e true} alias/cover analysis, independent of the
    (possibly deliberately broken) token wiring of the graph itself. *)
type cert = {
  cert_elements : string array;  (** cover-element (token) names *)
  cert_require : int list array;
      (** per node: element indices a load/store on that node must hold;
          [[]] for non-memory nodes *)
}

type t = {
  nodes : Node.t array;
  arcs : arc array;
  outs : arc list array array;  (** [outs.(n).(p)] = arcs leaving port p of n *)
  ins : arc list array array;  (** [ins.(n).(p)] = arcs entering port p of n *)
  start : int;
  stop : int;
  cert : cert option;
      (** certificate metadata, attached after {!Builder.finish} by the
          driver; [None] = this run cannot be certified *)
}

let num_nodes (g : t) = Array.length g.nodes
let num_arcs (g : t) = Array.length g.arcs
let node (g : t) (i : int) : Node.t = g.nodes.(i)
let kind (g : t) (i : int) : Node.kind = g.nodes.(i).Node.kind

(** [outgoing g n p] is the arcs leaving output port [p] of node [n]. *)
let outgoing (g : t) (n : int) (p : int) : arc list = g.outs.(n).(p)

(** [incoming g n p] is the arcs entering input port [p] of node [n]. *)
let incoming (g : t) (n : int) (p : int) : arc list = g.ins.(n).(p)

(** Imperative builder. *)
module Builder = struct
  type graph = t

  type t = {
    mutable rev_nodes : Node.t list;
    mutable count : int;
    mutable rev_arcs : arc list;
  }

  let create () : t = { rev_nodes = []; count = 0; rev_arcs = [] }

  (** [add b kind] creates a node and returns its id. *)
  let add (b : t) ?(label = "") (kind : Node.kind) : int =
    let id = b.count in
    b.count <- id + 1;
    let label = if label = "" then Node.kind_to_string kind else label in
    b.rev_nodes <- { Node.id; kind; label } :: b.rev_nodes;
    id

  (** [connect b ~dummy ~tokens (n1, p1) (n2, p2)] adds an arc from
      output port [p1] of [n1] to input port [p2] of [n2].  [tokens]
      labels the arc with the token-universe elements whose permission
      it carries (empty for value/predicate/trigger arcs). *)
  let connect (b : t) ?(dummy = false) ?(tokens = []) ((n1, p1) : int * int)
      ((n2, p2) : int * int) : unit =
    b.rev_arcs <-
      {
        src = { node = n1; index = p1 };
        dst = { node = n2; index = p2 };
        dummy;
        tokens;
      }
      :: b.rev_arcs

  exception Ill_formed of string

  (* The array of a reversed list.  Graph arrays are made from a static
     placeholder and filled in place: [Array.of_list] or [Array.init] of
     more than 256 elements whose first one is freshly allocated forces a
     minor collection, four of them per graph built. *)
  let array_of_rev placeholder (rev : 'a list) : 'a array =
    let n = List.length rev in
    let a = Array.make n placeholder in
    List.iteri (fun k x -> a.(n - 1 - k) <- x) rev;
    a

  let no_node = { Node.id = -1; kind = Node.Id; label = "" }
  let no_port = { node = -1; index = -1 }
  let no_arc = { src = no_port; dst = no_port; dummy = false; tokens = [] }

  (* Per node, one empty arc list per port (at least one); literals for
     the common arities allocate inline. *)
  let port_lists nodes arity =
    let a = Array.make (Array.length nodes) [||] in
    Array.iteri
      (fun i n ->
        a.(i) <-
          (match arity n.Node.kind with
          | 0 | 1 -> [| [] |]
          | 2 -> [| []; [] |]
          | k -> Array.make k []))
      nodes;
    a

  (** [finish b] freezes the builder into a graph, checking arities and
      wiring.
      @raise Ill_formed if a port is out of range, a non-merge input port
      has other than exactly one arc, or start/end are not unique. *)
  let finish (b : t) : graph =
    let nodes = array_of_rev no_node b.rev_nodes in
    Array.iteri
      (fun i n -> if n.Node.id <> i then raise (Ill_formed "node id mismatch"))
      nodes;
    let nn = Array.length nodes in
    let arcs = array_of_rev no_arc b.rev_arcs in
    let outs = port_lists nodes Node.out_arity in
    let ins = port_lists nodes Node.in_arity in
    let check_port what { node = n; index = p } arity_of =
      if n < 0 || n >= nn then
        raise (Ill_formed (Fmt.str "%s node %d out of range" what n));
      let ar = arity_of nodes.(n).Node.kind in
      if p < 0 || p >= ar then
        raise
          (Ill_formed
             (Fmt.str "%s port %d of node %d (%s, arity %d) out of range"
                what p n nodes.(n).Node.label ar))
    in
    Array.iter
      (fun a ->
        check_port "source" a.src Node.out_arity;
        check_port "destination" a.dst Node.in_arity;
        outs.(a.src.node).(a.src.index) <- a :: outs.(a.src.node).(a.src.index);
        ins.(a.dst.node).(a.dst.index) <- a :: ins.(a.dst.node).(a.dst.index))
      arcs;
    (* every non-merge input port: exactly one arc; merge: at least one *)
    Array.iteri
      (fun i n ->
        let arity = Node.in_arity n.Node.kind in
        for p = 0 to arity - 1 do
          let k = List.length ins.(i).(p) in
          match n.Node.kind with
          | Node.Merge ->
              if k < 1 then
                raise
                  (Ill_formed (Fmt.str "merge %d has no incoming arcs" i))
          | _ ->
              if k <> 1 then
                raise
                  (Ill_formed
                     (Fmt.str "input port %d of node %d (%s) has %d arcs" p i
                        n.Node.label k))
        done)
      nodes;
    (* Start and End in one pass: (count, last id) of each *)
    let starts = ref 0 and start = ref (-1) and ends = ref 0 and stop = ref (-1) in
    Array.iteri
      (fun i n ->
        match n.Node.kind with
        | Node.Start _ ->
            incr starts;
            start := i
        | Node.End _ ->
            incr ends;
            stop := i
        | _ -> ())
      nodes;
    let unique count what =
      if count <> 1 then raise (Ill_formed (Fmt.str "%d %s nodes" count what))
    in
    unique !starts "start";
    unique !ends "end";
    { nodes; arcs; outs; ins; start = !start; stop = !stop; cert = None }
end

(** [remap_cert c remap n] — the certificate after a rebuild pass that
    renumbered nodes: [remap.(old)] is the new id or [-1] if dropped
    (rebuild passes only drop pure value nodes, whose requirement is
    empty), [n] the new node count. *)
let remap_cert (c : cert) (remap : int array) (n : int) : cert =
  let require = Array.make n [] in
  Array.iteri
    (fun old nw -> if nw >= 0 then require.(nw) <- c.cert_require.(old))
    remap;
  { c with cert_require = require }

(** [iter_nodes g f] applies [f] to every node. *)
let iter_nodes (g : t) (f : Node.t -> unit) : unit = Array.iter f g.nodes

(** [count g p] counts nodes whose kind satisfies [p]. *)
let count (g : t) (p : Node.kind -> bool) : int =
  Array.fold_left
    (fun acc n -> if p n.Node.kind then acc + 1 else acc)
    0 g.nodes

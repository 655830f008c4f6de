(** Dataflow graphs: nodes, arcs, and an imperative builder.

    An arc connects an output port to an input port.  Several arcs may
    leave one output port (fan-out duplicates the token); several arcs
    may enter one input port only on [Merge] nodes.  The [dummy] flag
    marks access-token arcs (the paper's dotted lines); it is
    informational — the machine treats all tokens alike. *)

type port = { node : int; index : int }

type arc = {
  src : port;
  dst : port;
  dummy : bool;  (** carries a dummy (access) token; drawn dashed *)
  tokens : int list;
      (** token-universe elements whose permission flows along this arc;
          [[]] on value, predicate and trigger arcs *)
}

(** Certificate metadata for dynamic translation validation (see
    {!Machine.Permission}): element names of the token universe plus the
    per-node access sets a memory operation must hold full (store) or
    partial (load) permission for.  Computed by the driver from the true
    alias/cover analysis — deliberately independent of the token wiring
    of the graph, so a mistranslated graph cannot vouch for itself. *)
type cert = {
  cert_elements : string array;  (** cover-element (token) names *)
  cert_require : int list array;
      (** per node: required element indices; [[]] for non-memory nodes *)
}

type t = {
  nodes : Node.t array;
  arcs : arc array;
  outs : arc list array array;  (** [outs.(n).(p)] — arcs leaving port p *)
  ins : arc list array array;  (** [ins.(n).(p)] — arcs entering port p *)
  start : int;
  stop : int;
  cert : cert option;
      (** attached after {!Builder.finish} by the driver; [None] = the
          run cannot be certified *)
}

val num_nodes : t -> int
val num_arcs : t -> int
val node : t -> int -> Node.t
val kind : t -> int -> Node.kind
val outgoing : t -> int -> int -> arc list
val incoming : t -> int -> int -> arc list

(** Imperative builder; freeze with {!Builder.finish}. *)
module Builder : sig
  type graph = t
  type t

  val create : unit -> t

  (** [add b kind] creates a node and returns its id.  [label] defaults
      to the kind's rendering. *)
  val add : t -> ?label:string -> Node.kind -> int

  (** [connect b ~dummy ~tokens (n1, p1) (n2, p2)] — an arc from output
      port [p1] of [n1] to input port [p2] of [n2]; [tokens] labels the
      arc with the elements whose permission it carries. *)
  val connect : t -> ?dummy:bool -> ?tokens:int list -> int * int -> int * int -> unit

  exception Ill_formed of string

  (** Freeze into a graph, checking port ranges, the one-arc-per-input
      discipline (merges excepted) and start/end uniqueness.
      @raise Ill_formed on a violation. *)
  val finish : t -> graph
end

val iter_nodes : t -> (Node.t -> unit) -> unit

(** [remap_cert c remap n] — the certificate after a rebuild pass:
    [remap.(old)] is the new node id ([-1] if dropped), [n] the new node
    count. *)
val remap_cert : cert -> int array -> int -> cert

(** [count g p] — nodes whose kind satisfies [p]. *)
val count : t -> (Node.kind -> bool) -> int

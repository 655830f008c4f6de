(** The dataflow firing rule: what one operator execution does, shared
    by the reference machine ({!Multiproc}'s run loop, which {!Interp}
    reports at one PE) and the packed engine ({!Packed}).

    The rule is parametrised over a ['meta] provenance type carried on
    every emitted token: both engines thread the producer's {!Trace}
    log index through it ([-1] when the run keeps no log).  Timing,
    scheduling, fan-out and token
    transport stay with the caller — [execute] only decides {e which}
    output ports emit {e which} values (and in which context), and
    performs the split-phase memory side effects. *)

(** The value carried by dummy (access) tokens. *)
val dummy_value : Imp.Value.t

(** The operator family of a node kind ("alu", "load", "switch", ...):
    the trace-event category and the key of
    {!Interp.result.firings_by_kind}. *)
val family : Dfg.Node.kind -> string

(** [by_kind iter] — executions per family, sorted by descending count.
    [iter add] calls [add family count] in first-firing order (a family
    may repeat).  Equal counts keep the order that a hash table of the
    families, filled in first-firing order, folds to: both engines
    report the one order. *)
val by_kind : ((string -> int -> unit) -> unit) -> (string * int) list

(** Shared split-phase memory state: the store, I-structure presence
    bits, and deferred I-structure readers keyed by address.  Each
    deferred reader is (load node, context, meta). *)
type 'meta env = {
  graph : Dfg.Graph.t;
  layout : Imp.Layout.t;
  memory : Imp.Memory.t;
  present : bool array;
  deferred : (int, (int * Context.t * 'meta) list) Hashtbl.t;
}

val make_env : graph:Dfg.Graph.t -> layout:Imp.Layout.t -> Imp.Memory.t -> 'meta env

(** Deferred readers still parked, total and per address (sorted). *)
val deferred_count : 'meta env -> int
val deferred_reads : 'meta env -> (int * int) list

(** [address env kind ~value inputs] — the memory address a
    [Load]/[Store] firing with these inputs touches (used by the
    multiprocessor to route the access to its owning memory module);
    [value] reads an input's value.
    @raise Assert_failure on non-memory kinds. *)
val address :
  'meta env -> Dfg.Node.kind -> value:('tok -> Imp.Value.t) -> 'tok array -> int

(** [execute env ~emit ~meta ~meta_max ~on_complete ~double_write ~node
    ~ctx ~value ~inputs] performs one firing of [node] in context [ctx]
    on the consumed [inputs] (as produced by {!Matching.deliver} — for
    [Loop_entry] the group is encoded in the array length), reading each
    input's value through [value]: the reference machine passes the
    tokens themselves, the packed engine plain values.

    Every output token goes through [emit]; ordinary emissions carry
    [meta], and a deferred I-structure read completed by a store carries
    [meta_max reader_meta meta] (the completed split-phase read depends
    on both the parked load and the store that satisfied it).  A
    firing's own emissions carry [ctx] itself, physically, except at
    loop gateways, which mint the next context.
    [on_complete] runs when the [End] operator fires.  [double_write]
    receives the message of a second write to an I-structure cell and
    {e must raise}.  [execute] allocates no closure: a caller that
    builds its callbacks once per run pays nothing per firing for
    them. *)
val execute :
  'meta env ->
  emit:
    (node:int -> port:int -> ctx:Context.t -> meta:'meta -> Imp.Value.t -> unit) ->
  meta:'meta ->
  meta_max:('meta -> 'meta -> 'meta) ->
  on_complete:(unit -> unit) ->
  double_write:(string -> unit) ->
  node:int ->
  ctx:Context.t ->
  value:('tok -> Imp.Value.t) ->
  inputs:'tok array ->
  unit

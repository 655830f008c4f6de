(** The single-PE machine's rules, stated once for the reference machine
    ({!Multiproc}'s run loop, which {!Interp} reports at one PE) and the
    packed engine ({!Packed}): the firing rule, the issue rule, the
    permission split of a firing's deliveries, and the operator
    families of the kind breakdown.

    A token's tag is its context id in the run's {!Context.table}
    ([env.ids]): [execute] takes the firing's id and writes each
    emission's id.  Timing, scheduling, fan-out and token transport stay
    with the caller — [execute] only decides {e which} output ports
    emit {e which} values in {e which} context, and performs the
    split-phase memory side effects.  Every emission also carries a
    producer: the firing's {!Trace} log index ([-1] when the run keeps
    no log). *)

(** The value carried by dummy (access) tokens. *)
val dummy_value : Imp.Value.t

(** The operator family of a node kind ("alu", "load", "switch", ...):
    the trace-event category and the key of
    {!Interp.result.firings_by_kind}. *)
val family : Dfg.Node.kind -> string

(** [by_kind g ~fired ~order n] — executions per family, sorted by
    descending count, from the per-node firing counts [fired] and the
    first [n] entries of [order], the nodes that fired in first-firing
    order.  Equal counts keep the order that a hash table of the
    families, filled in first-firing order, folds to: both engines
    report the one order. *)
val by_kind :
  Dfg.Graph.t -> fired:int array -> order:int array -> int -> (string * int) list

(** [issue config ready ~is_mem ~stalled ~fire] — one cycle of the
    single-PE issue rule: up to [config.pes] ready firings start (all
    when [None]), oldest first, each through [fire].  A memory operation
    past [config.memory_ports], or one that [stalled] refuses, is not
    started: it goes back on the queue, behind the firings this cycle
    did not reach, for the next cycle.  [stalled] is asked of every
    memory operation popped, in queue order. *)
val issue :
  Config.t ->
  'f Queue.t ->
  is_mem:('f -> bool) ->
  stalled:('f -> bool) ->
  fire:('f -> unit) ->
  unit

(** One firing's emissions, in emission order, in columns that every
    firing of a run reuses: the node and port emitting, the context id
    and producer the tokens carry, and the value. *)
type emissions = {
  mutable e_node : int array;
  mutable e_port : int array;
  mutable e_cid : int array;
  mutable e_src : int array;
  mutable e_val : Imp.Value.t array;
  mutable e_len : int;  (** rows written *)
}

(** A run's shared state: the store, I-structure presence bits,
    deferred I-structure readers keyed by address, each as (load node,
    context id, producer), the run's context ids, the emission buffer
    and a reusable label array for {!split}. *)
type env = {
  graph : Dfg.Graph.t;
  layout : Imp.Layout.t;
  memory : Imp.Memory.t;
  present : bool array;
  deferred : (int, (int * int * int) list) Hashtbl.t;
  ids : Context.table;
  log : Trace.t option;
  out : emissions;
  mutable labels : int list array;
}

(** [make_env ?log ~graph ~layout memory] — with [log], a completed
    deferred read's producer is the deeper ({!Trace.deeper}) of the
    parked load and the store that satisfied it. *)
val make_env :
  ?log:Trace.t -> graph:Dfg.Graph.t -> layout:Imp.Layout.t -> Imp.Memory.t -> env

(** Deferred readers still parked, total and per address (sorted). *)
val deferred_count : env -> int
val deferred_reads : env -> (int * int) list

(** [address env kind ~value inputs] — the memory address a
    [Load]/[Store] firing with these inputs touches (used by the
    multiprocessor to route the access to its owning memory module);
    [value] reads an input's value.
    @raise Assert_failure on non-memory kinds. *)
val address : env -> Dfg.Node.kind -> value:('tok -> Imp.Value.t) -> 'tok array -> int

(** [execute env ~meta ~on_complete ~double_write ~node ~cid ~value
    ~inputs] performs one firing of [node] in context id [cid] on the
    consumed [inputs] (as produced by {!Matching.deliver} — for
    [Loop_entry] the group is encoded in the array length), reading each
    input's value through [value]: the reference machine passes the
    tokens themselves, the packed engine plain values.

    It appends every output token to [env.out]: a firing's own
    emissions carry [cid] and [meta], except at loop gateways, whose
    tokens carry the id {!Context.move} gives; a deferred I-structure
    read completed by a store carries its parked load's id.  The caller
    reads the rows back, then {!clear}s them.  [on_complete] runs when
    the [End] operator fires.  [double_write] receives the message of a
    second write to an I-structure cell and {e must raise}.  [execute]
    allocates no closure: a caller that builds its callbacks once per
    run pays nothing per firing for them. *)
val execute :
  env ->
  meta:int ->
  on_complete:(unit -> unit) ->
  double_write:(string -> unit) ->
  node:int ->
  cid:int ->
  value:('tok -> Imp.Value.t) ->
  inputs:'tok array ->
  unit

(** [split env perm ~node ~held] — [held], the firing's joined
    permission, split over the deliveries of the buffered emissions, in
    emission-then-arc order: only [node]'s own arcs carry it (a deferred
    wakeup emits from the reader's node and carries none). *)
val split :
  env -> Permission.t -> node:int -> held:Permission.bag -> Permission.bag array

(** [clear env] empties the emission buffer.  A slot left holding a
    sent value would make the next minor collection promote it. *)
val clear : env -> unit

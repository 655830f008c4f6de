(** Machine configuration: processing-element count, operation latencies
    and the execution core.

    The simulator is cycle-driven: a firing starts in some cycle and its
    output tokens are delivered [latency] cycles later.  With
    [pes = None] every enabled operation starts immediately (idealised
    dataflow: the finish time is the graph's critical path under the
    latency model); with [pes = Some p] at most [p] operations start per
    cycle.  Memory operations are split-phase: they occupy a PE only in
    their issue cycle and complete [memory] cycles later without blocking
    the pipeline. *)

type latencies = {
  alu : int;  (** arithmetic, comparisons, constants, identity, sink *)
  memory : int;  (** split-phase load/store round trip *)
  routing : int;  (** switch, merge, synch, loop control, start/end *)
}

val default_latencies : latencies

(** Unit latencies: every operation takes one cycle; the unbounded-PE
    cycle count is then exactly the graph's critical path length in
    operators, the paper's abstract parallelism measure. *)
val unit_latencies : latencies

(** Which execution core runs the single-PE machine.  [Reference] is
    {!Multiproc}'s run loop on its single-PE transport — the oracle's
    ground machine.  [Packed] is the compiled engine ({!Packed}): flat
    instruction arrays, preallocated per-context frames with presence
    bits, and an event-driven ready wheel.  The choice changes only
    wall-clock time: both engines give bit-identical final stores, the
    same cycle count, peaks and op breakdown, and the same firing log
    ({!Trace}), so the per-cycle curves and the dynamic critical path
    are the same under either.  Fault injection remains a
    reference-engine feature, and the multiprocessor ({!Multiproc})
    runs the reference engine only. *)
type engine =
  | Reference
  | Packed

val engine_to_string : engine -> string

(** The valid names accepted by {!engine_of_string}, for error
    messages and CLI docs. *)
val valid_engine_names : string

(** Accepts ["reference"]/["ref"] and ["packed"].
    @raise Failure on anything else, listing the valid engines. *)
val engine_of_string : string -> engine

type t = {
  pes : int option;
      (** the single PE's issue width: at most this many firings start
          a cycle ([None] = unbounded parallelism); {!Multiproc.run}
          takes its PE count from [~pes] instead *)
  memory_ports : int option;
      (** at most this many memory operations may issue per cycle
          ([None] = unbounded): a simple memory-bandwidth model *)
  latencies : latencies;
  max_cycles : int;  (** safety bound; exceeded = divergence *)
  detect_collisions : bool;
      (** raise on two tokens meeting at the same (node, context, port) —
          the single-token-per-arc discipline of explicit token store
          machines.  Disabling it lets experiments demonstrate the
          Figure 8 pile-up silently corrupting execution instead. *)
  engine : engine;
      (** single-PE execution core; [Reference] by default *)
}

(** Unbounded PEs, default latencies, collision detection on. *)
val default : t

(** Unbounded PEs with unit latencies: pure critical-path measurement. *)
val ideal : t

(** [bounded p] — [p] processing elements, default latencies. *)
val bounded : int -> t

(** [latency t kind] is the cycle cost of one firing of [kind]. *)
val latency : t -> Dfg.Node.kind -> int

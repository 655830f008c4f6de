(** Machine configuration: processing-element count and operation
    latencies.

    The simulator is cycle-driven: a firing starts in some cycle and its
    output tokens are delivered [latency] cycles later.  With [pes = None]
    every enabled operation starts immediately (idealised dataflow: the
    finish time is the graph's critical path under the latency model);
    with [pes = Some p] at most [p] operations start per cycle, modelling
    a [p]-processor Monsoon-like configuration.  Memory operations are
    split-phase: they occupy a PE only in their issue cycle and complete
    [memory] cycles later without blocking the pipeline. *)

type latencies = {
  alu : int;  (** arithmetic, comparisons, constants, identity *)
  memory : int;  (** split-phase load/store round trip *)
  routing : int;  (** switch, merge, synch, loop control, start/end *)
}

let default_latencies = { alu = 1; memory = 4; routing = 1 }

(** Unit latencies: every operation takes one cycle.  Under this model
    the unbounded-PE cycle count is exactly the dataflow graph's critical
    path length in operators, the paper's abstract parallelism measure. *)
let unit_latencies = { alu = 1; memory = 1; routing = 1 }

(** Which execution core runs the single-PE machine (see the
    interface): the choice changes only wall-clock time. *)
type engine =
  | Reference
  | Packed

let engine_to_string = function Reference -> "reference" | Packed -> "packed"
let valid_engine_names = "reference, packed"

(** @raise Failure on an unknown name, listing the valid engines. *)
let engine_of_string (s : string) : engine =
  match String.lowercase_ascii (String.trim s) with
  | "reference" | "ref" -> Reference
  | "packed" -> Packed
  | other ->
      Fmt.failwith "unknown engine %S (valid engines: %s)" other
        valid_engine_names

type t = {
  pes : int option;  (** [None] = unbounded parallelism *)
  memory_ports : int option;
      (** at most this many memory operations may issue per cycle
          ([None] = unbounded): a simple memory-bandwidth model *)
  latencies : latencies;
  max_cycles : int;  (** safety bound; exceeded = divergence *)
  detect_collisions : bool;
      (** raise on two tokens meeting at the same (node, context, port) --
          the single-token-per-arc discipline of explicit token store
          machines.  Disabling it lets experiments demonstrate the
          Figure 8 pile-up. *)
  engine : engine;
      (** single-PE execution core; [Reference] unless explicitly
          switched *)
}

let default =
  {
    pes = None;
    memory_ports = None;
    latencies = default_latencies;
    max_cycles = 2_000_000;
    detect_collisions = true;
    engine = Reference;
  }

(** [ideal] -- unbounded PEs, unit latencies: pure critical-path
    measurement. *)
let ideal = { default with latencies = unit_latencies }

(** [bounded p] -- [p] processing elements, default latencies. *)
let bounded (p : int) = { default with pes = Some p }

let latency (t : t) (kind : Dfg.Node.kind) : int =
  match kind with
  | Dfg.Node.Binop _ | Dfg.Node.Unop _ | Dfg.Node.Const _ | Dfg.Node.Id
  | Dfg.Node.Sink ->
      t.latencies.alu
  | Dfg.Node.Load _ | Dfg.Node.Store _ -> t.latencies.memory
  | Dfg.Node.Switch | Dfg.Node.Merge | Dfg.Node.Synch _
  | Dfg.Node.Loop_entry _ | Dfg.Node.Loop_exit _ | Dfg.Node.Start _
  | Dfg.Node.End _ ->
      t.latencies.routing

(** Packed explicit-token-store execution core.

    The reference machines ({!Interp}, {!Multiproc}) walk functional
    structures — maps keyed by (node, context), association lists,
    per-cycle replay lists — on every token.  This module is the
    compiled alternative, the move Monsoon made for the paper's
    abstract ETS machine: {!compile_graph} lowers a {!Dfg.Graph.t}
    {e once} into flat instruction arrays (int opcode, matching arity,
    frame offset, flattened destination node/port pairs), and
    {!run_report} executes the compiled code over a real explicit token
    store — operand slots and generation-stamped presence bits in
    preallocated per-context frames recycled through a free list — with
    an event-driven ready wheel, so empty cycles cost nothing.

    It is a single-PE engine: it runs exactly the machine {!Interp}
    runs, with the same timing, so the two report the same cycle count
    and peak parallelism for the same graph and configuration.  The
    multiprocessor has one model, {!Multiproc}.

    Why this is safe to use: the translated graphs are determinate, so
    the final store and the certificate verdict are independent of
    scheduling.  The differential suite (test/test_packed.ml) and the
    oracle's packed combos hold this engine to bit-identical final
    stores and identical [Diagnosis.certified] verdicts against the
    reference interpreter on randomized programs.

    Observability is deliberately coarser than the reference engine's:
    no per-cycle parallelism/matching curves, no dynamic critical path,
    and no fault injection (those stay with the reference engine, and
    {!Interp.run_report} refuses a packed run that asks for faults).
    Firing counts, cycle counts, pressure statistics, the
    sanitizer, and the fractional-permission certificate are all still
    live. *)

(** A graph compiled to flat instruction arrays.  Compile once, run
    many times. *)
type code

val compile_graph : Dfg.Graph.t -> code

val graph : code -> Dfg.Graph.t
val instructions : code -> int

(** Operand slots in one per-context frame (the sum of matching
    arities; merges take no slots — they never rendezvous). *)
val frame_slots : code -> int

type result = {
  memory : Imp.Memory.t;
  cycles : int;
  firings : int;
  memory_ops : int;
  dummy_deliveries : int;
  value_deliveries : int;
  peak_parallelism : int;
  completed : bool;
  leftover_tokens : int;
  peak_frames : int;  (** most simultaneously live context frames *)
  peak_in_flight : int;
  firings_by_kind : (string * int) list;
  throttled : int;  (** deliveries postponed by the frame-store bound *)
  spilled : int;  (** over-capacity admissions breaking stagnation *)
  diagnosis : Diagnosis.t;
}

(** [run_report ~layout code] executes compiled [code].  It honours
    [config.pes], [config.memory_ports], the latencies and the
    scheduling policy, and interprets [config.max_matching] as a bound
    on simultaneously live context frames — at capacity, deliveries
    needing a new frame are throttled to the next cycle (with the same
    stagnation-spill escape as the reference engine) and reported as
    {!Diagnosis.pressure}, never a crash.

    [sanitize] (default true) runs the token-conservation sanitizer.
    [on_fire cycle node ctx] observes every firing.  The permission
    certificate is checked whenever the graph carries one.

    Returns [Error diagnosis] on collision, double write, or
    divergence, like the reference engine's report. *)
val run_report :
  ?config:Config.t ->
  ?sanitize:bool ->
  ?on_fire:(int -> int -> Context.t -> unit) ->
  layout:Imp.Layout.t ->
  code ->
  (result, Diagnosis.t) Stdlib.result

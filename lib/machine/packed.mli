(** Packed explicit-token-store execution core.

    The reference machine ({!Multiproc}'s run loop) keeps the graph as
    it is and allocates a record per token, a firing record per firing
    and an int-keyed table entry per rendezvous.  This module is the
    compiled alternative, the move Monsoon made for the paper's
    abstract ETS machine: {!compile_graph} lowers a {!Dfg.Graph.t}
    {e once} into flat instruction arrays (int opcode, matching arity,
    frame offset, flattened destination node/port pairs), and
    {!run_report} executes the compiled code over a real explicit token
    store — operand slots and generation-stamped presence bits in
    preallocated per-context frames recycled through a free list — with
    an event-driven ready wheel, so empty cycles cost nothing.

    It is a single-PE engine: it runs exactly the machine the reference
    loop's single-PE transport runs, with the same timing and the same
    issue rule ({!Firing.issue}), so the two report the same cycle count
    and peak parallelism for the same graph and configuration.  A token
    carries its context id only, the key of its frame.  The
    multiprocessor has one model, {!Multiproc}.

    Why this is safe to use: the translated graphs are determinate, so
    the final store and the certificate verdict are independent of
    scheduling.  The differential suite (test/test_packed.ml) and the
    oracle's packed combos hold this engine to bit-identical final
    stores and identical [Diagnosis.certified] verdicts against the
    reference interpreter on randomized programs.

    It reports what the reference reports: given a {!Trace.t} it writes
    the same firing log, with the same producer indices, and the same
    per-cycle samples (a cycle the event wheel skips is sampled too), so
    the profile curves and the dynamic critical path are the same under
    either engine.  Its tokens carry their producer's log index in a
    bucket column and a frame-slot column, written only when a log is
    kept.  Fault injection stays with the reference engine, and
    {!Interp.run_report} refuses a packed run that asks for faults.

    One dispatcher runs certified and uncertified graphs.  ALU, const,
    id, merge, switch, synch, sink, the loop gateways and plain loads
    and stores are specialised inline: each emits on one contiguous
    range of its destinations, over which a held permission bag is split
    in place.  Start, End, I-structure loads and stores and their
    deferred wakeups take one generic path: {!Firing.execute} fills its
    emission buffer, which is read back with the permission split
    ({!Firing.split}) as the reference engine reads it. *)

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
  peak_matching : int;
      (** most simultaneous waiting-matching entries, counted as
          {!Matching} counts them *)
  peak_frames : int;  (** most simultaneously live context frames *)
  peak_in_flight : int;
      (** most tokens scheduled and undelivered at a cycle's end *)
  firings_by_kind : (string * int) list;
  diagnosis : Diagnosis.t;
}

(** [run_report ~layout code] executes compiled [code].  It honours
    [config.pes], [config.memory_ports] and the latencies.

    [sanitize] (default true) runs the token-conservation sanitizer.
    [log], when given, receives every firing and every cycle's samples.
    The permission certificate is checked whenever the graph carries
    one.

    Returns [Error diagnosis] on collision, double write, or
    divergence, like the reference engine's report. *)
val run_report :
  ?config:Config.t ->
  ?sanitize:bool ->
  ?log:Trace.t ->
  layout:Imp.Layout.t ->
  code ->
  (result, Diagnosis.t) Stdlib.result

(** The single-PE explicit-token-store machine — the Monsoon stand-in
    (DESIGN.md, substitutions) at one processing element that starts up
    to [Config.pes] firings a cycle.

    Two engines run this one machine and differ only in wall-clock time
    ({!Config.engine}).  The reference engine is the single-PE transport
    of {!Multiproc}'s run loop, which the multiprocessor shares: the
    dataflow firing rule, waiting-matching by (node, context), the
    single-token-per-arc discipline (violations raise
    {!Token_collision} — this is how Figure 8's pathology is observed),
    and split-phase multiply-writable memory plus I-structures with
    deferred reads.  The packed engine is {!Packed}.

    Robustness layer: a seeded {!Fault.plan} can be injected at the
    delivery and memory-issue boundaries (reference engine only), and
    every run — clean or not — is summarised by a structured
    {!Diagnosis.t} (verdict, blocked frontier, peak matching, fault
    log).  Given a {!Trace.t}, either engine writes the same firing log
    and per-cycle samples: the record the profile curves, the dynamic
    critical path and the context overlap are read from.

    Execution is deterministic: the ready queue is FIFO and all graphs
    produced by the translation schemas are determinate. *)

exception Token_collision of string
(** Two tokens met at the same (node, context, input port): the graph is
    not a meaningful (ETS) dataflow computation.  The message carries
    the full diagnosis dump. *)

exception Double_write of string
(** A second write to an I-structure cell. *)

exception Divergence of string
(** [max_cycles] exceeded; the message carries the full diagnosis dump
    (blocked frontier, token counts, peak matching). *)

(** The program both machines run, re-exported with its labels. *)
type program = Multiproc.program = {
  graph : Dfg.Graph.t;
  layout : Imp.Layout.t;  (** variable-to-address map the graph assumes *)
}

type result = {
  memory : Imp.Memory.t;  (** final store *)
  cycles : int;  (** makespan (last completion cycle) *)
  firings : int;  (** total operator executions *)
  memory_ops : int;  (** loads + stores executed *)
  dummy_deliveries : int;
      (** tokens delivered along dummy (access) arcs: pure
          synchronisation traffic *)
  value_deliveries : int;  (** tokens delivered along value arcs *)
  peak_parallelism : int;  (** most firings started in one cycle *)
  completed : bool;  (** the End operator fired *)
  leftover_tokens : int;  (** unconsumed tokens at quiescence *)
  peak_matching : int;
      (** maximum simultaneous entries in the waiting-matching store —
          the frame-memory capacity a Monsoon-like machine would need *)
  peak_in_flight : int;
      (** most tokens travelling between operators at the end of a
          cycle *)
  firings_by_kind : (string * int) list;
      (** executions per operator family (loads, stores, switches, ...),
          sorted descending, equal counts in one order on both engines
          ({!Firing.by_kind}) *)
  diagnosis : Diagnosis.t;
      (** structured post-mortem: verdict, stall frontier, peak matching
          and fault log *)
}

(** Average operator-level parallelism: firings per cycle of makespan. *)
val avg_parallelism : result -> float

(** [run_report ?config ?faults ?log program] executes [program] to
    quiescence on a fresh zeroed memory.  [Ok r] means the machine
    reached quiescence — inspect [r.diagnosis] to distinguish clean
    completion from deadlock or leftover tokens; [Error d] is a hard
    failure (collision, double write, divergence) with the machine state
    at the failure point.  Never raises the legacy exceptions.  [log],
    when given, receives every firing and every cycle's samples; without
    one nothing is recorded.
    @raise Invalid_argument when [config] selects the packed engine and
    [faults] is given: fault injection is a reference-engine feature,
    and no engine is swapped for another behind the caller's back. *)
val run_report :
  ?config:Config.t ->
  ?faults:Fault.plan ->
  ?log:Trace.t ->
  program ->
  (result, Diagnosis.t) Stdlib.result

(** [run ?config ?faults ?log program] executes [program] to
    quiescence, writing [log] when given.  [faults] injects a
    deterministic fault plan at the delivery and memory-issue
    boundaries.
    @raise Token_collision / Double_write / Divergence as documented. *)
val run :
  ?config:Config.t ->
  ?faults:Fault.plan ->
  ?log:Trace.t ->
  program ->
  result

(** [run_exn ?config ?faults p] runs and additionally checks clean
    completion: the End operator fired and no tokens were left behind.
    @raise Failure otherwise, with the diagnosis (blocked frontier,
    leftover and unfired-End details) in the message. *)
val run_exn : ?config:Config.t -> ?faults:Fault.plan -> program -> result

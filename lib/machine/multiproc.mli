(** The reference ETS machine: one run loop over the {!Firing} rule and
    the {!Matching} store with two transports.  A machine with one PE is
    the simplest case of the paper's explicit-token-store multiprocessor
    (Monsoon), so the transport owns only what differs, and both report
    the same running counts: peak parallelism, peak in-flight, peak
    matching (counted on insert, summed over PEs), dummy and value
    deliveries and firings by kind.  Given a {!Trace.t}, both write one
    firing log with its per-cycle samples, the record from which the
    profile curves and the dynamic critical path are read.

    The per-token path is array work on both transports.  A token
    carries its context id in the run's {!Context.table} and nothing
    else of its context; each PE's {!Matching} store finds a rendezvous
    by the one int [cid * nodes + node], its empty slots holding a pad
    token, and a firing carries the tokens it consumed.  Merges and
    one-input nodes fire on arrival without a store entry (a one-input
    token still counts as a momentary entry in peak matching).  A
    firing's emissions go through {!Firing}'s reusable buffer, read back
    in emission-then-arc order, and pending deliveries — the local
    schedule and the network's injection schedule alike — sit in rings
    of per-cycle buckets that grow rather than wrap.

    {b Single PE} ({!run_single}, what {!Interp} reports): the issue
    rule is {!Firing.issue} — up to [Config.pes] enabled firings start a
    cycle (all when [None]), oldest first, at most
    [Config.memory_ports] of them memory operations.  A seeded
    {!Fault.plan} enters at the delivery and memory-issue boundaries;
    the {!Sanitize} checker and the permission certificate only report.
    No placement, memory home, network step or steal scan is
    computed.

    {b Network} ({!run}): [p] processing elements — each with its own
    matching store, ready queue and ALU — joined by a {!Network}
    interconnect, with nodes distributed by a {!Placement} policy.
    Each cycle: network arrivals and same-PE deliveries rendezvous in
    their PE's matching store; every PE issues at most one enabled
    firing, oldest first; tokens bound for co-resident consumers are
    scheduled locally while cross-PE tokens enter the injection queue;
    the network moves bandwidth-limited messages into flight.  Memory
    is interleaved across modules ({!Network.home_pe}): a load from a
    non-owning PE pays a request/response round trip of [2 * latency]
    extra cycles on its value output — requests themselves are
    fire-and-forget in access-chain order, so stores and the chain's
    successor token never wait on the round trip (split-phase access).
    At one PE its timing is the single PE's at [Config.pes = Some 1].

    Determinacy: the final store does not depend on [pes], placement or
    network configuration.  The translation schemas' access tokens
    already serialise every pair of conflicting memory operations, so
    however transport reorders independent firings, conflicting ones
    stay ordered — the property the differential suite checks.

    Of {!Config.t} the network honours [latencies], [max_cycles] and
    [detect_collisions]; [pes] and [memory_ports] are single-PE notions
    superseded by [~pes] and the module interleaving.  [engine] must be
    [Reference]: the packed engine is single-PE only.

    {b Fault tolerance.}  Passing [?faults] and/or [?recovery] to {!run}
    switches the machine from the raw wire to the {!Network} reliable
    transport (sequence numbers, receiver dedup, ack/retransmit with
    backoff) and runs the {!Sanitize} token-conservation checker.
    [?faults] injects seeded wire faults via {!Fault.on_link}.
    [?recovery] adds epoch checkpoints of the whole machine — matching
    stores, ready queues, undelivered transport payloads, memory and
    split-phase state, sanitizer counters, the firing log if one is
    kept — plus a
    schedule of PE fail-stops: on a death the dead PE's nodes are
    remapped over the survivors ({!Recovery.remap}) and the last epoch
    is replayed.  Time is monotonic across rollbacks: lost cycles and
    the failover penalty show up in the makespan, and the cost is
    accounted in [result.recovery].  Determinacy is what makes replay
    safe — any arrival order yields the same final store, so resuming
    from a consistent cut with different timing (and one PE fewer)
    converges on the reference store.  Without these options the
    machine's behaviour and timing are bit-identical to the fault-free
    original. *)

type program = {
  graph : Dfg.Graph.t;
  layout : Imp.Layout.t;  (** variable-to-address map the graph assumes *)
}

type result = {
  memory : Imp.Memory.t;  (** final store *)
  cycles : int;  (** makespan (last completion cycle) *)
  firings : int;
  memory_ops : int;
  completed : bool;  (** the End operator fired *)
  leftover_tokens : int;
  peak_matching : int;
      (** most simultaneous matching-store entries, summed over PEs and
          counted on insert *)
  dummy_deliveries : int;  (** tokens delivered along dummy (access) arcs *)
  value_deliveries : int;  (** tokens delivered along value arcs *)
  peak_parallelism : int;  (** most firings started in one cycle, all PEs *)
  peak_in_flight : int;
      (** most tokens scheduled, queued or on the wire at a cycle's end *)
  firings_by_kind : (string * int) list;
      (** executions per operator family, sorted descending *)
  per_pe_firings : int array;
  per_pe_busy : int array;  (** cycles in which the PE issued a firing *)
  utilisation : float array;  (** per PE, busy cycles / total cycles *)
  local_deliveries : int;  (** tokens that bypassed the network *)
  net_messages : int;  (** tokens that crossed between PEs *)
  cut_traffic : float;
      (** [net_messages / (net_messages + local_deliveries)]: the
          dynamic cost of the placement's cut *)
  mem_local : int;  (** memory accesses served by the issuing PE's module *)
  mem_remote : int;  (** accesses that paid the remote round trip *)
  backpressure : int;  (** enqueues that found a full injection queue *)
  peak_queue : int;
  net_hops : int;
      (** total links crossed by network messages; equals the message
          count on the uniform wire, more under a topology *)
  steals : int;  (** ready firings moved by work stealing *)
  placement : Placement.t;
      (** the placement in force at the end — remapped if a PE died *)
  placement_stats : Placement.stats;
  transport : Network.rt_stats option;
      (** reliable-transport counters; [Some] iff faults/recovery on *)
  recovery : Recovery.metrics option;
      (** checkpoint/rollback cost accounting; [Some] iff recovery on *)
  diagnosis : Diagnosis.t;
      (** [diagnosis.network] is [Some _] under the network transport *)
}

(** [run ?config ?net ?placement ?log ~pes program] —
    execute to quiescence on a fresh zeroed memory.  [log], when given,
    receives every firing with its PE, in deterministic order, and every
    cycle's samples — the feed for per-PE Chrome-trace tracks.  Under
    recovery it rolls back with the epoch, so it holds the firings of
    the run that survived.
    [Ok r] is quiescence (see [r.diagnosis] for deadlock/leftover);
    [Error d] is a hard failure (collision, double write, divergence).

    [?topo] charges every message [latency * hops] under a
    {!Sched.Topology} with dimension-ordered routing, and scales the
    remote-memory round trip by the same distance; omitted, the wire is
    the seed's uniform single hop, bit for bit.  [?tree] is the
    loop-nesting forest consumed by the {!Placement.Hier} policy.
    [?steal] turns on deterministic work stealing of ready firings
    ({!Sched.Steal}): timing and traffic change, the final store never
    does — stolen firings emit from the thief, rendezvous stays at the
    consumer's placed PE.
    @raise Invalid_argument when [pes < 1], or when [config] selects
    the packed engine: the packed engine is single-PE, this module is
    the one multiprocessor model, and no engine is swapped for another
    behind the caller's back. *)
val run :
  ?config:Config.t ->
  ?net:Network.config ->
  ?placement:Placement.policy ->
  ?tree:(int * int option) list ->
  ?topo:Sched.Topology.t ->
  ?steal:Sched.Steal.spec ->
  ?log:Trace.t ->
  ?faults:Fault.plan ->
  ?recovery:Recovery.spec ->
  pes:int ->
  program ->
  (result, Diagnosis.t) Stdlib.result

(** [run_single ?config ?faults ?log program] — execute to
    quiescence on the single-PE transport: [config.pes] is the issue
    width, [config.memory_ports] the memory issue limit, and [faults]
    acts at the delivery and memory-issue boundaries.  [config.engine]
    is not consulted.  The network fields describe one PE that never
    uses the network: every node on PE 0, every token and memory access
    local.  {!Interp.run_report} reports this run. *)
val run_single :
  ?config:Config.t ->
  ?faults:Fault.plan ->
  ?log:Trace.t ->
  program ->
  (result, Diagnosis.t) Stdlib.result

(** Like {!run} but additionally requires clean completion: End fired
    and no leftover tokens.
    @raise Failure otherwise, with the diagnosis in the message. *)
val run_exn :
  ?config:Config.t ->
  ?net:Network.config ->
  ?placement:Placement.policy ->
  ?tree:(int * int option) list ->
  ?topo:Sched.Topology.t ->
  ?steal:Sched.Steal.spec ->
  ?log:Trace.t ->
  ?faults:Fault.plan ->
  ?recovery:Recovery.spec ->
  pes:int ->
  program ->
  result

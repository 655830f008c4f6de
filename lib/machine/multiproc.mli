(** The multiprocessor ETS machine: [p] processing elements — each with
    its own waiting-matching store, ready queue and ALU — joined by a
    {!Network} interconnect, with nodes distributed by a {!Placement}
    policy.  This is the Monsoon floor plan the single-PE {!Interp}
    stands in for: same firing rule (both machines run {!Firing} over
    {!Matching}), different transport.

    Each cycle: network arrivals and same-PE deliveries rendezvous in
    their PE's matching store; every PE issues at most one enabled
    firing (FIFO or LIFO per {!Config.policy}); output tokens
    bound for co-resident consumers are scheduled locally while
    cross-PE tokens enter the injection queue; the network moves
    bandwidth-limited messages into flight.  Memory is interleaved
    across modules ({!Network.home_pe}): a load from a non-owning PE
    pays a request/response round trip of [2 * latency] extra cycles on
    its value output — requests themselves are fire-and-forget in
    access-chain order, so stores and the chain's successor token never
    wait on the round trip (split-phase access).

    Determinacy: the final store does not depend on [pes], placement or
    network configuration.  The translation schemas' access tokens
    already serialise every pair of conflicting memory operations, so
    however transport reorders independent firings, conflicting ones
    stay ordered — the property the differential suite checks against
    the reference interpreter and the single-PE machine.

    Of {!Config.t} the multiprocessor honours [latencies], [policy],
    [max_cycles] and [detect_collisions]; [pes], [memory_ports] and
    [max_matching] are single-machine notions superseded by [~pes],
    the module interleaving and per-PE stores.  [engine] must be
    [Reference]: the packed engine is single-PE only.

    {b Fault tolerance.}  Passing [?faults] and/or [?recovery] switches
    the machine from the raw wire to the {!Network} reliable transport
    (sequence numbers, receiver dedup, ack/retransmit with backoff) and
    runs the {!Sanitize} token-conservation checker.  [?faults] injects
    seeded wire faults via {!Fault.on_link}.  [?recovery] adds epoch
    checkpoints of the whole machine — matching stores, ready queues,
    undelivered transport payloads, memory and split-phase state,
    sanitizer counters — plus a schedule of PE fail-stops: on a death
    the dead PE's nodes are remapped over the survivors
    ({!Recovery.remap}) and the last epoch is replayed.  Time is
    monotonic across rollbacks: lost cycles and the failover penalty
    show up in the makespan, and the cost is accounted in
    [result.recovery].  Determinacy is what makes replay safe — any
    arrival order yields the same final store, so resuming from a
    consistent cut with different timing (and one PE fewer) converges on
    the reference store.  Without these options the machine's behaviour
    and timing are bit-identical to the fault-free original. *)

type result = {
  memory : Imp.Memory.t;  (** final store *)
  cycles : int;  (** makespan (last completion cycle) *)
  firings : int;
  memory_ops : int;
  completed : bool;  (** the End operator fired *)
  leftover_tokens : int;
  peak_matching : int;
      (** peak total matching-store entries, summed over PEs (sampled
          per cycle) *)
  per_pe_firings : int array;
  per_pe_busy : int array;  (** cycles in which the PE issued a firing *)
  utilisation : float array;  (** per PE, busy cycles / total cycles *)
  per_pe_curve : int array array;  (** firings started per cycle, per PE *)
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
  net_occupancy : int array;
      (** per cycle, messages queued + in flight at end of cycle *)
  placement : Placement.t;
      (** the placement in force at the end — remapped if a PE died *)
  placement_stats : Placement.stats;
  transport : Network.rt_stats option;
      (** reliable-transport counters; [Some] iff faults/recovery on *)
  recovery : Recovery.metrics option;
      (** checkpoint/rollback cost accounting; [Some] iff recovery on *)
  diagnosis : Diagnosis.t;  (** [diagnosis.network] is always [Some _] *)
}

(** [run ?config ?net ?placement ?on_fire ~pes program] —
    execute to quiescence on a fresh zeroed memory.  [on_fire] receives
    (cycle, node, context, pe) for every firing, in deterministic
    order — the feed for per-PE Chrome-trace tracks.
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
  ?on_fire:(int -> Dfg.Node.t -> Context.t -> pe:int -> unit) ->
  ?faults:Fault.plan ->
  ?recovery:Recovery.spec ->
  pes:int ->
  Interp.program ->
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
  ?on_fire:(int -> Dfg.Node.t -> Context.t -> pe:int -> unit) ->
  ?faults:Fault.plan ->
  ?recovery:Recovery.spec ->
  pes:int ->
  Interp.program ->
  result

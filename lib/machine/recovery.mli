(** Checkpoint/replay recovery policy for {!Multiproc}.

    Determinacy is what makes this sound: a Schema 2/3 graph produces
    the same final store under {e any} token arrival order, so replaying
    from an earlier consistent cut — with different timing, different
    placement, even one PE fewer — converges on the same store.  The
    machine takes a full snapshot every [interval] cycles (matching
    stores, ready queues, undelivered transport payloads, memory,
    sanitizer counters); on a fail-stop it restores the last epoch,
    remaps the dead PE's static nodes over the survivors and replays.

    This module owns the policy and arithmetic: the checkpoint cadence
    and journal, the seeded death schedule, the placement remap and
    PE-substitution map, and the cost accounting.  The snapshot type
    itself lives inside {!Multiproc} — it is made of that module's
    private machine state. *)

type spec = {
  interval : int;  (** cycles between epoch checkpoints *)
  failover : int;  (** cycles charged for detection + restore *)
  deaths : (int * int) list;  (** scheduled (cycle, pe) fail-stops *)
  max_rollbacks : int;
      (** sanitizer-triggered rollbacks allowed before giving up *)
}

val spec :
  ?interval:int ->
  ?failover:int ->
  ?deaths:(int * int) list ->
  ?max_rollbacks:int ->
  unit ->
  spec

(** [seeded_deaths ~seed ~pes ~window] — one deterministic fail-stop:
    a pure function of [seed] (same mixer as {!Fault.mix}, fresh
    streams) choosing a victim PE and a death cycle in [1, window].
    Empty on a uniprocessor. *)
val seeded_deaths : seed:int -> pes:int -> window:int -> (int * int) list

(** [substitute ~pes ~alive] — for each PE index, the PE now serving its
    role: identity for live PEs, round-robin over survivors for dead
    ones.  Translates memory-module homes and resend sources.
    @raise Invalid_argument if nobody is alive. *)
val substitute : pes:int -> alive:bool array -> int array

(** [remap place ~alive] — the post-failure placement: live PEs keep
    their nodes, dead PEs' nodes are rebalanced round-robin over the
    survivors in node order.  [pes], the network geometry and memory
    interleaving are unchanged — the dead PE just never receives work
    again.
    @raise Invalid_argument if nobody is alive. *)
val remap : Placement.t -> alive:bool array -> Placement.t

(** {1 Checkpoint journal}

    One-deep: replay always restarts from the most recent epoch. *)

type 'state journal

val journal_create : unit -> 'state journal
val record : 'state journal -> cycle:int -> 'state -> unit
val last : 'state journal -> (int * 'state) option

(** {1 Cost accounting} *)

type metrics = {
  mutable m_checkpoints : int;
  mutable m_rollbacks : int;  (** restores (death- or sanitizer-driven) *)
  mutable m_deaths : int;
  mutable m_lost_cycles : int;
      (** cycles of progress discarded by rollbacks *)
  mutable m_replayed_firings : int;
      (** firings re-executed during replay *)
}

val metrics_create : unit -> metrics

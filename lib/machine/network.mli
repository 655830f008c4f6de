(** The token interconnect of the multiprocessor machine: a cycle-driven
    model of per-link latency and bandwidth joining PEs and interleaved
    memory modules.

    Tokens whose producer and consumer live on the same PE bypass the
    network entirely.  A token crossing PEs enters its source PE's
    injection queue; each cycle every PE drains at most [bandwidth]
    messages from its queue into flight, and a message in flight arrives
    [latency] cycles later.  Injection queues may be finite
    ([queue_capacity]): an enqueue that finds the queue full is {e
    counted as backpressure} — never dropped — so a saturated network
    shows up as pressure in {!Diagnosis} and longer makespans, not lost
    tokens.

    Memory is interleaved across [modules] (default: one per PE);
    {!home_pe} maps an address to the PE owning its module.  A load
    issued from a different PE pays the request/response round trip of
    [2 * latency] extra cycles on its {e value} output only — requests
    travel in access-chain order and are fire-and-forget, so the chain's
    successor token leaves at pipeline speed (split-phase access). *)

type config = {
  latency : int;  (** cycles a message spends in flight between PEs *)
  bandwidth : int;  (** messages each PE may inject per cycle *)
  queue_capacity : int option;
      (** finite injection queue bound; [None] = unbounded *)
  modules : int option;
      (** interleaved memory modules; [None] = one per PE *)
}

(** latency 2, bandwidth 2, queue capacity 8, one module per PE. *)
val default : config

(** An idealised interconnect: latency 1, unbounded bandwidth and
    queues — placement still matters, contention does not. *)
val fast : config

(** [home_pe config ~pes ~addr] — the PE owning the memory module that
    address [addr] interleaves onto (module [addr mod modules], modules
    distributed round-robin over PEs). *)
val home_pe : config -> pes:int -> addr:int -> int

type 'msg t

(** [create ?config ?hops ~pes ()] — a fresh wire.  [hops src dst]
    gives the links a message crosses under the interconnect topology
    (typically [Sched.Routing.hops] of a {!Sched.Topology.t}); a
    message's flight time is the pipelined (wormhole) cost
    [latency + hops - 1] — the head pays the injection latency once,
    then one cycle per additional link.  The default, constant 1, is
    the seed's uniform-latency wire — every cycle count is
    bit-identical to it. *)
val create :
  ?config:config -> ?hops:(int -> int -> int) -> pes:int -> unit -> 'msg t

(** [inject t ~src ~dst msg] — enqueue a message on PE [src]'s injection
    queue bound for PE [dst].  Counts backpressure when the queue is
    already at capacity (the message still enters the queue). *)
val inject : 'msg t -> src:int -> dst:int -> 'msg -> unit

(** [step t ~now] — end-of-cycle transport: each PE moves up to
    [bandwidth] queued messages into flight, arriving at
    [now + latency + hops - 1]. *)
val step : 'msg t -> now:int -> unit

(** [arrivals t ~now] — messages arriving this cycle, as (dst, msg) in
    deterministic injection order; removes them from the network. *)
val arrivals : 'msg t -> now:int -> (int * 'msg) list

(** Messages currently queued or in flight (0 = network quiescent). *)
val in_transit : 'msg t -> int

type stats = {
  s_messages : int;  (** total messages injected *)
  s_hops : int;  (** total links crossed by launched messages *)
  s_backpressure : int;  (** enqueues that found a full queue *)
  s_peak_queue : int;  (** deepest single injection queue observed *)
  s_peak_in_flight : int;  (** most messages queued + flying at once *)
}

val stats : 'msg t -> stats

(** {1 Reliable transport}

    Exactly-once delivery over an at-least-once wire.  Each payload
    crossing a (src, dst) channel carries a per-channel sequence number
    and the sender's checksum of the payload; the receiver discards a
    data frame whose payload fails its checksum without acking it, acks
    every other data frame and silently drops sequence numbers it has
    already delivered; the sender retransmits unacked frames on timeout
    (initial RTO [4*latency + 2]) with exponential backoff, giving up
    after [budget] attempts — a genuine loss then surfaces as a counted
    token loss and a diagnosable deadlock rather than a livelock.

    Wire faults are applied {e per frame} by the [fault] hook (one
    decision per frame put on the wire, acks included): drop loses the
    frame, duplicate injects it twice, delay/reorder hold it back so
    later traffic overtakes it, and a bit flip rewrites a data payload
    through the [corrupt] callback after the checksum was taken — the
    receiver discards it, so a flip costs a retransmit like a drop. *)

type 'msg rt

(** [rt_create ?config ?fault ?corrupt ?budget ~pes ()] — a reliable
    transport over a fresh raw wire.  [fault] decides each frame's fate
    (typically {!Fault.on_link} of a plan); [corrupt] applies a bit flip
    to a payload; [budget] caps retransmit attempts per frame
    (default 16). *)
val rt_create :
  ?config:config ->
  ?hops:(int -> int -> int) ->
  ?fault:(cycle:int -> dst:int -> Fault.action) ->
  ?corrupt:(int -> 'msg -> 'msg) ->
  ?budget:int ->
  pes:int ->
  unit ->
  'msg rt

(** [rt_send rt ~now ~src ~dst msg] — sequence, record for retransmit,
    and put a data frame on the wire. *)
val rt_send : 'msg rt -> now:int -> src:int -> dst:int -> 'msg -> unit

(** [rt_arrivals rt ~now] — payloads delivered this cycle, deduped, in
    deterministic order; acks (and re-acks of duplicates) are sent as a
    side effect. *)
val rt_arrivals : 'msg rt -> now:int -> (int * 'msg) list

(** [rt_step rt ~now] — end-of-cycle transport: release frames held by
    delay/reorder faults, retransmit frames past their deadline (sorted
    channel order), then step the raw wire. *)
val rt_step : 'msg rt -> now:int -> unit

(** Frames queued, flying, held or awaiting ack (0 = transport
    quiescent; replaces {!in_transit} in the machine's idle check). *)
val rt_pending : 'msg rt -> int

(** [rt_undelivered rt] — (src, dst, payload) of every frame sent but
    not yet handed to its receiver, sorted by channel and sequence
    number: what a checkpoint must capture and a restore must resend.
    Delivered-but-unacked frames are excluded — their effect is already
    in the checkpointed receiver state. *)
val rt_undelivered : 'msg rt -> (int * int * 'msg) list

type rt_stats = {
  r_sends : int;  (** distinct payloads sent *)
  r_retransmits : int;  (** timeout-driven resends *)
  r_dups_dropped : int;  (** receiver-side dedup hits *)
  r_acks : int;  (** ack frames sent *)
  r_wire_faults : int;  (** frames the fault hook acted on *)
  r_losses : int;  (** frames abandoned undelivered (budget exhausted) *)
}

val rt_stats : 'msg rt -> rt_stats

(** Raw wire counters underneath the reliable layer (retransmits and
    acks inflate [s_messages] relative to payloads). *)
val rt_wire_stats : 'msg rt -> stats

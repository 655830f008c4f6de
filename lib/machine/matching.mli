(** The waiting-matching store: token rendezvous by (node, context).

    This is the ETS frame memory of the reference machine
    ({!Multiproc}'s run loop, on both of its transports) — each PE of a
    multiprocessor owns one store over the nodes placed on it.  The
    store is polymorphic in the slot type; the machine stores the
    arriving token itself, with its critical-path provenance and the
    permission fractions it carries.

    A rendezvous is found by one int, [cid * nodes + node], where [cid]
    is the context's dense id in the run's {!Context.table}: the store
    never hashes or compares a context list.  Each entry is a slot
    array with one slot per input port; an empty slot holds the
    caller's [pad], compared physically, so a slot costs no option
    box.

    Matching follows the single-token-per-arc discipline: delivering a
    token to an occupied (node, context, port) slot is a collision.
    [Loop_entry] nodes match on token {e groups}: either the initial
    group (ports [0..arity-1]) or the back-edge group
    (ports [arity..2*arity-1]) enables the node, never a mixture. *)

type 'slot store

(** [create ~nodes ~ids ~pad] — an empty store for a graph of [nodes]
    nodes whose context ids come from [ids]; [pad] marks an empty slot
    and must never be delivered. *)
val create : nodes:int -> ids:Context.table -> pad:'slot -> 'slot store

(** Occupied (node, context) entries — the frame count a Monsoon-like
    machine would charge against its frame memory. *)
val entries : 'slot store -> int

(** The outcome of one token delivery. *)
type 'slot outcome =
  | Collision
      (** the slot already held a token (only with collision detection
          on; the offending token is {e not} written) *)
  | Wait  (** stored; the node is not yet enabled *)
  | Fire of 'slot array
      (** the node fired: the consumed input slots.  For any node but a
        [Loop_entry] this is the entry's own slot array, which leaves
        the store.  For [Loop_entry] the group is encoded in the array
        length — [arity] slots mean the initial group, [arity + 1] (the
        last being [pad]) mean the back-edge group.  {!Firing.execute}
        decodes this. *)

(** [deliver ~kind ~detect_collisions ?on_insert store ~node ~cid ~port
    slot] performs one rendezvous step in context id [cid].
    [on_insert] runs after the token is written but before any
    consumption — the point where the machine samples peak occupancy. *)
val deliver :
  kind:Dfg.Node.kind ->
  detect_collisions:bool ->
  ?on_insert:(unit -> unit) ->
  'slot store ->
  node:int ->
  cid:int ->
  port:int ->
  'slot ->
  'slot outcome

(** {1 Checkpoints} *)

(** An independent copy (slot arrays copied). *)
val copy : 'slot store -> 'slot store

(** [copy_into store ~dst] copies every entry of [store] into [dst node],
    the store of its node: a restore re-buckets a checkpoint through the
    current placement. *)
val copy_into : 'slot store -> dst:(int -> 'slot store) -> unit

(** {1 Post-mortem} *)

(** Unconsumed tokens across a set of stores (for the leftover count at
    quiescence). *)
val leftover : 'slot store list -> int

(** Partial matches across a set of stores, sorted by (node, context):
    (node, context, ports holding a token, ports still empty).  The raw
    material of {!Diagnosis.blocked}. *)
val partial_matches :
  'slot store list -> (int * Context.t * int list * int list) list

(** Waiting tokens per iteration context, in {!Diagnosis.order_by_count}
    order. *)
val tokens_by_context : 'slot store list -> (Context.t * int) list

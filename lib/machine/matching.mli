(** The waiting-matching store: token rendezvous by (node, context).

    This is the ETS frame memory of the reference machine
    ({!Multiproc}'s run loop, on both of its transports) — each PE of a
    multiprocessor owns one store over the nodes placed on it.  The
    store is polymorphic in the slot type; the machine stores the
    arriving token itself, with its critical-path provenance and the
    permission fractions it carries.

    Matching follows the single-token-per-arc discipline: delivering a
    token to an occupied (node, context, port) slot is a collision.
    [Loop_entry] nodes match on token {e groups}: either the initial
    group (ports [0..arity-1]) or the back-edge group
    (ports [arity..2*arity-1]) enables the node, never a mixture. *)

type 'slot store = (int * Context.t, 'slot option array) Hashtbl.t

val create : unit -> 'slot store

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
      (** the node fired: the consumed input slots.  For [Loop_entry]
        the group is encoded in the array length — [arity] slots mean
        the initial group, [arity + 1] (the last being the caller's
        [pad]) mean the back-edge group.  {!Firing.execute} decodes
        this. *)

(** [deliver ~kind ~detect_collisions ~pad ?on_insert store ~node ~ctx
    ~port slot] performs one rendezvous step.  [on_insert] runs after
    the token is written but before any consumption — the point where
    the single-PE machine samples peak occupancy.  [pad] fills the
    sentinel slot of a back-edge group. *)
val deliver :
  kind:Dfg.Node.kind ->
  detect_collisions:bool ->
  pad:'slot ->
  ?on_insert:(unit -> unit) ->
  'slot store ->
  node:int ->
  ctx:Context.t ->
  port:int ->
  'slot ->
  'slot outcome

(** Unconsumed tokens across a set of stores (for the leftover count at
    quiescence). *)
val leftover : 'slot store list -> int

(** Partial matches across a set of stores, sorted by (node, context):
    (node, context, ports holding a token, ports still empty).  The raw
    material of {!Diagnosis.blocked}. *)
val partial_matches :
  'slot store list -> (int * Context.t * int list * int list) list

(** Waiting tokens per iteration context, descending by count. *)
val tokens_by_context : 'slot store list -> (Context.t * int) list

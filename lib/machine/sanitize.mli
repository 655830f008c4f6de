(** Online token-conservation sanitizer.

    Determinate schema graphs obey counting invariants that hold for
    {e every} legal execution, independent of timing, placement or
    arrival order:

    - each (node, context) pair fires at most once — the single-token-
      per-arc discipline seen from the firing side (a loop gateway's
      initial fire happens at the {e parent} context and each back-edge
      fire at a distinct body context).  A graph without loop gateways
      (Schema 1's single circulating token) re-fires its loop bodies in
      one context, so there the rule skips the nodes on a cycle;
    - a switch fires exactly once per data token delivered to it;
    - every activation of a loop (one distinct initial-entry context)
      drives each of its entry gateways exactly once, and leaves through
      exactly one of its exit sites — one distinct exit context per
      activation, with the exit fires bounded by the gateway count (a
      goto program's loop may have several exit sites, of which an
      activation takes one);
    - the matching store drains to empty at quiescence.

    The sanitizer checks these incrementally as the machine runs.  A
    violation is evidence of unmasked corruption — a duplicated token
    the transport missed, a bit-flipped predicate desynchronising a
    loop's gates, a leak — and is what triggers rollback in
    {!Multiproc} when recovery is enabled.  It cannot see value
    corruption that stays structurally legal (there are no checksums);
    that residue is caught by the differential store comparison in
    {!Core.Oracle}.

    The sanitizer's memory must roll back with the machine — see
    {!snapshot}/{!restore} — or every replayed firing would read as a
    double fire. *)

type violation =
  | Double_fire of { df_node : int; df_ctx : Context.t }
  | Switch_imbalance of { sw_node : int; sw_in : int; sw_fired : int }
      (** fires vs data tokens delivered on port 0 *)
  | Loop_imbalance of {
      li_loop : int;
      li_activations : int;  (** distinct initial-entry contexts *)
      li_entries : int;  (** initial-group entry-gateway fires *)
      li_entry_gates : int;
      li_exits : int;  (** exit-gateway fires *)
      li_exit_ctxs : int;  (** distinct exit contexts *)
      li_exit_gates : int;
    }
  | Store_leak of { sl_tokens : int; sl_by_pe : (int * int) list }
      (** tokens still waiting in matching stores at quiescence;
          [sl_by_pe] breaks the count down as [(pe, tokens)] pairs on
          multiprocessor runs (non-zero entries only, [] on single-PE) —
          a dead or partitioned PE shows up as the one hoarding the
          leak *)

val violation_to_string : violation -> string
val pp_violation : Format.formatter -> violation -> unit

type t

(** [create ~ids graph] — a checker for one run whose context ids are
    [ids]. *)
val create : ids:Context.table -> Dfg.Graph.t -> t

(** [on_delivery t ~node ~port] — count a token delivery (data inflow of
    switches).  Call once per token actually handed to matching. *)
val on_delivery : t -> node:int -> port:int -> unit

(** [on_fire_id t ~node ~cid ~group] — record a firing of [node] in
    the context whose id is [cid] ([group] = matched input-array
    length, which distinguishes a loop gateway's initial group from its
    back edge).  Returns the violation immediately if this (node,
    context) has already fired — the rollback trigger; only then is the
    context read back from the table.

    What the fired set costs: one bit per (node, context id), in a
    per-node bit set that doubles when a larger id first fires there.
    Switch counts are per-node arrays; each loop keeps entry and exit
    counts and a bit set of their context ids.  A firing costs array
    reads and writes and no lookup, and allocates only when a bit set
    grows. *)
val on_fire_id : t -> node:int -> cid:int -> group:int -> violation option

(** [at_quiescence ?by_pe t ~leftover] — the balance checks that only
    make sense once the machine is quiet: switch in/out balance,
    per-loop entry/exit balance, and the matching-store leak ([leftover]
    tokens still waiting, broken down per PE when the caller supplies
    [by_pe]). *)
val at_quiescence : ?by_pe:(int * int) list -> t -> leftover:int -> violation list

(** {1 Checkpoint support} *)

type snap

val snapshot : t -> snap
val restore : t -> snap -> unit

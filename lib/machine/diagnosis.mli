(** Structured post-mortems of dataflow execution.

    Every run of each machine ({!Multiproc}, {!Packed}, and {!Interp}
    reporting either at one PE) — clean, deadlocked, collided or
    diverged — yields a diagnosis: a verdict plus the machine state
    needed to understand it.  On a stall
    this is the waiting-matching store's partial matches (the frontier
    of operators blocked on missing inputs), per-context token counts
    and any deferred I-structure reads; with fault injection enabled it
    carries the fault log, so no injected corruption can pass
    silently. *)

(** One operator with a partial match: some input ports filled, some
    still waiting.  This is the stall frontier — the nodes that would
    fire next if the missing tokens arrived. *)
type blocked = {
  b_node : int;
  b_label : string;  (** the node's rendering, e.g. ["load x"] *)
  b_ctx : Context.t;
  b_present : int list;  (** input ports holding a token *)
  b_missing : int list;  (** input ports still empty *)
  b_pe : int option;
      (** PE whose matching store holds the partial match; [None] on
          single-PE runs *)
}

(** Interconnect pressure of a multiprocessor run ({!Multiproc}); absent
    on single-PE runs.  Backpressured enqueues are counted, never
    dropped — a finite injection queue slows the machine down, it does
    not lose tokens. *)
type net_pressure = {
  net_messages : int;  (** tokens that crossed between PEs *)
  net_backpressure : int;
      (** enqueues that found the finite injection queue already full *)
  net_peak_queue : int;  (** deepest single injection queue observed *)
  net_peak_in_flight : int;  (** most messages queued + flying at once *)
}

type verdict =
  | Clean  (** End fired, no tokens left *)
  | Deadlock  (** quiescent but End never fired: tokens starved *)
  | Leftover of int  (** End fired with that many unconsumed tokens *)
  | Collision of string  (** single-token-per-arc discipline violated *)
  | Double_write of string  (** I-structure cell written twice *)
  | Diverged of int  (** the cycle bound that was exceeded *)
  | Corrupted of string
      (** the sanitizer found an invariant violation recovery could not
          (or was not allowed to) roll back *)

type t = {
  verdict : verdict;
  cycles : int;  (** last cycle reached *)
  leftover_tokens : int;
  blocked : blocked list;  (** stall frontier, largest contexts first *)
  deferred_reads : (int * int) list;  (** address, waiting readers *)
  tokens_by_context : (Context.t * int) list;
      (** waiting tokens per iteration context, descending; ties in
          {!Context.compare} order (see {!order_by_count}) *)
  waiting_by_pe : (int * int) list;
      (** waiting tokens per PE (multiprocessor runs; [] on single-PE) —
          a dead or backpressured PE shows up as the one hoarding
          partial matches *)
  peak_matching : int;
      (** most simultaneous waiting-matching entries observed *)
  network : net_pressure option;  (** [Some] only for multiprocessor runs *)
  faults : Fault.event list;  (** injected faults, in injection order *)
  sanitizer : Sanitize.violation list;
      (** token-conservation violations still standing at the end *)
  permission : Permission.violation list;
      (** fractional-permission certificate violations still standing;
          always [] when the run carried no certificate *)
  certified : (int * int) option;
      (** (elements, ownership checks) when the run carried a
          fractional-permission certificate; [None] = not certified *)
}

(** [is_clean d] — verdict is {!Clean}, no faults were injected and
    neither the sanitizer nor the permission certificate found
    anything. *)
val is_clean : t -> bool

(** [order_by_count counts] — per-context waiting-token counts in the
    order {!t.tokens_by_context} reports them: descending by count,
    equal counts in {!Context.compare} order.  Every engine sorts its
    counts through this one function, so their reports agree line for
    line. *)
val order_by_count : (Context.t * int) list -> (Context.t * int) list

val verdict_to_string : verdict -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string

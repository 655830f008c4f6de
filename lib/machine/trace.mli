(** The firing log: the one record of a run that either engine writes
    when its caller passes one, and that every observer reads — the
    profile curves, the dynamic critical path, the per-context counts,
    the context overlap (the observable difference between barrier and
    pipelined loop control), the timeline and the Chrome traces.

    For each firing it holds the node, the context, the cycle, the PE
    and the producer's log index: the firing that made the deepest of
    its consumed tokens ([-1] for none).  For each cycle it holds the
    firings started, the tokens in flight and the occupied matching
    entries at the cycle's end.  Firings are logged in firing order, so
    their cycles never decrease.

    A run given no log records nothing: no push, no sample, no producer
    index on its tokens. *)

type t

val create : unit -> t

(** {1 Writing: the engines} *)

(** [deeper t a b] — of two producers' log indices ([-1] for none), the
    one on the longer dependence chain; [a] on a tie.  A firing's
    producer is its consumed tokens' producers folded with [deeper] from
    [-1] in port order, and a deferred I-structure read completed by a
    store takes [deeper reader store]. *)
val deeper : t -> int -> int -> int

(** [fire t ~node ~ctx ~cycle ~pe ~pred] logs one firing and returns its
    log index; its chain depth is its producer's plus one. *)
val fire :
  t -> node:int -> ctx:Context.t -> cycle:int -> pe:int -> pred:int -> int

(** One cycle's end-of-cycle samples. *)
val sample : t -> fired:int -> in_flight:int -> matching:int -> unit

(** [rollback t n] forgets every firing from log index [n] on: a
    recovery epoch restores the log with the machine.  The per-cycle
    samples stay, because time does not rewind. *)
val rollback : t -> int -> unit

(** {1 Reading} *)

(** Firings logged. *)
val length : t -> int

(** The columns of firing [i], [0 <= i < length t]. *)
val node : t -> int -> int
val ctx : t -> int -> Context.t
val cycle : t -> int -> int
val pe : t -> int -> int
val pred : t -> int -> int

(** Per cycle: firings started, tokens travelling between operators at
    its end, occupied waiting-matching entries at its end. *)
val parallelism_curve : t -> int array
val in_flight_curve : t -> int array
val matching_curve : t -> int array

(** Firings on the longest dependence chain actually executed: the
    cycle count under {!Config.ideal}, independent of latency
    otherwise. *)
val critical_path : t -> int

(** The chain ending at the first firing of greatest depth, source
    first, as (node, context). *)
val critical_chain : t -> (int * Context.t) list

(** Firings per iteration context, outermost-first order. *)
val per_context : t -> (Context.t * int) list

(** Per cycle up to the last firing's, the number of distinct iteration
    contexts that fired. *)
val overlap : t -> int array

(** Maximum simultaneously-firing distinct contexts: >1 means loop
    iterations genuinely overlapped. *)
val max_context_overlap : t -> int

(** One line per cycle that fired, listing what fired (labels from
    [graph]) with iteration contexts, the cycle's last firing first. *)
val pp_timeline :
  ?max_cycles:int -> graph:Dfg.Graph.t -> Format.formatter -> t -> unit

(** The {!per_context} table. *)
val pp_per_context : Format.formatter -> t -> unit

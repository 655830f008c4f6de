(** Content-addressed, single-flight memoization cache.

    Keys are opaque strings (produced by {!Hash.key}); values are
    whatever the compute function returns.  Three properties matter to
    the service layer:

    - {b Single-flight}: when several domains ask for the same absent
      key concurrently, exactly one runs the compute function; the
      others block on a condition variable and receive the same result.
      This is what makes the hit/miss counters deterministic under
      parallelism — misses always equal the number of distinct keys
      computed, no matter how the scheduler interleaves the domains.
    - {b Failure caching}: a compute function that raises has its
      exception cached and re-raised on every subsequent lookup of that
      key.  Compilation failures are deterministic, so retrying them
      would only re-pay the cost of discovering the same error.
    - {b Bounded in bytes}: each completed entry is sized once, when it
      is inserted, by the [size] function its creator passed to
      {!create} (a cached failure is charged {!failure_bytes}); the
      least-recently-used entries are then evicted (and counted) until
      the resident bytes fit the budget.  An entry larger than the whole
      budget is handed to its callers and evicted at once.  In-flight
      entries are neither counted nor evicted.  Note that an evicted key
      looked up again recomputes — a second miss for the same content —
      so under parallel load a cache whose budget is below the bytes of
      its working set regains a scheduling dependence in its counters.
      Size the budget above the working set's bytes (the {!Dflow.Memo}
      budgets are). *)

type 'a t

type stats = {
  hits : int;  (** lookups answered from the table (incl. waiters) *)
  misses : int;  (** lookups that ran the compute function *)
  evictions : int;  (** completed entries dropped to fit the budget *)
  size : int;  (** entries currently resident *)
  bytes : int;  (** sum of the resident entries' sizes *)
  budget : int;  (** the byte budget [bytes] is held to *)
}

val failure_bytes : int
(** What a cached failure is charged: an exception and its message. *)

val create : budget:int -> size:('a -> int) -> unit -> 'a t
(** [create ~budget ~size ()] holds at most [budget] bytes of completed
    entries, each charged [size v] bytes for its value [v].  [size] runs
    once per insert, outside the cache lock, so it should be a cheap
    count (not a heap traversal). *)

val find_or_compute : 'a t -> key:string -> (unit -> 'a) -> 'a
(** [find_or_compute t ~key f] returns the cached value for [key],
    computing it with [f] (outside the cache lock) on first use.
    Re-raises the cached exception if [f] raised. *)

val stats : 'a t -> stats
val hit_rate : stats -> float
(** [hits / (hits + misses)]; 0 when there were no lookups. *)

val diff : after:stats -> before:stats -> stats
(** Counter delta between two snapshots of the same cache ([size],
    [bytes] and [budget] are taken from [after]). *)

val add : stats -> stats -> stats
(** Pointwise sum — for aggregating the counters of several caches. *)

val reset : 'a t -> unit
(** Drop every entry and zero the counters.  A compute function still
    in flight hands its result to its callers; it is not kept. *)

(** Fixed-size domain pool with deterministic, submission-ordered
    results.

    There is deliberately no work stealing and no reordering: workers
    pull the next task index from a shared atomic counter, write their
    result into a slot owned by that index, and the caller reads the
    slots back in index order.  Scheduling can change *when* a task
    runs, never *where* its result lands — which is why a batch's
    output stream is byte-stable at any [jobs] setting. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

type failure = { f_exn : exn; f_backtrace : Printexc.raw_backtrace }
(** A task failure: the exception plus the backtrace captured at the
    raise site (on the worker domain), so failures crossing the pool
    boundary stay diagnosable. *)

val reraise : failure -> 'a
(** Re-raise [f_exn] with the original [f_backtrace] attached
    ([Printexc.raise_with_backtrace]). *)

val failure_to_string : failure -> string
(** [Printexc.to_string] of the exception, followed by the captured
    backtrace when one was recorded (compiled with [-g] and backtraces
    enabled), for log/error payloads. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> ('b, failure) result array
(** [map ~jobs f items] applies [f] to every item on at most [jobs]
    domains (default {!default_jobs}) and returns per-item results in
    input order.  A task that raises yields [Error] in its own slot and
    never disturbs its neighbours.  [jobs <= 1] runs inline on the
    calling domain — same results, no domains spawned.
    @raise Invalid_argument if [jobs < 1]. *)

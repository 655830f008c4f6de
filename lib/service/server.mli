(** The `df_compile serve` job protocol: line-delimited JSON in,
    line-delimited JSON out.

    Each input line is one job object; each output line is the result
    for exactly one job, tagged with its [id] (defaulting to the job's
    0-based position in the batch) and emitted {b in submission order}
    regardless of how many domains execute the batch.  A malformed line
    or a failing job produces a per-job [{"ok": false, "error": ...}]
    result — the server never crashes on input.

    Operations ([op] field):
    - ["compile"], ["run"], ["simulate"]: one {!Job} each, decoded,
      validated, executed and rendered there; the job fields are the
      CLI flags of the same names ({!Job.decl}).
    - ["selfcheck-combo"]: run the differential oracle's combo matrix
      (optionally one named [combo], optionally [broken]) on [source].
    - ["stats"]: the memoization cache counters.  Answered after the
      rest of the batch completes, so the numbers are deterministic for
      a given batch at any [jobs] setting.

    Compilation, parsing and reference evaluation route through
    {!Dflow.Memo}, so a batch pays for each distinct (source, schema,
    transforms) once no matter how many jobs mention it.

    Per-job results deliberately carry no wall-clock timings and no
    per-job cache status: either would vary with scheduling and break
    the byte-stability guarantee. *)

val spec_of_string : string -> (Dflow.Driver.spec, string) result
(** Schema names as accepted by the CLI ("1", "2p", "2opt",
    "schema3-components", "fig8", ...). *)

val handle_line : int -> string -> Machine.Json.t
(** [handle_line index line] parses and executes one job (any op except
    ["stats"], which it answers with current — not post-batch —
    counters).  Never raises. *)

val request_id : int -> string -> int
(** The [id] a result for [line] at position [index] will carry: the
    line's ["id"] field if it parses to an object with an integer id,
    [index] otherwise.  Used by the socket front end to tag supervisor
    failures ("shard-crash", "deadline", ...) consistently with the
    results the shard itself would have produced.  Never raises. *)

val error_result : int -> string -> Machine.Json.t
(** [{"id": id, "ok": false, "error": msg}] — the per-job failure shape
    shared by the stdin batch path and the socket front end. *)

val oversized_result : int -> bytes:int -> limit:int -> Machine.Json.t
(** The per-job error for a line that blew the [max-line-bytes] budget. *)

val run_batch : ?jobs:int -> ?max_line_bytes:int -> string list -> string list
(** Execute a batch on at most [jobs] domains (default
    {!Service.Pool.default_jobs}); returns one compact JSON line per
    input line, in input order.  A line longer than [max_line_bytes]
    (default {!Service.Framing.default_max_line_bytes}) yields
    {!oversized_result} instead of being parsed.
    @raise Invalid_argument if [jobs < 1]. *)

val serve : ?jobs:int -> ?max_line_bytes:int -> in_channel -> out_channel -> unit
(** Read lines to EOF (via bounded {!Service.Framing.input}, so an
    oversized or unterminated line costs O(max_line_bytes) memory and
    becomes a per-job error), {!run_batch}, write results. *)

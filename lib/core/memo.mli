(** Process-global memoization of the compilation pipeline.

    Three content-addressed, single-flight caches ({!Service.Cache})
    sit under the oracle, the bench harness, and the job server:

    - {b fronts}: program -> {!Driver.front} (typecheck, layout, CFG,
      alias analysis, interval/loop decomposition).  Compiling one
      program under the oracle's 20+ schema combos pays for the front
      end once.
    - {b compiled}: (program, spec, transforms, optimize) ->
      {!Driver.compiled}.  Per-schema translation runs once; every
      subsequent execution of the same combo reuses the graph.
    - {b reference}: (program, fuel) -> the reference interpreter's
      final store.  Every combo of a program compares against the same
      store; evaluating it per combo was pure waste.

    Keys are {!Service.Hash} digests of the raw content ([Marshal]ed
    AST for programs, raw text for sources — whitespace or comment
    edits deliberately produce distinct keys; see {!Service.Hash}).
    Exceptions ([Irreducible], [Aliasing_unsupported], typecheck
    errors, reference out-of-fuel) are cached and re-raised, so callers
    observe exactly the uncached behaviour.  Graphs are immutable, so
    a shared result needs no care: stripping the certificate
    ([--no-certify], the bench sweeps) makes a copy. *)

val front : ?split_irreducible:bool -> Imp.Ast.program -> Driver.front
(** Memoized {!Driver.front}. *)

val parse_source : string -> Imp.Ast.program
(** Memoized parse, keyed by the raw source text.  Raises whatever the
    parser raises on syntax errors (cached, like every failure). *)

val front_of_source : ?split_irreducible:bool -> string -> Driver.front
(** Parse (raw-text key) then memoized front. *)

val compile :
  ?transforms:Driver.transforms ->
  ?optimize:bool ->
  ?split_irreducible:bool ->
  Driver.spec ->
  Imp.Ast.program ->
  Driver.compiled
(** Memoized {!Driver.compile}; with [optimize] the
    simplify+optimize passes are folded into the cached artifact. *)

val compile_source :
  ?transforms:Driver.transforms ->
  ?optimize:bool ->
  ?split_irreducible:bool ->
  Driver.spec ->
  string ->
  Driver.compiled
(** [compile] from source text (raw-text front key). *)

val reference : ?fuel:int -> Imp.Ast.program -> Imp.Memory.t
(** Memoized reference-interpreter run ([fuel] defaults to 1_000_000,
    the oracle's budget).  Returns a private copy of the cached store —
    callers may mutate their copy freely.
    @raise Imp.Eval.Out_of_fuel as the uncached evaluator would. *)

val stats : unit -> Service.Cache.stats
(** Aggregated counters across the three caches. *)

val reset : unit -> unit
(** Drop all cached artifacts and zero the counters (tests). *)

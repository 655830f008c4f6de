(** Process-global memoization of the compilation pipeline.

    Four content-addressed, single-flight caches ({!Service.Cache}), the
    {e levels}, sit under the oracle, the bench harness, and the job
    server:

    - {b parses}: source text -> AST and the AST's content identity.
      Repeated serve jobs on one source skip the parser, and the
      identity keys the source's other levels without marshalling the
      AST again.
    - {b fronts}: program -> {!Driver.front} (typecheck, layout, CFG,
      alias analysis, interval/loop decomposition).  Compiling one
      program under the oracle's 20+ schema combos pays for the front
      end once.
    - {b graphs}: (program, spec, transforms, optimize) ->
      {!Driver.compiled}.  Per-schema translation runs once, and so
      does {!Dfg.Check.check}: a graph is checked when it enters the
      level, and every later lookup shares the verdict.
    - {b references}: (program, fuel) -> the reference interpreter's
      final store.  Every combo of a program compares against the same
      store; evaluating it per combo was pure waste.

    Keys are {!Service.Hash} digests of the raw content (raw text for
    sources, the [Marshal]ed AST for programs — whitespace or comment
    edits deliberately produce distinct keys; see {!Service.Hash}).
    Exceptions ([Irreducible], [Aliasing_unsupported], typecheck
    errors, [Dfg.Check.Invalid], reference out-of-fuel) are cached and
    re-raised, so callers observe exactly the uncached behaviour.
    Graphs are immutable, so a shared result needs no care: stripping
    the certificate ([--no-certify], the bench sweeps) makes a copy.

    {2 Budgets}

    Each level is bounded in bytes, not entries.  An entry is charged
    once, when it is inserted, by one of the size functions below, and
    the least-recently-used entries are evicted until the level fits
    its budget:

    - parses 2 MiB, fronts 4 MiB, graphs 24 MiB, references 2 MiB;
      32 MiB per process in all.

    Each budget is at least twice the largest working set of an in-repo
    client, measured with these size functions (EXPERIMENTS E31):
    - [bench/main.exe]'s whole matrix, one process: graphs 10.1 MiB
      (265 entries), fronts 0.83 MiB, parses 0.09 MiB, references
      0.11 MiB — the largest;
    - the perfbench run-warm working set (16 sources, 64 graphs):
      graphs 5.0 MiB, fronts 0.32 MiB, parses 0.07 MiB, references
      0.02 MiB;
    - the oracle grid: one program's combos at a time, 17 graphs of
      about 0.2 MB each, four programs at [--jobs 4];
      [selfcheck --seed 42 --count 50] counts the same 600 graph hits
      and 850 misses at any jobs setting as with no bound;
    - a serve batch (the test and bench batches): under 1 MiB.
    Only a stream of distinct programs, such as a compile-cold server's,
    evicts: a cached compile-cold compile charges about 0.5 MB, so the
    graphs level keeps the last 50 or so. *)

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
    simplify+optimize passes are folded into the cached artifact.
    @raise Dfg.Check.Invalid if the graph is ill-formed. *)

val compile_source :
  ?transforms:Driver.transforms ->
  ?optimize:bool ->
  ?split_irreducible:bool ->
  Driver.spec ->
  string ->
  Driver.compiled
(** [compile] from source text (raw-text parse key; the other keys
    come from the parse entry's identity). *)

val reference : ?fuel:int -> Imp.Ast.program -> Imp.Memory.t
(** Memoized reference-interpreter run ([fuel] defaults to 1_000_000,
    the oracle's budget).  Returns a private copy of the cached store —
    callers may mutate their copy freely.
    @raise Imp.Eval.Out_of_fuel as the uncached evaluator would. *)

val reference_source : ?fuel:int -> string -> Imp.Memory.t
(** [reference] from source text, keyed like {!compile_source}. *)

(** {2 Entry sizes}

    What each level charges an entry, in bytes: a count the owning
    module already has times the words one unit was measured to hold.
    test_service holds each within a factor of 2 of
    [Obj.reachable_words], so a change of representation cannot void the
    budgets silently. *)

val program_bytes : Imp.Ast.program -> int
(** A parse entry: 4 words per AST node ({!Imp.Ast.program_size}). *)

val front_bytes : Driver.front -> int
(** A front: its AST, 16 words per node and edge of each CFG, the
    loops' body sets, and the alias matrix. *)

val compiled_bytes : Driver.compiled -> int
(** A graph entry: 21 words per graph node and arc. *)

val store_bytes : Imp.Memory.t -> int
(** A reference store: its cells and the layout's name tables. *)

(** {2 Counters} *)

val levels : unit -> (string * Service.Cache.stats) list
(** Each level's counters, resident bytes and budget: [parses],
    [fronts], [graphs], [references], in that order. *)

val stats : unit -> Service.Cache.stats
(** The levels' counters summed. *)

val reset : unit -> unit
(** Drop all cached artifacts and zero the counters (tests). *)

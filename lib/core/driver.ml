(** One-call compilation pipeline: IMP program -> dataflow graph.

    Handles lowering, CFG construction, loop-control insertion, alias
    structure and cover selection, and schema dispatch.  The result also
    carries the memory layout the graph was compiled against, which is
    everything the machine needs to execute it. *)

type cover_choice =
  | Singleton  (** maximal parallelism *)
  | Classes  (** the alias-class cover *)
  | Components  (** minimal synchronisation *)

type spec =
  | Schema1  (** single access token; sequential statements *)
  | Schema2 of Engine.loop_control
      (** per-variable tokens; requires an alias-free program *)
  | Schema2_unsafe_no_loop_control
      (** Schema 2 without loop control: reproduces the Figure 8
          pathology on cyclic programs; for experiments only *)
  | Schema3 of cover_choice * Engine.loop_control
      (** per-cover-element tokens; sound under aliasing *)
  | Schema3_unsafe_bad_cover
      (** Schema 3 over the singleton cover with every access set
          truncated to its first element: an aliased program's stores
          proceed without the permission of the other elements they
          conflict with.  The store ordering the cover was meant to
          enforce is silently gone — only the per-run certificate
          notices.  For experiments only. *)
  | Schema2_opt of Engine.loop_control
      (** Section 4's direct construction without redundant switches *)

let spec_to_string = function
  | Schema1 -> "schema1"
  | Schema2 Engine.Barrier -> "schema2"
  | Schema2 Engine.Pipelined -> "schema2-pipelined"
  | Schema2_unsafe_no_loop_control -> "schema2-no-loop-control"
  | Schema3_unsafe_bad_cover -> "schema3-bad-cover"
  | Schema3 (cover, lc) ->
      Fmt.str "schema3-%s%s"
        (match cover with
        | Singleton -> "singleton"
        | Classes -> "classes"
        | Components -> "components")
        (match lc with Engine.Barrier -> "" | Engine.Pipelined -> "-pipelined")
  | Schema2_opt Engine.Barrier -> "schema2-opt"
  | Schema2_opt Engine.Pipelined -> "schema2-opt-pipelined"

exception Aliasing_unsupported of string
(** Raised when Schema 2 is requested for a program whose alias structure
    relates distinct names (Section 3 assumes aliasing away). *)

(** Section 6 transformations, applied where the eligibility analyses of
    {!Transforms} prove them sound.  Support matrix: [parallel_reads]
    composes with every schema; [value_passing] with Schemas 2 and 2-opt;
    [array_parallel] and [istructure] with Schema 2 (the
    track-everything engine). *)
type transforms = {
  value_passing : bool;  (** Section 6.1: scalars ride their tokens *)
  parallel_reads : bool;  (** Section 6.2: read runs execute in parallel *)
  array_parallel : bool;  (** Section 6.3 / Figure 14: overlapped stores *)
  istructure : bool;  (** Section 6.3: write-once arrays in I-structures *)
}

let no_transforms =
  {
    value_passing = false;
    parallel_reads = false;
    array_parallel = false;
    istructure = false;
  }

let all_transforms =
  {
    value_passing = true;
    parallel_reads = true;
    array_parallel = true;
    istructure = false;
    (* I-structures stay opt-in: legal IMP programs may read cells that
       are never written (initially zero), which would defer forever *)
  }

type compiled = {
  graph : Dfg.Graph.t;
  layout : Imp.Layout.t;
  cfg : Cfg.Core.t;  (** the translated CFG (loopified when applicable) *)
  spec : spec;
  ltree : (int * int option) list;
      (** loop-nesting forest [(loop id, parent)] matching the graph's
          gateway ids; [] when the program has no loops or the
          decomposition was unavailable *)
}

(** The schema-independent front end: everything the pipeline computes
    before schema dispatch, bundled so a cache (or a client compiling
    the same program under several schemas) pays for it once.  The loop
    decomposition is eagerly attempted and its outcome captured — not a
    [Lazy.t], which is unsafe to force from several domains — so a
    shared front never raises on construction and Schema 1 still
    accepts irreducible graphs. *)
type front = {
  f_program : Imp.Ast.program;
  f_layout : Imp.Layout.t;
  f_cfg : Cfg.Core.t;  (** as built (node-split if requested) *)
  f_vars : string list;  (** flattened-program token universe *)
  f_alias : Analysis.Alias.t;
  f_loops : (Cfg.Loopify.t, exn) result;
      (** interval/loop decomposition, or the [Irreducible] it raised *)
}

(** [cover_of choice alias] materialises the chosen cover. *)
let cover_of (choice : cover_choice) (alias : Analysis.Alias.t) :
    Analysis.Cover.t =
  match choice with
  | Singleton -> Analysis.Cover.singleton alias
  | Classes -> Analysis.Cover.classes alias
  | Components -> Analysis.Cover.components alias

(* The fractional-permission certificate: the token-universe names plus,
   per memory operation, the TRUE access set of its variable.  Crucially
   this is recomputed from the token map (hence from the alias/cover
   analysis), never read off the graph's own token wiring — a graph whose
   wiring under-collects cannot vouch for itself. *)
let make_cert (tokens : Token_map.t) (g : Dfg.Graph.t) : Dfg.Graph.cert =
  let require = Array.make (Dfg.Graph.num_nodes g) [] in
  for n = 0 to Dfg.Graph.num_nodes g - 1 do
    match Dfg.Graph.kind g n with
    | Dfg.Node.Load { var; _ } | Dfg.Node.Store { var; _ } ->
        require.(n) <- tokens.Token_map.access_set var
    | _ -> ()
  done;
  {
    Dfg.Graph.cert_elements = Array.copy tokens.Token_map.names;
    cert_require = require;
  }

(* Attach the certificate to a freshly translated graph.  [None] (leave
   the graph uncertified) when the translation used value passing,
   Figure 14 array overlap or I-structures: those transforms retire or
   copy access tokens outside the circulation discipline the certificate
   accounts for. *)
let certify (tokens : Token_map.t) (c : compiled) : compiled =
  { c with graph = { c.graph with Dfg.Graph.cert = Some (make_cert tokens c.graph) } }

(** [front ?split_irreducible p] runs the schema-independent stages:
    typecheck, layout, CFG construction (optionally node-split until
    reducible), flattened-variable collection, alias analysis, and the
    interval/loop decomposition.
    @raise Imp.Typecheck.Error on ill-typed programs. *)
let front ?(split_irreducible = false) (p : Imp.Ast.program) : front =
  Imp.Typecheck.check_program p;
  let layout = Imp.Layout.of_program p in
  let g = Cfg.Builder.of_program p in
  (* The paper's footnote-5 recourse for irreducible graphs: copy code
     until interval analysis succeeds. *)
  let g =
    if split_irreducible && not (Cfg.Intervals.reducible g) then
      Cfg.Split.make_reducible g
    else g
  in
  (* token universes must cover the flattened program's variables
     (procedure locals, case-lowering temporaries) *)
  let vars = Imp.Flat.vars (Imp.Flat.flatten p) in
  let alias = Analysis.Alias.of_program p in
  let loops = try Ok (Cfg.Loopify.transform g) with e -> Error e in
  {
    f_program = p;
    f_layout = layout;
    f_cfg = g;
    f_vars = vars;
    f_alias = alias;
    f_loops = loops;
  }

(** [compile_front ?transforms fr spec] dispatches a front end to a
    schema.  Exceptions as for {!compile}. *)
let compile_front ?(transforms = no_transforms) (fr : front) (spec : spec) :
    compiled =
  let p = fr.f_program in
  let layout = fr.f_layout in
  let g = fr.f_cfg in
  let vars = fr.f_vars in
  let alias = fr.f_alias in
  let loopify () =
    match fr.f_loops with Ok lp -> lp | Error e -> raise e
  in
  (* the loop-nesting forest rides on every compiled graph so placement
     can cluster at loop granularity without re-running the front end *)
  let ltree =
    match fr.f_loops with
    | Ok lp ->
        Array.to_list
          (Array.map
             (fun (li : Cfg.Loopify.loop_info) ->
               (li.Cfg.Loopify.id, li.Cfg.Loopify.parent))
             lp.Cfg.Loopify.loops)
    | Error _ -> []
  in
  let check_no_alias () =
    if Analysis.Alias.has_aliasing alias then
      raise
        (Aliasing_unsupported
           "Schema 2 assumes alias-free programs; use Schema 3")
  in
  let base_mode =
    {
      Statement.default_mode with
      Statement.parallel_reads = transforms.parallel_reads;
    }
  in
  let value_vars_of lp =
    if transforms.value_passing then
      let eligible = Transforms.value_eligible p in
      (* async/I-structure arrays are never value variables (they are
         arrays); no conflict possible *)
      ignore lp;
      eligible
    else []
  in
  match spec with
  | Schema1 ->
      certify Token_map.single
        { graph = Engine.schema1 ~mode:base_mode g; layout; cfg = g; spec; ltree }
  | Schema2_unsafe_no_loop_control ->
      check_no_alias ();
      (* the certificate is attached to the broken translation too: the
         requirement metadata is true even when the wiring is not, which
         is exactly what lets the checker catch the Figure 8 pathology *)
      certify
        (Token_map.per_variable vars)
        {
          graph =
            Engine.translate ~mode:base_mode
              ~tokens:(Token_map.per_variable vars) g;
          layout;
          cfg = g;
          spec;
          ltree;
        }
  | Schema2 lc ->
      check_no_alias ();
      let lp = loopify () in
      let value_vars = value_vars_of lp in
      let async_arrays =
        if transforms.array_parallel then Transforms.async_candidates p lp
        else []
      in
      let istructs =
        if transforms.istructure then Transforms.istructure_candidates p lp
        else []
      in
      (* an array handled by I-structures needs no Figure 14 machinery *)
      let async_arrays =
        List.filter (fun (_, x) -> not (List.mem x istructs)) async_arrays
      in
      let mode =
        {
          base_mode with
          Statement.value_vars = (fun x -> List.mem x value_vars);
          Statement.istructure = (fun x -> List.mem x istructs);
        }
      in
      let tokens = Token_map.per_variable vars in
      let value_tokens =
        List.map
          (fun x -> (List.hd (tokens.Token_map.access_set x), x))
          value_vars
      in
      let c =
        {
          graph =
            Engine.translate ~loop_control:lc ~mode ~value_tokens ~async_arrays
              ~tokens ~loops:lp lp.Cfg.Loopify.graph;
          layout;
          cfg = lp.Cfg.Loopify.graph;
          spec;
          ltree;
        }
      in
      (* certified only when no token leaves the circulation discipline:
         no value passing, no Figure 14 overlap, no I-structures
         (effective lists, not requested flags) *)
      if value_tokens = [] && async_arrays = [] && istructs = [] then
        certify tokens c
      else c
  | Schema3 (choice, lc) ->
      let lp = loopify () in
      let cover = cover_of choice alias in
      certify
        (Token_map.of_cover alias cover)
        {
          graph =
            Engine.schema3 ~loop_control:lc ~mode:base_mode lp ~alias ~cover;
          layout;
          cfg = lp.Cfg.Loopify.graph;
          spec;
          ltree;
        }
  | Schema3_unsafe_bad_cover ->
      let lp = loopify () in
      let cover = cover_of Singleton alias in
      let tokens = Token_map.of_cover alias cover in
      (* the seeded miscompilation: wire every memory operation to collect
         only the FIRST element of its access set.  Alias-free programs
         are unaffected (singleton access sets); on aliased programs the
         store ordering between related names silently disappears.  The
         certificate is built from the untruncated map. *)
      let bad =
        {
          tokens with
          Token_map.access_set =
            (fun x -> [ List.hd (tokens.Token_map.access_set x) ]);
        }
      in
      certify tokens
        {
          graph =
            Engine.translate ~loop_control:Engine.Barrier ~mode:base_mode
              ~tokens:bad ~loops:lp lp.Cfg.Loopify.graph;
          layout;
          cfg = lp.Cfg.Loopify.graph;
          spec;
          ltree;
        }
  | Schema2_opt lc ->
      check_no_alias ();
      let lp = loopify () in
      let value_vars = value_vars_of lp in
      let c =
        {
          graph =
            Optimized.translate ~loop_control:lc ~mode:base_mode ~value_vars lp
              ~vars;
          layout;
          cfg = lp.Cfg.Loopify.graph;
          spec;
          ltree;
        }
      in
      if value_vars = [] then certify (Token_map.per_variable vars) c else c

(** [compile ?transforms ?split_irreducible spec p] compiles program [p]
    under [spec]: {!front} then {!compile_front}.
    @raise Aliasing_unsupported for Schema 2 on aliased programs.
    @raise Cfg.Intervals.Irreducible on irreducible control flow under
    Schemas 2/3 unless [split_irreducible] is set (Schema 1 accepts any
    CFG); with [split_irreducible], node splitting (code copying,
    {!Cfg.Split}) makes the graph reducible first. *)
let compile ?transforms ?split_irreducible (spec : spec)
    (p : Imp.Ast.program) : compiled =
  compile_front ?transforms (front ?split_irreducible p) spec

(** [compile_string ?transforms spec src] parses and compiles. *)
let compile_string ?transforms ?split_irreducible (spec : spec) (src : string)
    : compiled =
  compile ?transforms ?split_irreducible spec
    (Imp.Parser.program_of_string src)

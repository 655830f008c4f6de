(* Process-global pipeline memoization (see the interface). *)

(* --- entry sizes -------------------------------------------------------- *)

(* Each level charges an entry a count its owning module already has,
   times the words one unit of it was measured to hold
   (Obj.reachable_words over compile-cold programs; test_service holds
   every estimate within a factor of 2 of the real size).  A heap
   traversal would be exact but costs a fifth of a cold compile. *)

let bytes_of_words w = w * (Sys.word_size / 8)

(* an AST node is 3.6-4.2 words; the parse entry adds its identity *)
let program_bytes (p : Imp.Ast.program) : int =
  bytes_of_words ((4 * Imp.Ast.program_size p) + 16)

let cfg_words (g : Cfg.Core.t) =
  16 * (Cfg.Core.num_nodes g + Cfg.Core.num_edges g)

(* the AST, the CFG, the loopified CFG with its per-loop body sets, and
   the alias relation (a bool matrix over the flattened variables) *)
let front_bytes (fr : Driver.front) : int =
  let loops =
    match fr.Driver.f_loops with
    | Ok l ->
        let g = l.Cfg.Loopify.graph in
        cfg_words g
        + (Array.length l.Cfg.Loopify.loops * (Cfg.Core.num_nodes g + 1))
    | Error _ -> 0
  in
  let v = Analysis.Alias.num_vars fr.Driver.f_alias in
  bytes_of_words
    ((4 * Imp.Ast.program_size fr.Driver.f_program)
    + cfg_words fr.Driver.f_cfg + loops + (v * (v + 4)))

(* 19-23 words per node plus arc: the graph's nodes, arcs, port lists
   and certificate, and the translated CFG beside it *)
let compiled_bytes (c : Driver.compiled) : int =
  let g = c.Driver.graph in
  bytes_of_words (21 * (Dfg.Graph.num_nodes g + Dfg.Graph.num_arcs g))

(* the cells, and the layout's name tables *)
let store_bytes (m : Imp.Memory.t) : int =
  bytes_of_words
    (Array.length m.Imp.Memory.cells
    + (16 * Array.length m.Imp.Memory.layout.Imp.Layout.vars)
    + 32)

(* --- levels ------------------------------------------------------------- *)

(* Budgets sit above the working set of every in-repo client (see the
   interface for the figures): eviction between lookups of the same key
   would both waste work and make the hit/miss counters
   scheduling-dependent, so it only bounds a stream of distinct
   programs. *)

let mib n = n * 1024 * 1024

(* A parsed source with its AST's content identity, so a known source's
   other levels are keyed without marshalling the AST again. *)
type parsed = { program : Imp.Ast.program; id : string }

let parses : parsed Service.Cache.t =
  Service.Cache.create ~budget:(mib 2)
    ~size:(fun s -> program_bytes s.program)
    ()

let fronts : Driver.front Service.Cache.t =
  Service.Cache.create ~budget:(mib 4) ~size:front_bytes ()

let graphs : Driver.compiled Service.Cache.t =
  Service.Cache.create ~budget:(mib 24) ~size:compiled_bytes ()

let refs : Imp.Memory.t Service.Cache.t =
  Service.Cache.create ~budget:(mib 2) ~size:store_bytes ()

(* The AST's content identity: a digest of a structural serialization.
   Marshal is deterministic for a given structure, and a miss from
   unequal sharing costs one recompile while a textual canonicalisation
   would cost a pretty-print plus the roundtrip assumption. *)
let identity (p : Imp.Ast.program) : string =
  Service.Hash.key [ "ast"; Marshal.to_string p [] ]

let transforms_material (t : Driver.transforms) : string =
  Printf.sprintf "v%br%ba%bi%b" t.Driver.value_passing
    t.Driver.parallel_reads t.Driver.array_parallel t.Driver.istructure

let parsed_source (src : string) : parsed =
  let key = Service.Hash.key [ "src"; src ] in
  Service.Cache.find_or_compute parses ~key (fun () ->
      let program = Imp.Parser.program_of_string src in
      { program; id = identity program })

let parse_source (src : string) : Imp.Ast.program = (parsed_source src).program

let front_of ~id ~split_irreducible (p : Imp.Ast.program) : Driver.front =
  let key =
    Service.Hash.key [ "front"; id; string_of_bool split_irreducible ]
  in
  Service.Cache.find_or_compute fronts ~key (fun () ->
      Driver.front ~split_irreducible p)

let front ?(split_irreducible = false) (p : Imp.Ast.program) : Driver.front =
  front_of ~id:(identity p) ~split_irreducible p

let front_of_source ?(split_irreducible = false) (src : string) :
    Driver.front =
  let s = parsed_source src in
  front_of ~id:s.id ~split_irreducible s.program

let compile_of ~id ~transforms ~optimize ~split_irreducible
    (spec : Driver.spec) (p : Imp.Ast.program) : Driver.compiled =
  let key =
    Service.Hash.key
      [
        "compiled";
        id;
        Driver.spec_to_string spec;
        transforms_material transforms;
        string_of_bool optimize;
        string_of_bool split_irreducible;
      ]
  in
  Service.Cache.find_or_compute graphs ~key (fun () ->
      let fr = front_of ~id ~split_irreducible p in
      let c = Driver.compile_front ~transforms fr spec in
      let c =
        if optimize then
          { c with Driver.graph = Dfg.Opt.run (Dfg.Simplify.run c.Driver.graph) }
        else c
      in
      (* checked once, on the way in: a hit shares the verdict *)
      Dfg.Check.check c.Driver.graph;
      c)

let compile ?(transforms = Driver.no_transforms) ?(optimize = false)
    ?(split_irreducible = false) (spec : Driver.spec) (p : Imp.Ast.program) :
    Driver.compiled =
  compile_of ~id:(identity p) ~transforms ~optimize ~split_irreducible spec p

let compile_source ?(transforms = Driver.no_transforms) ?(optimize = false)
    ?(split_irreducible = false) (spec : Driver.spec) (src : string) :
    Driver.compiled =
  let s = parsed_source src in
  compile_of ~id:s.id ~transforms ~optimize ~split_irreducible spec s.program

let reference_of ~id ~fuel (p : Imp.Ast.program) : Imp.Memory.t =
  let key = Service.Hash.key [ "reference"; id; string_of_int fuel ] in
  let m =
    Service.Cache.find_or_compute refs ~key (fun () ->
        Imp.Eval.run_program ~fuel p)
  in
  Imp.Memory.copy m

let reference ?(fuel = 1_000_000) (p : Imp.Ast.program) : Imp.Memory.t =
  reference_of ~id:(identity p) ~fuel p

let reference_source ?(fuel = 1_000_000) (src : string) : Imp.Memory.t =
  let s = parsed_source src in
  reference_of ~id:s.id ~fuel s.program

let levels () : (string * Service.Cache.stats) list =
  [
    ("parses", Service.Cache.stats parses);
    ("fronts", Service.Cache.stats fronts);
    ("graphs", Service.Cache.stats graphs);
    ("references", Service.Cache.stats refs);
  ]

let stats () : Service.Cache.stats =
  match List.map snd (levels ()) with
  | s :: rest -> List.fold_left Service.Cache.add s rest
  | [] -> assert false

let reset () =
  Service.Cache.reset parses;
  Service.Cache.reset fronts;
  Service.Cache.reset graphs;
  Service.Cache.reset refs

(* Process-global pipeline memoization (see the interface).

   Capacities are sized above the working set of every in-repo client
   (oracle matrix, bench grid, serve batches): eviction churn between
   lookups of the same key would both waste work and make the hit/miss
   counters scheduling-dependent, so we only want it as a backstop
   against unbounded shrink-loop populations. *)

let fronts : Driver.front Service.Cache.t =
  Service.Cache.create ~capacity:1024 ()

let graphs : Driver.compiled Service.Cache.t =
  Service.Cache.create ~capacity:2048 ()

let refs : Imp.Memory.t Service.Cache.t =
  Service.Cache.create ~capacity:1024 ()

(* Parsed programs keyed by raw source text, so repeated serve jobs on
   the same source skip the parser too.  Shares the fronts cache's
   counters conceptually but needs its own value type. *)
let parses : Imp.Ast.program Service.Cache.t =
  Service.Cache.create ~capacity:1024 ()

(* The AST's content identity: a structural serialization.  Marshal is
   deterministic for a given structure, and a miss from unequal sharing
   costs one recompile while a textual canonicalisation would cost a
   pretty-print plus the roundtrip assumption. *)
let program_material (p : Imp.Ast.program) : string = Marshal.to_string p []

let transforms_material (t : Driver.transforms) : string =
  Printf.sprintf "v%br%ba%bi%b" t.Driver.value_passing
    t.Driver.parallel_reads t.Driver.array_parallel t.Driver.istructure

(* [material] is [program_material p], which a compile miss already
   holds. *)
let front_of_material ~material ~split_irreducible (p : Imp.Ast.program) :
    Driver.front =
  let key =
    Service.Hash.key [ "front"; material; string_of_bool split_irreducible ]
  in
  Service.Cache.find_or_compute fronts ~key (fun () ->
      Driver.front ~split_irreducible p)

let front ?(split_irreducible = false) (p : Imp.Ast.program) : Driver.front =
  front_of_material ~material:(program_material p) ~split_irreducible p

let parse_source (src : string) : Imp.Ast.program =
  let key = Service.Hash.key [ "src"; src ] in
  Service.Cache.find_or_compute parses ~key (fun () ->
      Imp.Parser.program_of_string src)

let front_of_source ?split_irreducible (src : string) : Driver.front =
  front ?split_irreducible (parse_source src)

let compile ?(transforms = Driver.no_transforms) ?(optimize = false)
    ?(split_irreducible = false) (spec : Driver.spec) (p : Imp.Ast.program) :
    Driver.compiled =
  let material = program_material p in
  let key =
    Service.Hash.key
      [
        "compiled";
        material;
        Driver.spec_to_string spec;
        transforms_material transforms;
        string_of_bool optimize;
        string_of_bool split_irreducible;
      ]
  in
  Service.Cache.find_or_compute graphs ~key (fun () ->
      let fr = front_of_material ~material ~split_irreducible p in
      let c = Driver.compile_front ~transforms fr spec in
      if optimize then
        { c with Driver.graph = Dfg.Opt.run (Dfg.Simplify.run c.Driver.graph) }
      else c)

let compile_source ?transforms ?optimize ?split_irreducible
    (spec : Driver.spec) (src : string) : Driver.compiled =
  compile ?transforms ?optimize ?split_irreducible spec (parse_source src)

let reference ?(fuel = 1_000_000) (p : Imp.Ast.program) : Imp.Memory.t =
  let key =
    Service.Hash.key [ "reference"; program_material p; string_of_int fuel ]
  in
  let m =
    Service.Cache.find_or_compute refs ~key (fun () ->
        Imp.Eval.run_program ~fuel p)
  in
  Imp.Memory.copy m

let stats () : Service.Cache.stats =
  Service.Cache.add
    (Service.Cache.add (Service.Cache.stats fronts) (Service.Cache.stats graphs))
    (Service.Cache.add (Service.Cache.stats refs) (Service.Cache.stats parses))

let reset () =
  Service.Cache.reset fronts;
  Service.Cache.reset graphs;
  Service.Cache.reset refs;
  Service.Cache.reset parses

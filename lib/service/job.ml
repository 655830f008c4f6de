(* One job model for the CLI and serve (see the interface). *)

module J = Machine.Json

type op = Compile | Run | Simulate

type t = {
  op : op;
  source : string;
  schema : Dflow.Driver.spec;
  transforms : Dflow.Driver.transforms;
  optimize : bool;
  pes : int option;
  mem_latency : int;
  engine : Machine.Config.engine;
  fault_seed : int option;
  fault_rate : float;
  fault_classes : Machine.Fault.classes;
  recover : bool;
  placement : Machine.Placement.policy;
  net : Sched.Topology.kind;
  steal : bool;
  net_latency : int;
  net_bandwidth : int;
  net_queue : int;
  modules : int option;
  certify : bool;
}

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

(* --- declarations ------------------------------------------------------ *)

type decl = {
  name : string;
  short : string list;
  docv : string;
  doc : string;
  default : string;
}

let options =
  let d ?(short = []) ?(docv = "") name default doc =
    let doc =
      if docv = "" || default = "" then doc
      else Printf.sprintf "%s Default: %s." doc default
    in
    { name; short; docv; doc; default }
  in
  let net = Machine.Network.default in
  [
    d "schema" ~short:[ "s" ] ~docv:"SCHEMA" "2opt"
      "Translation schema: 1, 2, 2p, 2opt, 2optp, 3, 3s, 3c, fig8 (schema 2 \
       without loop control), or 3bad (schema 3 with truncated access sets).";
    d "transforms" ~short:[ "t" ] ~docv:"LIST" ""
      "Section 6 transformations: any of value, reads, arrays, istructures, \
       or all (every one but istructures), comma separated.";
    d "optimize" ~short:[ "O" ] "false"
      "Run the graph-level optimizer (constant folding, CSE, dead-node \
       elimination) and the Id-splicing simplifier on the dataflow graph.";
    d "pes" ~short:[ "p" ] ~docv:"N" ""
      "Number of processing elements, at least 1 (default: unbounded; 4 \
       for simulate).";
    d "mem-latency" ~docv:"CYCLES" "4"
      "Split-phase memory latency in cycles, at least 1.";
    d "engine" ~docv:"ENGINE" "reference"
      "Execution core: $(b,reference) (event-driven interpreter) or \
       $(b,packed) (compiled flat-array engine).  Both give the same store \
       and cycle count; only the wall-clock time differs.";
    d "fault-seed" ~docv:"SEED" ""
      "Inject a fault plan derived from SEED at token delivery and memory \
       issue; the diagnosis reports every injection.";
    d "fault-rate" ~docv:"P" "0.01"
      "Per-event fault injection probability within [0, 1] (with \
       --fault-seed).";
    d "fault-classes" ~docv:"LIST" "all"
      "Fault classes to draw from: any of drop, dup, flip, delay, stall, \
       reorder, or all (comma separated).";
    d "recover" "false"
      "Enable checkpoint/replay recovery: epoch snapshots, plus — with \
       --fault-seed — one seeded PE fail-stop whose nodes are remapped over \
       the survivors and replayed.";
    d "placement" ~docv:"POLICY" "affinity"
      "Node-to-PE placement: hash, rr, affinity, or hier (loop-region \
       sub-grids refined by affinity clusters).";
    d "net" ~docv:"TOPOLOGY" "uniform"
      "Interconnect topology: $(b,uniform) (single hop, the default), \
       $(b,mesh), $(b,torus) or $(b,cube); messages pay the pipelined cost \
       net-latency + hops - 1 under dimension-ordered routing.";
    d "steal" "false"
      "Work stealing of ready firings with affinity hysteresis \
       (deterministic; the final store is unchanged).";
    d "net-latency" ~docv:"CYCLES"
      (string_of_int net.Machine.Network.latency)
      "Interconnect injection latency in cycles, at least 0 (each extra hop \
       adds one cycle).";
    d "net-bandwidth" ~docv:"MSGS"
      (string_of_int net.Machine.Network.bandwidth)
      "Messages each PE may inject per cycle, at least 1.";
    d "net-queue" ~docv:"N"
      (string_of_int (Option.get net.Machine.Network.queue_capacity))
      "Injection queue capacity per PE, at least 0 (enqueues beyond it count \
       as backpressure).";
    d "modules" ~docv:"N" ""
      "Interleaved memory modules, at least 1 (default: one per PE).";
    d "no-certify" "false"
      "Run without the fractional-permission certificate: no per-run \
       translation validation, and certificate violations cannot fail it.";
  ]

let decl name = List.find (fun d -> d.name = name) options

(* --- decoding ------------------------------------------------------------ *)

type value = Text of string | Json of J.t

let scalar what of_text of_json name = function
  | Text s -> (
      match of_text s with
      | Some x -> x
      | None -> invalid "--%s must be %s (got %S)" name what s)
  | Json v -> (
      match of_json v with Some x -> x | None -> invalid "--%s must be %s" name what)

let text = scalar "a string" Option.some J.to_string_opt
let int = scalar "an integer" int_of_string_opt J.to_int_opt
let float = scalar "a number" float_of_string_opt J.to_float_opt
let switch = scalar "a boolean" (fun s -> Some (s = "true")) J.to_bool_opt

let named of_string name v =
  match of_string (text name v) with
  | Ok x -> x
  | Error e -> invalid "--%s: %s" name e

let schemas =
  let open Dflow.Driver in
  let b = Dflow.Engine.Barrier and p = Dflow.Engine.Pipelined in
  [
    ([ "1"; "schema1" ], Schema1);
    ([ "2"; "schema2" ], Schema2 b);
    ([ "2p"; "schema2-pipelined" ], Schema2 p);
    ([ "2opt"; "schema2-opt" ], Schema2_opt b);
    ([ "2optp"; "schema2-opt-pipelined" ], Schema2_opt p);
    ([ "3"; "schema3" ], Schema3 (Classes, b));
    ([ "3s"; "schema3-singleton" ], Schema3 (Singleton, b));
    ([ "3c"; "schema3-components" ], Schema3 (Components, b));
    ([ "fig8" ], Schema2_unsafe_no_loop_control);
    ([ "3bad"; "schema3-bad-cover" ], Schema3_unsafe_bad_cover);
  ]

let spec_of_string s =
  match List.find_opt (fun (names, _) -> List.mem s names) schemas with
  | Some (_, spec) -> Ok spec
  | None ->
      Error
        (Printf.sprintf "unknown schema %S (valid: %s)" s
           (String.concat ", " (List.map (fun (n, _) -> List.hd n) schemas)))

let transform acc w =
  let open Dflow.Driver in
  match w with
  | "value" -> { acc with value_passing = true }
  | "reads" -> { acc with parallel_reads = true }
  | "arrays" -> { acc with array_parallel = true }
  | "istructures" -> { acc with istructure = true }
  | "all" ->
      {
        acc with
        value_passing = true;
        parallel_reads = true;
        array_parallel = true;
      }
  | other ->
      invalid
        "--transforms: unknown transform %S (valid: value, reads, arrays, \
         istructures, all)"
        other

(* A comma-separated string at either door, or a JSON list of words. *)
let transforms name v =
  let ws =
    match v with
    | Json (J.List l) -> List.map (fun j -> text name (Json j)) l
    | v -> List.filter (( <> ) "") (String.split_on_char ',' (text name v))
  in
  List.fold_left transform Dflow.Driver.no_transforms ws

let failing of_string name v =
  try of_string (text name v) with Failure e -> invalid "--%s: %s" name e

let validate j =
  let at_least name lo = function
    | Some n when n < lo -> invalid "--%s must be at least %d (got %d)" name lo n
    | _ -> ()
  in
  at_least "pes" 1 j.pes;
  at_least "mem-latency" 1 (Some j.mem_latency);
  if j.fault_rate < 0.0 || j.fault_rate > 1.0 then
    invalid "--fault-rate must be within [0, 1] (got %g)" j.fault_rate;
  at_least "net-latency" 0 (Some j.net_latency);
  at_least "net-bandwidth" 1 (Some j.net_bandwidth);
  at_least "net-queue" 0 (Some j.net_queue);
  at_least "modules" 1 j.modules;
  (* the packed engine is single-PE and has no fault injection: a job
     that asks for either is refused, never run on another engine *)
  if j.engine = Machine.Config.Packed then begin
    if j.op = Simulate then
      invalid "--engine packed has no multiprocessor model; use --engine reference";
    if j.fault_seed <> None then
      invalid "--engine packed has no fault injection; use --engine reference"
  end

let decode op ~source lookup =
  let get name parse =
    parse name (Option.value ~default:(Text (decl name).default) (lookup name))
  in
  let unset parse name = function
    | Text "" -> None
    | v -> Some (parse name v)
  in
  let j =
    {
      op;
      source;
      schema = get "schema" (named spec_of_string);
      transforms = get "transforms" transforms;
      optimize = get "optimize" switch;
      pes = get "pes" (unset int);
      mem_latency = get "mem-latency" int;
      engine = get "engine" (failing Machine.Config.engine_of_string);
      fault_seed = get "fault-seed" (unset int);
      fault_rate = get "fault-rate" float;
      fault_classes = get "fault-classes" (failing Machine.Fault.classes_of_string);
      recover = get "recover" switch;
      placement = get "placement" (named Machine.Placement.policy_of_string);
      net = get "net" (named Sched.Topology.kind_of_string);
      steal = get "steal" switch;
      net_latency = get "net-latency" int;
      net_bandwidth = get "net-bandwidth" int;
      net_queue = get "net-queue" int;
      modules = get "modules" (unset int);
      certify = not (get "no-certify" switch);
    }
  in
  validate j;
  j

let json_lookup req k =
  match J.member k req with None | Some J.Null -> None | Some v -> Some (Json v)

let field parse req name = Option.map (parse name) (json_lookup req name)

let source req =
  match field text req "source" with
  | Some s -> s
  | None -> invalid "missing field \"source\""

let of_json op req = decode op ~source:(source req) (json_lookup req)

let message = function
  | Invalid m -> m
  | Imp.Parser.Error m -> "parse error: " ^ m
  | Imp.Typecheck.Error m -> "type error: " ^ m
  | e -> Printexc.to_string e

(* --- execution ------------------------------------------------------------ *)

let program j = Dflow.Memo.parse_source j.source

let compile j =
  let c =
    Dflow.Memo.compile_source ~transforms:j.transforms ~optimize:j.optimize
      j.schema j.source
  in
  let g = c.Dflow.Driver.graph in
  if j.certify then c
  else { c with Dflow.Driver.graph = { g with Dfg.Graph.cert = None } }

let sim_pes j = Option.value ~default:4 j.pes

let config j =
  {
    Machine.Config.default with
    Machine.Config.pes = (if j.op = Simulate then None else j.pes);
    latencies =
      { Machine.Config.default_latencies with memory = j.mem_latency };
    engine = j.engine;
  }

let topology j =
  match j.net with
  | Sched.Topology.Uniform -> None
  | k -> Some (Sched.Topology.make k ~pes:(sim_pes j))

let prog (c : Dflow.Driver.compiled) =
  { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout }

let faults j =
  Option.map
    (fun seed ->
      Machine.Fault.make
        (Machine.Fault.spec ~seed ~rate:j.fault_rate ~classes:j.fault_classes ()))
    j.fault_seed

let run ?log j =
  let c = compile j in
  ( c,
    Machine.Interp.run_report ~config:(config j) ?faults:(faults j) ?log
      (prog c) )

let simulate ?log j =
  let c = compile j in
  let pes = sim_pes j in
  (* with a fault seed, recovery also kills one seeded PE *)
  let deaths seed = Machine.Recovery.seeded_deaths ~seed ~pes ~window:60 in
  let recovery =
    if not j.recover then None
    else
      Some
        (Machine.Recovery.spec ~deaths:(Option.fold ~none:[] ~some:deaths j.fault_seed) ())
  in
  let net =
    {
      Machine.Network.latency = j.net_latency;
      bandwidth = j.net_bandwidth;
      queue_capacity = Some j.net_queue;
      modules = j.modules;
    }
  in
  let steal = if j.steal then Some Sched.Steal.default else None in
  ( c,
    Machine.Multiproc.run ~config:(config j) ~net ~placement:j.placement
      ~tree:c.Dflow.Driver.ltree ?topo:(topology j) ?steal ?log
      ?faults:(faults j) ?recovery ~pes (prog c) )

let reference j m =
  match Dflow.Memo.reference_source ~fuel:10_000_000 j.source with
  | r -> if Imp.Memory.equal r m then "ok" else "mismatch"
  | exception Imp.Eval.Out_of_fuel -> "out-of-fuel"

(* --- the serve reply -------------------------------------------------------- *)

let certificate_json (d : Machine.Diagnosis.t) =
  match d.Machine.Diagnosis.certified with
  | None -> J.String "none"
  | Some _ ->
      J.String (if d.Machine.Diagnosis.permission = [] then "ok" else "violated")

let checked j (m : Imp.Memory.t) =
  [
    ("reference", J.String (reference j m));
    ( "store",
      J.Assoc
        (List.map
           (fun (name, idx, v) -> (Printf.sprintf "%s[%d]" name idx, J.Int v))
           (Imp.Memory.dump_vars m)) );
  ]

let reply j =
  let schema c =
    ("schema", J.String (Dflow.Driver.spec_to_string c.Dflow.Driver.spec))
  in
  let failed what (d : Machine.Diagnosis.t) =
    Error
      (what ^ " failed: "
      ^ Machine.Diagnosis.verdict_to_string d.Machine.Diagnosis.verdict)
  in
  match j.op with
  | Compile ->
      let c = compile j in
      let s = Dfg.Stats.of_graph c.Dflow.Driver.graph in
      Ok
        [
          schema c;
          ("nodes", J.Int s.Dfg.Stats.nodes);
          ("arcs", J.Int s.Dfg.Stats.arcs);
          ("switches", J.Int s.Dfg.Stats.switches);
          ("merges", J.Int s.Dfg.Stats.merges);
          ("critical_path", J.Int s.Dfg.Stats.critical_path);
          ("certified", J.Bool (c.Dflow.Driver.graph.Dfg.Graph.cert <> None));
        ]
  | Run -> (
      match run j with
      | _, Error d -> failed "execution" d
      | _, Ok r when not r.Machine.Interp.completed ->
          Error "execution did not complete"
      | c, Ok r ->
          Ok
            ([
               schema c;
               ("cycles", J.Int r.Machine.Interp.cycles);
               ("firings", J.Int r.Machine.Interp.firings);
               ("memory_ops", J.Int r.Machine.Interp.memory_ops);
               ("peak_parallelism", J.Int r.Machine.Interp.peak_parallelism);
               ("certificate", certificate_json r.Machine.Interp.diagnosis);
             ]
            @ checked j r.Machine.Interp.memory))
  | Simulate -> (
      match simulate j with
      | _, Error d -> failed "simulation" d
      | _, Ok r when not r.Machine.Multiproc.completed ->
          Error "simulation did not complete"
      | c, Ok r ->
          let recovery =
            match r.Machine.Multiproc.recovery with
            | None -> []
            | Some m ->
                [
                  ("deaths", J.Int m.Machine.Recovery.m_deaths);
                  ("rollbacks", J.Int m.Machine.Recovery.m_rollbacks);
                  ("checkpoints", J.Int m.Machine.Recovery.m_checkpoints);
                ]
          in
          Ok
            ([
               schema c;
               ("pes", J.Int (sim_pes j));
               ( "placement",
                 J.String (Machine.Placement.policy_to_string j.placement) );
               ("cycles", J.Int r.Machine.Multiproc.cycles);
               ("firings", J.Int r.Machine.Multiproc.firings);
               ("net_messages", J.Int r.Machine.Multiproc.net_messages);
               ("local_deliveries", J.Int r.Machine.Multiproc.local_deliveries);
               ("certificate", certificate_json r.Machine.Multiproc.diagnosis);
             ]
            @ recovery @ checked j r.Machine.Multiproc.memory))

(* The line-delimited JSON job server (see the interface). *)

module J = Machine.Json

(* deterministic, user-facing request rejection *)
exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* --- request field access -------------------------------------------- *)

let field j k = J.member k j

let str ?default j k =
  match field j k with
  | None | Some J.Null -> (
      match default with Some d -> d | None -> bad "missing field %S" k)
  | Some v -> (
      match J.to_string_opt v with
      | Some s -> s
      | None -> bad "field %S must be a string" k)

let int ?default j k =
  match field j k with
  | None | Some J.Null -> (
      match default with Some d -> d | None -> bad "missing field %S" k)
  | Some v -> (
      match J.to_int_opt v with
      | Some n -> n
      | None -> bad "field %S must be an integer" k)

let int_opt j k =
  match field j k with
  | None | Some J.Null -> None
  | Some v -> (
      match J.to_int_opt v with
      | Some n -> Some n
      | None -> bad "field %S must be an integer" k)

let fnum ~default j k =
  match field j k with
  | None | Some J.Null -> default
  | Some v -> (
      match J.to_float_opt v with
      | Some f -> f
      | None -> bad "field %S must be a number" k)

let boolean ~default j k =
  match field j k with
  | None | Some J.Null -> default
  | Some v -> (
      match J.to_bool_opt v with
      | Some b -> b
      | None -> bad "field %S must be a boolean" k)

(* --- request decoding ------------------------------------------------- *)

let spec_of_string (s : string) : (Dflow.Driver.spec, string) result =
  match s with
  | "1" | "schema1" -> Ok Dflow.Driver.Schema1
  | "2" | "schema2" -> Ok (Dflow.Driver.Schema2 Dflow.Engine.Barrier)
  | "2p" | "schema2-pipelined" ->
      Ok (Dflow.Driver.Schema2 Dflow.Engine.Pipelined)
  | "2opt" | "schema2-opt" -> Ok (Dflow.Driver.Schema2_opt Dflow.Engine.Barrier)
  | "2optp" | "schema2-opt-pipelined" ->
      Ok (Dflow.Driver.Schema2_opt Dflow.Engine.Pipelined)
  | "3" | "schema3" ->
      Ok (Dflow.Driver.Schema3 (Dflow.Driver.Classes, Dflow.Engine.Barrier))
  | "3s" | "schema3-singleton" ->
      Ok (Dflow.Driver.Schema3 (Dflow.Driver.Singleton, Dflow.Engine.Barrier))
  | "3c" | "schema3-components" ->
      Ok (Dflow.Driver.Schema3 (Dflow.Driver.Components, Dflow.Engine.Barrier))
  | "fig8" -> Ok Dflow.Driver.Schema2_unsafe_no_loop_control
  | "3bad" | "schema3-bad-cover" -> Ok Dflow.Driver.Schema3_unsafe_bad_cover
  | _ -> Error (Fmt.str "unknown schema %S" s)

let spec_field j =
  let s = str ~default:"2opt" j "schema" in
  match spec_of_string s with Ok v -> v | Error e -> bad "%s" e

let transforms_field j : Dflow.Driver.transforms =
  match field j "transforms" with
  | None | Some J.Null -> Dflow.Driver.no_transforms
  | Some (J.String "all") -> Dflow.Driver.all_transforms
  | Some v -> (
      match J.to_list_opt v with
      | None -> bad "field \"transforms\" must be a list of strings"
      | Some l ->
          List.fold_left
            (fun acc item ->
              match J.to_string_opt item with
              | Some "value" -> { acc with Dflow.Driver.value_passing = true }
              | Some "reads" -> { acc with Dflow.Driver.parallel_reads = true }
              | Some "arrays" -> { acc with Dflow.Driver.array_parallel = true }
              | Some "istructures" -> { acc with Dflow.Driver.istructure = true }
              | Some other -> bad "unknown transform %S" other
              | None -> bad "field \"transforms\" must be a list of strings")
            Dflow.Driver.no_transforms l)

let engine_field j : Machine.Config.engine =
  let s = str ~default:"reference" j "engine" in
  try Machine.Config.engine_of_string s with Failure m -> bad "%s" m

let compiled_of j : Dflow.Driver.compiled =
  let source = str j "source" in
  let spec = spec_field j in
  let transforms = transforms_field j in
  let optimize = boolean ~default:false j "optimize" in
  let c = Dflow.Memo.compile_source ~transforms ~optimize spec source in
  Dfg.Check.check c.Dflow.Driver.graph;
  c

let config_of j =
  {
    Machine.Config.default with
    Machine.Config.pes = int_opt j "pes";
    latencies =
      {
        Machine.Config.default_latencies with
        memory = int ~default:4 j "mem-latency";
      };
    engine = engine_field j;
  }

(* --- result encoding -------------------------------------------------- *)

let store_json (m : Imp.Memory.t) : J.t =
  J.Assoc
    (List.map
       (fun (name, idx, v) -> (Printf.sprintf "%s[%d]" name idx, J.Int v))
       (Imp.Memory.dump_vars m))

let certificate_json (d : Machine.Diagnosis.t) : J.t =
  match d.Machine.Diagnosis.certified with
  | None -> J.String "none"
  | Some _ ->
      if d.Machine.Diagnosis.permission = [] then J.String "ok"
      else J.String "violated"

(* The same ground truth `run -v` prints: re-evaluate (memoized) on the
   reference interpreter and compare stores. *)
let reference_json (p : Imp.Ast.program) (m : Imp.Memory.t) : J.t =
  match Dflow.Memo.reference ~fuel:10_000_000 p with
  | exception Imp.Eval.Out_of_fuel -> J.String "out-of-fuel"
  | reference ->
      if Imp.Memory.equal reference m then J.String "ok"
      else J.String "mismatch"

let ok_result id op fields : J.t =
  J.Assoc
    (("id", J.Int id) :: ("op", J.String op) :: ("ok", J.Bool true) :: fields)

let error_result id msg : J.t =
  J.Assoc [ ("id", J.Int id); ("ok", J.Bool false); ("error", J.String msg) ]

(* --- operations ------------------------------------------------------- *)

let op_compile id j =
  let c = compiled_of j in
  let s = Dfg.Stats.of_graph c.Dflow.Driver.graph in
  ok_result id "compile"
    [
      ("schema", J.String (Dflow.Driver.spec_to_string c.Dflow.Driver.spec));
      ("nodes", J.Int s.Dfg.Stats.nodes);
      ("arcs", J.Int s.Dfg.Stats.arcs);
      ("switches", J.Int s.Dfg.Stats.switches);
      ("merges", J.Int s.Dfg.Stats.merges);
      ("critical_path", J.Int s.Dfg.Stats.critical_path);
      ("certified", J.Bool (c.Dflow.Driver.graph.Dfg.Graph.cert <> None));
    ]

let fault_plan_of j =
  match int_opt j "fault-seed" with
  | None -> None
  | Some seed ->
      let classes =
        try Machine.Fault.classes_of_string (str ~default:"all" j "fault-classes")
        with Failure m -> bad "%s" m
      in
      Some
        (Machine.Fault.make
           (Machine.Fault.spec ~seed
              ~rate:(fnum ~default:0.01 j "fault-rate")
              ~classes ()))

(* Fault injection and the multiprocessor run only on the reference
   machine: a packed job that asks for them is refused, never run on
   another engine than the one it names. *)
let refuse_packed (config : Machine.Config.t) what =
  if config.Machine.Config.engine = Machine.Config.Packed then
    bad "engine \"packed\" has no %s; use engine \"reference\"" what

let op_run id j =
  let c = compiled_of j in
  let config = config_of j in
  let faults = fault_plan_of j in
  if Option.is_some faults then refuse_packed config "fault injection";
  let prog =
    { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout }
  in
  match Machine.Interp.run_report ~config ?faults prog with
  | Error d ->
      error_result id
        ("execution failed: "
        ^ Machine.Diagnosis.verdict_to_string d.Machine.Diagnosis.verdict)
  | Ok r ->
      if not r.Machine.Interp.completed then
        error_result id "execution did not complete"
      else
        ok_result id "run"
          [
            ("schema", J.String (Dflow.Driver.spec_to_string c.Dflow.Driver.spec));
            ("cycles", J.Int r.Machine.Interp.cycles);
            ("firings", J.Int r.Machine.Interp.firings);
            ("memory_ops", J.Int r.Machine.Interp.memory_ops);
            ("peak_parallelism", J.Int r.Machine.Interp.peak_parallelism);
            ("certificate", certificate_json r.Machine.Interp.diagnosis);
            ( "reference",
              reference_json
                (Dflow.Memo.parse_source (str j "source"))
                r.Machine.Interp.memory );
            ("store", store_json r.Machine.Interp.memory);
          ]

let op_simulate id j =
  let config = config_of j in
  refuse_packed config "multiprocessor model";
  let c = compiled_of j in
  let pes = int ~default:4 j "pes" in
  if pes < 1 then bad "field \"pes\" must be at least 1 (got %d)" pes;
  let placement =
    let s = str ~default:"affinity" j "placement" in
    match Machine.Placement.policy_of_string s with
    | Ok p -> p
    | Error e -> bad "%s" e
  in
  let net =
    {
      Machine.Network.default with
      Machine.Network.latency = int ~default:Machine.Network.default.Machine.Network.latency j "net-latency";
    }
  in
  let faults = fault_plan_of j in
  let recovery =
    if not (boolean ~default:false j "recover") then None
    else
      let deaths =
        match int_opt j "fault-seed" with
        | Some seed -> Machine.Recovery.seeded_deaths ~seed ~pes ~window:60
        | None -> []
      in
      Some (Machine.Recovery.spec ~deaths ())
  in
  match
    Machine.Multiproc.run ~config ~net ~placement ?faults ?recovery ~pes
      { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout }
  with
  | Error d ->
      error_result id
        ("simulation failed: "
        ^ Machine.Diagnosis.verdict_to_string d.Machine.Diagnosis.verdict)
  | Ok r ->
      if not r.Machine.Multiproc.completed then
        error_result id "simulation did not complete"
      else
        let recovery_fields =
          match r.Machine.Multiproc.recovery with
          | None -> []
          | Some m ->
              [
                ("deaths", J.Int m.Machine.Recovery.m_deaths);
                ("rollbacks", J.Int m.Machine.Recovery.m_rollbacks);
                ("checkpoints", J.Int m.Machine.Recovery.m_checkpoints);
              ]
        in
        ok_result id "simulate"
          ([
             ("schema", J.String (Dflow.Driver.spec_to_string c.Dflow.Driver.spec));
             ("pes", J.Int pes);
             ("placement", J.String (Machine.Placement.policy_to_string placement));
             ("cycles", J.Int r.Machine.Multiproc.cycles);
             ("firings", J.Int r.Machine.Multiproc.firings);
             ("net_messages", J.Int r.Machine.Multiproc.net_messages);
             ("local_deliveries", J.Int r.Machine.Multiproc.local_deliveries);
             ("certificate", certificate_json r.Machine.Multiproc.diagnosis);
           ]
          @ recovery_fields
          @ [
              ( "reference",
                reference_json
                  (Dflow.Memo.parse_source (str j "source"))
                  r.Machine.Multiproc.memory );
              ("store", store_json r.Machine.Multiproc.memory);
            ])

let op_selfcheck_combo id j =
  let source = str j "source" in
  let broken = boolean ~default:false j "broken" in
  let p = Dflow.Memo.parse_source source in
  let combos = Dflow.Oracle.combos_for ~include_broken:broken p in
  let combos =
    match field j "combo" with
    | None | Some J.Null -> combos
    | Some v -> (
        match J.to_string_opt v with
        | None -> bad "field \"combo\" must be a string"
        | Some name -> (
            match
              List.filter (fun c -> c.Dflow.Oracle.c_name = name) combos
            with
            | [] -> bad "no combo named %S for this program" name
            | cs -> cs))
  in
  let failures = ref 0 in
  let results =
    List.map
      (fun c ->
        let status, reason =
          match Dflow.Oracle.run_combo c p with
          | Dflow.Oracle.Agree -> ("agree", None)
          | Dflow.Oracle.Skip m -> ("skip", Some m)
          | Dflow.Oracle.Fail m ->
              if not c.Dflow.Oracle.c_broken then incr failures;
              ("fail", Some m)
        in
        J.Assoc
          ([
             ("combo", J.String c.Dflow.Oracle.c_name);
             ("status", J.String status);
           ]
          @ match reason with None -> [] | Some m -> [ ("reason", J.String m) ]))
      combos
  in
  ok_result id "selfcheck-combo"
    [
      ("combos", J.Int (List.length combos));
      ("divergences", J.Int !failures);
      ("results", J.List results);
    ]

let stats_result id : J.t =
  let s = Dflow.Memo.stats () in
  ok_result id "stats"
    [
      ("hits", J.Int s.Service.Cache.hits);
      ("misses", J.Int s.Service.Cache.misses);
      ("evictions", J.Int s.Service.Cache.evictions);
      ("hit_rate", J.Float (Service.Cache.hit_rate s));
    ]

(* --- dispatch --------------------------------------------------------- *)

let id_of index j =
  match J.member "id" j with
  | Some v -> ( match J.to_int_opt v with Some n -> n | None -> index)
  | None -> index

let dispatch index (j : J.t) : J.t =
  let id = id_of index j in
  try
    match str j "op" with
    | "compile" -> op_compile id j
    | "run" -> op_run id j
    | "simulate" -> op_simulate id j
    | "selfcheck-combo" -> op_selfcheck_combo id j
    | "stats" -> stats_result id
    | other ->
        error_result id
          (Printf.sprintf
             "unknown op %S (valid: compile, run, simulate, selfcheck-combo, \
              stats)"
             other)
  with
  | Bad m -> error_result id m
  | e -> error_result id (Printexc.to_string e)

let request_id (index : int) (line : string) : int =
  match J.of_string line with
  | exception J.Parse_error _ -> index
  | J.Assoc _ as j -> id_of index j
  | _ -> index

let oversized_result index ~bytes ~limit : J.t =
  error_result index
    (Printf.sprintf "line too long: %d bytes (limit %d, see --max-line-bytes)"
       bytes limit)

let handle_line (index : int) (line : string) : J.t =
  match J.of_string line with
  | exception J.Parse_error m ->
      error_result index (Printf.sprintf "malformed request: %s" m)
  | J.Assoc _ as j -> dispatch index j
  | _ -> error_result index "request must be a JSON object"

(* A parsed batch entry.  [stats] jobs are answered after every other
   job has completed: with the single-flight cache the counters are then
   a pure function of the batch content, so the whole output stream
   stays byte-identical at any jobs setting. *)
type entry =
  | Immediate of J.t  (** malformed / non-object: already an error *)
  | Stats of int  (** resolved post-batch *)
  | Job of J.t

let classify index line : entry =
  match J.of_string line with
  | exception J.Parse_error m ->
      Immediate (error_result index (Printf.sprintf "malformed request: %s" m))
  | J.Assoc _ as j -> (
      match J.member "op" j with
      | Some (J.String "stats") -> Stats (id_of index j)
      | _ -> Job j)
  | _ -> Immediate (error_result index "request must be a JSON object")

let run_batch ?jobs ?(max_line_bytes = Service.Framing.default_max_line_bytes)
    (lines : string list) : string list =
  let classify index line =
    if String.length line > max_line_bytes then
      Immediate
        (oversized_result index ~bytes:(String.length line)
           ~limit:max_line_bytes)
    else classify index line
  in
  let entries = Array.of_list (List.mapi classify lines) in
  let results =
    Service.Pool.map ?jobs
      (fun (index, entry) ->
        match entry with
        | Job j -> dispatch index j
        | Immediate r -> r
        | Stats _ -> J.Null (* placeholder; filled in below *))
      (Array.mapi (fun i e -> (i, e)) entries)
  in
  (* dispatch never raises, so Error here would be a pool bug; surface
     it as a per-job error all the same *)
  let results =
    Array.mapi
      (fun i r ->
        match (entries.(i), r) with
        | Stats id, _ -> stats_result id
        | _, Ok v -> v
        | _, Error f -> error_result i (Service.Pool.failure_to_string f))
      results
  in
  Array.to_list (Array.map J.to_string results)

let serve ?jobs ?(max_line_bytes = Service.Framing.default_max_line_bytes)
    (ic : in_channel) (oc : out_channel) : unit =
  (* an oversized line's payload was discarded at read time (memory
     stays bounded); it rides through the batch as an empty placeholder
     and its result line is substituted on the way out *)
  let rec read acc =
    match Service.Framing.input ~max_bytes:max_line_bytes ic with
    | Service.Framing.Eof -> List.rev acc
    | Service.Framing.Line l -> read (`Line l :: acc)
    | Service.Framing.Truncated bytes -> read (`Oversized bytes :: acc)
  in
  let items = read [] in
  let lines =
    List.map (function `Line l -> l | `Oversized _ -> "") items
  in
  let results = run_batch ?jobs ~max_line_bytes lines in
  List.iteri
    (fun i (item, result) ->
      let l =
        match item with
        | `Line _ -> result
        | `Oversized bytes ->
            J.to_string (oversized_result i ~bytes ~limit:max_line_bytes)
      in
      output_string oc l;
      output_char oc '\n')
    (List.combine items results);
  flush oc

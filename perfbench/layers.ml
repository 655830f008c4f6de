(* The traced replay's view of a job: the same calls Serve.Server
   makes for the "compile" and "run" ops, issued one layer at a time
   with a span around each call.  The program itself is not
   instrumented.

   The Memo is reproduced, not bypassed, level by level as
   Dflow.Memo keeps it: the parsed source and its front end per source,
   the graph per (source, schema, optimize), the reference store per
   source.  A level that an earlier job of the replay filled is
   answered by Dflow.Memo, timed as a "memo hit"; a level met for the
   first time runs its layers, and when a later job has the same
   source the job's artifacts are put in the Memo after its clock
   stops, as the program's Memo would hold them. *)

module J = Machine.Json

let span = Trace.span

type state = {
  seen : (string, unit) Hashtbl.t;  (** keys the replay's Memo holds *)
  remaining : (string, int) Hashtbl.t;
      (** jobs on each source still ahead in the replay *)
  mutable compiles : int;
  mutable nodes_translated : int;
  mutable nodes_final : int;
  mutable packed_firings : int;
  mutable interp_firings : int;
  mutable deferred : (unit -> unit) list;
      (** Memo insertions the replay runs after the job's clock stops *)
}

let source_key src = "src\000" ^ src

let compile_key src schema optimize =
  String.concat "\000" [ src; schema; string_of_bool optimize ]

let ref_key src = "ref\000" ^ src

let field j k = J.member k j

let str j k =
  match Option.bind (field j k) J.to_string_opt with
  | Some s -> s
  | None -> invalid_arg ("job without " ^ k)

let boolean j k =
  Option.value ~default:false (Option.bind (field j k) J.to_bool_opt)

let spec_of s =
  match Serve.Server.spec_of_string s with
  | Ok v -> v
  | Error e -> invalid_arg e

let create lines =
  let remaining = Hashtbl.create 256 in
  Array.iter
    (fun l ->
      match J.of_string l with
      | exception J.Parse_error _ -> ()
      | j ->
          let k = str j "source" in
          Hashtbl.replace remaining k
            (1 + Option.value ~default:0 (Hashtbl.find_opt remaining k)))
    lines;
  {
    seen = Hashtbl.create 256;
    remaining;
    compiles = 0;
    nodes_translated = 0;
    nodes_final = 0;
    packed_firings = 0;
    interp_firings = 0;
    deferred = [];
  }

(* Consume this job's occurrence of [src]; true if a later job has it. *)
let source_later st src =
  let n = Option.value ~default:1 (Hashtbl.find_opt st.remaining src) - 1 in
  Hashtbl.replace st.remaining src n;
  n > 0

let defer st f = st.deferred <- f :: st.deferred

let nodes = Dfg.Graph.num_nodes

(* Driver.front, one layer at a time. *)
let front_layers src =
  let p = span "imp.parse" (fun () -> Imp.Parser.program_of_string src) in
  let layout, vars =
    span "imp.typecheck" (fun () ->
        Imp.Typecheck.check_program p;
        (Imp.Layout.of_program p, Imp.Flat.vars (Imp.Flat.flatten p)))
  in
  let cfg = span "cfg.build" (fun () -> Cfg.Builder.of_program p) in
  let alias = span "analysis.alias" (fun () -> Analysis.Alias.of_program p) in
  let loops =
    span "cfg.loopify" (fun () ->
        try Ok (Cfg.Loopify.transform cfg) with e -> Error e)
  in
  {
    Dflow.Driver.f_program = p;
    f_layout = layout;
    f_cfg = cfg;
    f_vars = vars;
    f_alias = alias;
    f_loops = loops;
  }

(* The schema dispatch and the optional simplify+opt Memo.compile folds
   in. *)
let translate st ~spec ~optimize front =
  let c = span "dflow.translate" (fun () -> Dflow.Driver.compile_front front spec) in
  let translated = c.Dflow.Driver.graph in
  let g =
    if optimize then
      let g = span "dfg.simplify" (fun () -> Dfg.Simplify.run translated) in
      span "dfg.opt" (fun () -> Dfg.Opt.run g)
    else translated
  in
  if !Trace.recording then begin
    st.compiles <- st.compiles + 1;
    st.nodes_translated <- st.nodes_translated + nodes translated;
    st.nodes_final <- st.nodes_final + nodes g
  end;
  { c with Dflow.Driver.graph = g }

(* Memo.compile_source: the graph from the Memo when an earlier job
   produced it; else the front end from the Memo when an earlier job
   had the source, and the layers for the rest.  Also returns the
   parsed program, when this job had it in hand. *)
let compiled st ~schema ~optimize ~later src =
  let spec = spec_of schema in
  let key = compile_key src schema optimize in
  if Hashtbl.mem st.seen key then
    ( None,
      span "dflow.memo_hit" (fun () ->
          Dflow.Memo.compile_source ~optimize spec src) )
  else begin
    let front =
      if Hashtbl.mem st.seen (source_key src) then
        span "dflow.memo_hit" (fun () -> Dflow.Memo.front_of_source src)
      else front_layers src
    in
    let c = translate st ~spec ~optimize front in
    if later then begin
      Hashtbl.replace st.seen (source_key src) ();
      Hashtbl.replace st.seen key ();
      defer st (fun () -> ignore (Dflow.Memo.compile_source ~optimize spec src))
    end;
    (Some front.Dflow.Driver.f_program, c)
  end

(* Memo.reference on the Memo's parse of the source: the reference
   interpreter the first time, the Memo after. *)
let reference st ~fuel ~later p_opt src =
  if Hashtbl.mem st.seen (ref_key src) then
    span "dflow.memo_hit" (fun () ->
        Dflow.Memo.reference ~fuel (Dflow.Memo.parse_source src))
  else begin
    let p =
      match p_opt with
      | Some p -> p
      | None -> span "dflow.memo_hit" (fun () -> Dflow.Memo.parse_source src)
    in
    let m = span "imp.eval" (fun () -> Imp.Eval.run_program ~fuel p) in
    if later then begin
      Hashtbl.replace st.seen (ref_key src) ();
      defer st (fun () ->
          ignore (Dflow.Memo.reference ~fuel (Dflow.Memo.parse_source src)))
    end;
    m
  end

let certificate (d : Machine.Diagnosis.t) =
  match d.Machine.Diagnosis.certified with
  | None -> "none"
  | Some _ -> if d.Machine.Diagnosis.permission = [] then "ok" else "violated"

let store_json m =
  J.Assoc
    (List.map
       (fun (name, idx, v) -> (Printf.sprintf "%s[%d]" name idx, J.Int v))
       (Imp.Memory.dump_vars m))

let ok_result id op fields =
  J.Assoc (("id", J.Int id) :: ("op", J.String op) :: ("ok", J.Bool true) :: fields)

let op_compile st id j =
  let src = str j "source" in
  let _, c =
    compiled st ~schema:(str j "schema") ~optimize:(boolean j "optimize")
      ~later:(source_later st src) src
  in
  let g = c.Dflow.Driver.graph in
  span "dfg.check" (fun () -> Dfg.Check.check g);
  let s = span "dfg.stats" (fun () -> Dfg.Stats.of_graph g) in
  ok_result id "compile"
    [
      ("schema", J.String (Dflow.Driver.spec_to_string c.Dflow.Driver.spec));
      ("nodes", J.Int s.Dfg.Stats.nodes);
      ("arcs", J.Int s.Dfg.Stats.arcs);
      ("switches", J.Int s.Dfg.Stats.switches);
      ("merges", J.Int s.Dfg.Stats.merges);
      ("critical_path", J.Int s.Dfg.Stats.critical_path);
      ("certified", J.Bool (g.Dfg.Graph.cert <> None));
    ]

(* The service's run config: unbounded PEs, memory latency 4. *)
let run_config engine =
  { Machine.Config.default with Machine.Config.engine = Machine.Config.engine_of_string engine }

let op_run st id j =
  let src = str j "source" in
  let schema = str j "schema" in
  let engine = Option.value ~default:"reference" (Option.bind (field j "engine") J.to_string_opt) in
  let later = source_later st src in
  let p_opt, c = compiled st ~schema ~optimize:false ~later src in
  let g = c.Dflow.Driver.graph and layout = c.Dflow.Driver.layout in
  span "dfg.check" (fun () -> Dfg.Check.check g);
  let config = run_config engine in
  let memory, cycles, firings, completed, diagnosis =
    match config.Machine.Config.engine with
    | Machine.Config.Packed -> (
        let code = span "machine.packed_lower" (fun () -> Machine.Packed.compile_graph g) in
        match
          span "machine.packed_run" (fun () ->
              Machine.Packed.run_report ~config ~layout code)
        with
        | Error _ -> invalid_arg "packed execution failed"
        | Ok r ->
            if !Trace.recording then
              st.packed_firings <- st.packed_firings + r.Machine.Packed.firings;
            ( r.Machine.Packed.memory, r.Machine.Packed.cycles,
              r.Machine.Packed.firings, r.Machine.Packed.completed,
              r.Machine.Packed.diagnosis ))
    | Machine.Config.Reference -> (
        match
          span "machine.interp_run" (fun () ->
              Machine.Interp.run_report ~config { Machine.Interp.graph = g; layout })
        with
        | Error _ -> invalid_arg "reference execution failed"
        | Ok r ->
            if !Trace.recording then
              st.interp_firings <- st.interp_firings + r.Machine.Interp.firings;
            ( r.Machine.Interp.memory, r.Machine.Interp.cycles,
              r.Machine.Interp.firings, r.Machine.Interp.completed,
              r.Machine.Interp.diagnosis ))
  in
  if not completed then invalid_arg "execution did not complete";
  let reference = reference st ~fuel:10_000_000 ~later p_opt src in
  ok_result id "run"
    [
      ("schema", J.String (Dflow.Driver.spec_to_string c.Dflow.Driver.spec));
      ("cycles", J.Int cycles);
      ("firings", J.Int firings);
      ("certificate", J.String (certificate diagnosis));
      ( "reference",
        J.String (if Imp.Memory.equal reference memory then "ok" else "mismatch") );
      ("store", store_json memory);
    ]

(** One protocol line, layer by layer; the encoded reply. *)
let handle st index line =
  let j = span "machine.json_decode" (fun () -> J.of_string line) in
  let id = Option.value ~default:index (Option.bind (field j "id") J.to_int_opt) in
  let reply =
    match str j "op" with
    | "compile" -> op_compile st id j
    | "run" -> op_run st id j
    | op -> invalid_arg ("the replay has no op " ^ op)
  in
  span "machine.json_encode" (fun () -> J.to_string reply)

(** Run the deferred Memo insertions (outside any timing). *)
let flush st =
  List.iter (fun f -> f ()) (List.rev st.deferred);
  st.deferred <- []

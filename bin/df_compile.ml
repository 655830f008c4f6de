(* df_compile: command-line front end to the control-flow -> dataflow
   translation pipeline.

   Subcommands:
     run      compile a program and execute it on the dataflow machine
     dot      emit DOT renderings of the CFG / loopified CFG / DFG / PDG
     analyze  print the analyses: loops, alias classes, switch placement
     compare  execute every schema and tabulate the metrics *)

open Cmdliner

(* --- shared argument parsing ---------------------------------------- *)

let read_program path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  Imp.Parser.program_of_string src

(* schema names are shared with the serve protocol's "schema" field *)
let spec_of_string = Serve.Server.spec_of_string

let schema_conv : Dflow.Driver.spec Arg.conv =
  let parse s = match spec_of_string s with Ok v -> `Ok v | Error e -> `Error e in
  ( (fun s -> parse s),
    fun ppf spec -> Fmt.string ppf (Dflow.Driver.spec_to_string spec) )

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"IMP source file")

let schema_arg =
  Arg.(
    value
    & opt schema_conv (Dflow.Driver.Schema2_opt Dflow.Engine.Barrier)
    & info [ "s"; "schema" ] ~docv:"SCHEMA"
        ~doc:
          "Translation schema: 1, 2, 2p, 2opt, 2optp, 3, 3s, 3c, fig8 \
           (schema 2 without loop control), or 3bad (schema 3 with \
           truncated access sets).")

let transforms_arg =
  Arg.(
    value & opt (list string) []
    & info [ "t"; "transforms" ] ~docv:"LIST"
        ~doc:
          "Section 6 transformations: any of value, reads, arrays, \
           istructures (comma separated).")

let transforms_of_list l =
  List.fold_left
    (fun acc s ->
      match s with
      | "value" -> { acc with Dflow.Driver.value_passing = true }
      | "reads" -> { acc with Dflow.Driver.parallel_reads = true }
      | "arrays" -> { acc with Dflow.Driver.array_parallel = true }
      | "istructures" -> { acc with Dflow.Driver.istructure = true }
      | other -> Fmt.failwith "unknown transform %S" other)
    Dflow.Driver.no_transforms l

let pes_arg =
  Arg.(
    value & opt (some int) None
    & info [ "p"; "pes" ] ~docv:"N"
        ~doc:"Number of processing elements (default: unbounded).")

let mem_latency_arg =
  Arg.(
    value & opt int 4
    & info [ "mem-latency" ] ~docv:"CYCLES"
        ~doc:"Split-phase memory latency in cycles.")

let optimize_arg =
  Arg.(
    value & flag
    & info [ "O"; "optimize" ]
        ~doc:
          "Run the graph-level optimizer (constant folding, CSE, dead-node            elimination) and the Id-splicing simplifier on the dataflow            graph.")

let maybe_optimize opt g = if opt then Dfg.Opt.run (Dfg.Simplify.run g) else g

let config_of pes mem_latency =
  {
    Machine.Config.default with
    Machine.Config.pes;
    latencies = { Machine.Config.default_latencies with memory = mem_latency };
  }

let no_certify_arg =
  Arg.(
    value & flag
    & info [ "no-certify" ]
        ~doc:
          "Strip the fractional-permission certificate before executing: \
           no per-run translation validation, no certificate line in the \
           output, and certificate violations cannot fail the run.")

let certificate_line (d : Machine.Diagnosis.t) =
  match d.Machine.Diagnosis.certified with
  | None -> "none (uncertified translation)"
  | Some (elements, checks) ->
      if d.Machine.Diagnosis.permission = [] then
        Fmt.str "ok (%d element%s, %d ownership checks)" elements
          (if elements = 1 then "" else "s")
        checks
      else
        Fmt.str "VIOLATED (%d standing violation%s)"
          (List.length d.Machine.Diagnosis.permission)
          (if List.length d.Machine.Diagnosis.permission = 1 then "" else "s")

(* --- run ------------------------------------------------------------- *)

let fault_seed_arg =
  Arg.(
    value & opt (some int) None
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:
          "Inject a deterministic fault plan derived from SEED at the \
           machine's delivery and memory-issue boundaries; the diagnosis \
           reports every injection.")

let fault_rate_arg =
  Arg.(
    value & opt float 0.01
    & info [ "fault-rate" ] ~docv:"P"
        ~doc:"Per-event fault injection probability (with --fault-seed).")

let fault_classes_arg =
  Arg.(
    value & opt string "all"
    & info [ "fault-classes" ] ~docv:"LIST"
        ~doc:
          "Fault classes to draw from: any of drop, dup, flip, delay, \
           stall, reorder, or all (comma separated).")

let engine_arg =
  Arg.(
    value & opt string "reference"
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Execution core: $(b,reference) (event-driven interpreter) or \
           $(b,packed) (compiled flat-array engine with an explicit token \
           store).  Both produce bit-identical final stores and the same \
           cycle counts; only the wall-clock time differs.")

(** @raise on an unknown name: prints the valid engines and exits 2. *)
let engine_of_flag (s : string) : Machine.Config.engine =
  try Machine.Config.engine_of_string s
  with Failure msg ->
    Fmt.epr "df_compile: %s@." msg;
    exit 2

let run_cmd file schema transforms pes mem_latency verbose trace optimize
    fault_seed fault_rate fault_classes no_certify engine =
  let engine = engine_of_flag engine in
  (* fault injection runs only on the reference machine: with --engine
     packed it is a usage error (exit 2), never a silent switch of
     engine *)
  if engine = Machine.Config.Packed && fault_seed <> None then begin
    Fmt.epr
      "df_compile: --engine packed has no fault injection: --fault-seed \
       needs --engine reference@.";
    exit 2
  end;
  let p = read_program file in
  let transforms = transforms_of_list transforms in
  let compiled = Dflow.Driver.compile ~transforms schema p in
  let graph = maybe_optimize optimize compiled.Dflow.Driver.graph in
  Dfg.Check.check graph;
  if no_certify then Dfg.Graph.set_cert graph None;
  let config = { (config_of pes mem_latency) with Machine.Config.engine } in
  let tracer = Machine.Trace.create () in
  let on_fire = if trace then Some (Machine.Trace.on_fire tracer) else None in
  let faults =
    Option.map
      (fun seed ->
        let classes =
          try Machine.Fault.classes_of_string fault_classes
          with Failure msg ->
            Fmt.epr "df_compile: %s@." msg;
            exit 2
        in
        Machine.Fault.make
          (Machine.Fault.spec ~seed ~rate:fault_rate ~classes ()))
      fault_seed
  in
  let result =
    match
      Machine.Interp.run_report ~config ?faults ?on_fire
        { Machine.Interp.graph = graph; layout = compiled.Dflow.Driver.layout }
    with
    | Ok r -> r
    | Error d ->
        Fmt.epr "execution failed:@.%a@." Machine.Diagnosis.pp d;
        exit 1
  in
  if not (Machine.Diagnosis.is_clean result.Machine.Interp.diagnosis) then
    Fmt.pr "== diagnosis ==@.%a@." Machine.Diagnosis.pp
      result.Machine.Interp.diagnosis;
  if not result.Machine.Interp.completed then begin
    Fmt.epr "dataflow execution did not complete (see diagnosis above)@.";
    exit 1
  end;
  Fmt.pr "== final store ==@.%a@." Imp.Memory.pp result.Machine.Interp.memory;
  Fmt.pr "== execution ==@.";
  Fmt.pr "schema           %s@." (Dflow.Driver.spec_to_string schema);
  Fmt.pr "cycles           %d@." result.Machine.Interp.cycles;
  Fmt.pr "operations       %d@." result.Machine.Interp.firings;
  Fmt.pr "memory ops       %d@." result.Machine.Interp.memory_ops;
  Fmt.pr "avg parallelism  %.2f@." (Machine.Interp.avg_parallelism result);
  Fmt.pr "peak parallelism %d@." result.Machine.Interp.peak_parallelism;
  Fmt.pr "peak matching    %d entries@." result.Machine.Interp.peak_matching;
  Fmt.pr "op breakdown     %a@."
    Fmt.(list ~sep:(any ", ") (pair ~sep:(any ":") string int))
    result.Machine.Interp.firings_by_kind;
  Fmt.pr "certificate      %s@."
    (certificate_line result.Machine.Interp.diagnosis);
  if trace then begin
    Fmt.pr "== timeline (first 60 cycles) ==@.";
    Fmt.pr "%a" (Machine.Trace.pp_timeline ~max_cycles:60) tracer;
    Fmt.pr "== firings per iteration context ==@.";
    Fmt.pr "%a" Machine.Trace.pp_per_context tracer;
    Fmt.pr "max overlapping contexts: %d@."
      (Machine.Trace.max_context_overlap tracer)
  end;
  if verbose then begin
    Fmt.pr "== static graph ==@.%a@." Dfg.Stats.pp (Dfg.Stats.of_graph graph);
    let reference = Imp.Eval.run_program ~fuel:10_000_000 p in
    if Imp.Memory.equal reference result.Machine.Interp.memory then
      Fmt.pr "reference check  ok@."
    else Fmt.pr "reference check  MISMATCH@."
  end

let run_term =
  Term.(
    const run_cmd $ file_arg $ schema_arg $ transforms_arg $ pes_arg
    $ mem_latency_arg
    $ Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print graph statistics and check against the reference interpreter.")
    $ Arg.(value & flag & info [ "trace" ] ~doc:"Print an execution timeline and per-context firing counts.")
    $ optimize_arg $ fault_seed_arg $ fault_rate_arg $ fault_classes_arg
    $ no_certify_arg $ engine_arg)

(* --- profile: critical path, curves, Chrome trace -------------------- *)

let profile_cmd file schema transforms pes mem_latency optimize trace_out
    summary_json limit =
  let p = read_program file in
  let transforms = transforms_of_list transforms in
  let compiled = Dflow.Driver.compile ~transforms schema p in
  let graph = maybe_optimize optimize compiled.Dflow.Driver.graph in
  Dfg.Check.check graph;
  let config = config_of pes mem_latency in
  let tracer = Machine.Trace.create ~limit () in
  let result =
    match
      Machine.Interp.run_report ~config
        ~on_fire:(Machine.Trace.on_fire tracer)
        { Machine.Interp.graph = graph; layout = compiled.Dflow.Driver.layout }
    with
    | Ok r -> r
    | Error d ->
        Fmt.epr "execution failed:@.%a@." Machine.Diagnosis.pp d;
        exit 1
  in
  let profile = Machine.Profile.make ~graph ~trace:tracer result in
  let out =
    match trace_out with
    | Some path -> path
    | None -> Filename.remove_extension (Filename.basename file) ^ ".trace.json"
  in
  let chrome = Machine.Profile.chrome_trace ~config ~graph tracer in
  let oc = open_out out in
  output_string oc (Machine.Json.to_string chrome);
  output_char oc '\n';
  close_out oc;
  if summary_json then
    Fmt.pr "%s" (Machine.Json.to_string_pretty (Machine.Profile.summary_json profile))
  else begin
    Fmt.pr "== profile (%s, %s) ==@." file (Dflow.Driver.spec_to_string schema);
    Fmt.pr "%a" Machine.Profile.pp profile
  end;
  Fmt.epr "chrome trace written to %s (load it in chrome://tracing or \
           ui.perfetto.dev)@." out;
  let reference = Imp.Eval.run_program ~fuel:10_000_000 p in
  if not (Imp.Memory.equal reference result.Machine.Interp.memory) then begin
    Fmt.epr "profile run DIVERGED from the reference interpreter@.";
    exit 1
  end

let profile_term =
  Term.(
    const profile_cmd $ file_arg $ schema_arg $ transforms_arg $ pes_arg
    $ mem_latency_arg $ optimize_arg
    $ Arg.(
        value & opt (some string) None
        & info [ "trace-out" ] ~docv:"PATH"
            ~doc:
              "Where to write the Chrome trace_event JSON (default: \
               <FILE>.trace.json in the current directory).")
    $ Arg.(
        value & flag
        & info [ "json" ]
            ~doc:"Print the profile summary as JSON instead of text.")
    $ Arg.(
        value & opt int 100_000
        & info [ "limit" ] ~docv:"N"
            ~doc:
              "Trace recorder capacity; runs longer than N firings are \
               truncated (and say so)."))

(* --- simulate: the multiprocessor machine ----------------------------- *)

let placement_conv : Machine.Placement.policy Arg.conv =
  ( (fun s ->
      match Machine.Placement.policy_of_string s with
      | Ok p -> `Ok p
      | Error e -> `Error e),
    fun ppf p -> Fmt.string ppf (Machine.Placement.policy_to_string p) )

let simulate_cmd file schema transforms optimize mp_pes placement net_kind
    steal net_latency net_bandwidth net_queue modules mem_latency trace_out
    fault_seed fault_rate fault_classes recover no_certify =
  (* usage errors first, same contract as --engine / --jobs: exit 2 with
     a message naming the flag and the valid values *)
  if mp_pes < 1 then begin
    Fmt.epr "df_compile: --pes must be at least 1 (got %d)@." mp_pes;
    exit 2
  end;
  let topo_kind =
    match Sched.Topology.kind_of_string net_kind with
    | Ok k -> k
    | Error msg ->
        Fmt.epr "df_compile: %s@." msg;
        exit 2
  in
  let p = read_program file in
  let transforms = transforms_of_list transforms in
  let compiled = Dflow.Driver.compile ~transforms schema p in
  let graph = maybe_optimize optimize compiled.Dflow.Driver.graph in
  Dfg.Check.check graph;
  if no_certify then Dfg.Graph.set_cert graph None;
  let config = config_of None mem_latency in
  let faults =
    Option.map
      (fun seed ->
        let classes =
          try Machine.Fault.classes_of_string fault_classes
          with Failure msg ->
            Fmt.epr "df_compile: %s@." msg;
            exit 2
        in
        Machine.Fault.make
          (Machine.Fault.spec ~seed ~rate:fault_rate ~classes ()))
      fault_seed
  in
  let recovery =
    if not recover then None
    else
      let deaths =
        match fault_seed with
        | Some seed ->
            Machine.Recovery.seeded_deaths ~seed ~pes:mp_pes ~window:60
        | None -> []
      in
      Some (Machine.Recovery.spec ~deaths ())
  in
  let net =
    {
      Machine.Network.latency = net_latency;
      bandwidth = net_bandwidth;
      queue_capacity = net_queue;
      modules;
    }
  in
  let events = ref [] in
  let on_fire cycle node ctx ~pe =
    if trace_out <> None then
      events := (cycle, node.Dfg.Node.id, ctx, pe) :: !events
  in
  let topo =
    match topo_kind with
    | Sched.Topology.Uniform -> None
    | k -> Some (Sched.Topology.make k ~pes:mp_pes)
  in
  let steal_spec = if steal then Some Sched.Steal.default else None in
  let tree = compiled.Dflow.Driver.ltree in
  let r =
    match
      Machine.Multiproc.run ~config ~net ~placement ~tree ?topo
        ?steal:steal_spec ~on_fire ?faults ?recovery ~pes:mp_pes
        { Machine.Interp.graph; layout = compiled.Dflow.Driver.layout }
    with
    | Ok r -> r
    | Error d ->
        Fmt.epr "simulation failed:@.%a@." Machine.Diagnosis.pp d;
        exit 1
  in
  if not r.Machine.Multiproc.completed then begin
    Fmt.epr "simulation did not complete:@.%a@." Machine.Diagnosis.pp
      r.Machine.Multiproc.diagnosis;
    exit 1
  end;
  Fmt.pr "== final store ==@.%a@." Imp.Memory.pp r.Machine.Multiproc.memory;
  Fmt.pr "== multiprocessor (%d PEs, %s placement) ==@." mp_pes
    (Machine.Placement.policy_to_string placement);
  Fmt.pr "schema           %s@." (Dflow.Driver.spec_to_string schema);
  Fmt.pr "cycles           %d@." r.Machine.Multiproc.cycles;
  Fmt.pr "operations       %d@." r.Machine.Multiproc.firings;
  Fmt.pr "memory ops       %d (%d local, %d remote)@."
    r.Machine.Multiproc.memory_ops r.Machine.Multiproc.mem_local
    r.Machine.Multiproc.mem_remote;
  Fmt.pr "placement        %a@." Machine.Placement.pp_stats
    r.Machine.Multiproc.placement_stats;
  (match placement with
  | Machine.Placement.Hier ->
      Fmt.pr "hierarchy        %a@." Sched.Hplace.pp_stats
        (Machine.Placement.hier_stats ~tree ?topo ~pes:mp_pes graph)
  | _ -> ());
  (match topo with
  | Some tp ->
      Fmt.pr "topology         %s, %d link hops crossed@."
        (Sched.Topology.describe tp) r.Machine.Multiproc.net_hops
  | None -> ());
  if steal then
    Fmt.pr "stealing         %d ready firings moved@."
      r.Machine.Multiproc.steals;
  Fmt.pr "network          %d messages (%d local deliveries), cut traffic \
          %.1f%%@."
    r.Machine.Multiproc.net_messages r.Machine.Multiproc.local_deliveries
    (100.0 *. r.Machine.Multiproc.cut_traffic);
  Fmt.pr "backpressure     %d stalled enqueues, peak queue %d@."
    r.Machine.Multiproc.backpressure r.Machine.Multiproc.peak_queue;
  Fmt.pr "certificate      %s@."
    (certificate_line r.Machine.Multiproc.diagnosis);
  (match (r.Machine.Multiproc.transport, r.Machine.Multiproc.recovery) with
  | None, None -> ()
  | transport, recovery ->
      Fmt.pr "== fault tolerance ==@.";
      (match transport with
      | None -> ()
      | Some st ->
          Fmt.pr
            "transport        %d sends, %d retransmits, %d dup drops, %d \
             wire faults, %d losses@."
            st.Machine.Network.r_sends st.Machine.Network.r_retransmits
            st.Machine.Network.r_dups_dropped st.Machine.Network.r_wire_faults
            st.Machine.Network.r_losses);
      (match recovery with
      | None -> ()
      | Some m ->
          Fmt.pr
            "recovery         recovered: %d death(s), %d rollback(s), %d \
             checkpoint(s), %d lost cycles, %d replayed firings@."
            m.Machine.Recovery.m_deaths m.Machine.Recovery.m_rollbacks
            m.Machine.Recovery.m_checkpoints m.Machine.Recovery.m_lost_cycles
            m.Machine.Recovery.m_replayed_firings));
  Array.iteri
    (fun pe u ->
      Fmt.pr "pe %-2d            %5d firings, %4.1f%% busy@." pe
        r.Machine.Multiproc.per_pe_firings.(pe)
        (100.0 *. u))
    r.Machine.Multiproc.utilisation;
  (match trace_out with
  | None -> ()
  | Some out ->
      let chrome =
        Machine.Profile.chrome_trace_pes ~config ~graph (List.rev !events)
      in
      let oc = open_out out in
      output_string oc (Machine.Json.to_string chrome);
      output_char oc '\n';
      close_out oc;
      Fmt.epr "chrome trace written to %s (one track per PE; load it in \
               chrome://tracing or ui.perfetto.dev)@." out);
  let reference = Imp.Eval.run_program ~fuel:10_000_000 p in
  if Imp.Memory.equal reference r.Machine.Multiproc.memory then
    Fmt.pr "reference check  ok@."
  else begin
    Fmt.epr "reference check  MISMATCH@.";
    exit 1
  end;
  (* even a run that completed and matched the reference is rejected when
     the sanitizer or the permission certificate reported violations in
     report-only mode: a lucky store is not a certified store *)
  let diag = r.Machine.Multiproc.diagnosis in
  if
    diag.Machine.Diagnosis.sanitizer <> []
    || diag.Machine.Diagnosis.permission <> []
  then begin
    Fmt.epr "== diagnosis ==@.%a@." Machine.Diagnosis.pp diag;
    Fmt.epr
      "simulation rejected: %d sanitizer violation(s), %d permission \
       violation(s) (run with --no-certify to waive certification)@."
      (List.length diag.Machine.Diagnosis.sanitizer)
      (List.length diag.Machine.Diagnosis.permission);
    exit 1
  end

let simulate_term =
  Term.(
    const simulate_cmd $ file_arg $ schema_arg $ transforms_arg $ optimize_arg
    $ Arg.(
        value & opt int 4
        & info [ "p"; "pes" ] ~docv:"N"
            ~doc:"Number of processing elements.")
    $ Arg.(
        value
        & opt placement_conv Machine.Placement.Affinity
        & info [ "placement" ] ~docv:"POLICY"
            ~doc:
              "Node-to-PE placement: hash, rr, affinity, or hier \
               (loop-region sub-grids refined by affinity clusters).")
    $ Arg.(
        value & opt string "uniform"
        & info [ "net" ] ~docv:"TOPOLOGY"
            ~doc:
              "Interconnect topology: $(b,uniform) (single hop, the \
               default), $(b,mesh), $(b,torus) or $(b,cube); messages pay \
               the pipelined cost net-latency + hops - 1 under \
               dimension-ordered routing.")
    $ Arg.(
        value & flag
        & info [ "steal" ]
            ~doc:
              "Work stealing of ready firings with affinity hysteresis \
               (deterministic; the final store is unchanged).")
    $ Arg.(
        value & opt int Machine.Network.default.Machine.Network.latency
        & info [ "net-latency" ] ~docv:"CYCLES"
            ~doc:
              "Interconnect injection latency in cycles (each extra hop \
               adds one cycle).")
    $ Arg.(
        value & opt int Machine.Network.default.Machine.Network.bandwidth
        & info [ "net-bandwidth" ] ~docv:"MSGS"
            ~doc:"Messages each PE may inject per cycle.")
    $ Arg.(
        value
        & opt (some int) Machine.Network.default.Machine.Network.queue_capacity
        & info [ "net-queue" ] ~docv:"N"
            ~doc:
              "Injection queue capacity per PE (enqueues beyond it count \
               as backpressure).")
    $ Arg.(
        value & opt (some int) None
        & info [ "modules" ] ~docv:"N"
            ~doc:"Interleaved memory modules (default: one per PE).")
    $ mem_latency_arg
    $ Arg.(
        value & opt (some string) None
        & info [ "trace-out" ] ~docv:"PATH"
            ~doc:
              "Write a Chrome trace_event JSON with one track per PE.")
    $ fault_seed_arg $ fault_rate_arg $ fault_classes_arg
    $ Arg.(
        value & flag
        & info [ "recover" ]
            ~doc:
              "Enable checkpoint/replay recovery: epoch snapshots, plus — \
               with --fault-seed — one seeded PE fail-stop whose nodes are \
               remapped over the survivors and replayed.")
    $ no_certify_arg)

(* --- dot ------------------------------------------------------------- *)

let dot_cmd file schema transforms stage =
  let p = read_program file in
  match stage with
  | "cfg" -> Fmt.pr "%s" (Cfg.Dot.to_string (Cfg.Builder.of_program p))
  | "loopified" ->
      let lp = Cfg.Loopify.transform (Cfg.Builder.of_program p) in
      Fmt.pr "%s" (Cfg.Dot.to_string lp.Cfg.Loopify.graph)
  | "pdg" -> Fmt.pr "%s" (Ssa.Pdg.to_dot (Ssa.Pdg.build (Cfg.Builder.of_program p)))
  | "dfg" ->
      let transforms = transforms_of_list transforms in
      let compiled = Dflow.Driver.compile ~transforms schema p in
      Fmt.pr "%s" (Dfg.Dot.to_string compiled.Dflow.Driver.graph)
  | other -> Fmt.failwith "unknown stage %S (cfg|loopified|dfg|pdg)" other

let dot_term =
  Term.(
    const dot_cmd $ file_arg $ schema_arg $ transforms_arg
    $ Arg.(
        value & opt string "dfg"
        & info [ "stage" ] ~docv:"STAGE" ~doc:"cfg, loopified, dfg or pdg."))

(* --- emit / exec: the textual dataflow IR ----------------------------- *)

let emit_cmd file schema transforms optimize =
  let p = read_program file in
  let transforms = transforms_of_list transforms in
  let compiled = Dflow.Driver.compile ~transforms schema p in
  let graph = maybe_optimize optimize compiled.Dflow.Driver.graph in
  Dfg.Check.check graph;
  print_string (Dfg.Text.print graph)

let emit_term =
  Term.(const emit_cmd $ file_arg $ schema_arg $ transforms_arg $ optimize_arg)

let exec_cmd graph_file program_file pes mem_latency =
  (* the graph comes from the textual IR; the source program supplies
     the memory layout (and the reference semantics to check against) *)
  let g = Dfg.Text.read graph_file in
  Dfg.Check.check g;
  let p = read_program program_file in
  let layout = Imp.Layout.of_program p in
  let config = config_of pes mem_latency in
  let r = Machine.Interp.run_exn ~config { Machine.Interp.graph = g; layout } in
  Fmt.pr "== final store ==@.%a@." Imp.Memory.pp r.Machine.Interp.memory;
  Fmt.pr "cycles %d, operations %d@." r.Machine.Interp.cycles
    r.Machine.Interp.firings;
  let reference = Imp.Eval.run_program ~fuel:10_000_000 p in
  Fmt.pr "reference check: %s@."
    (if Imp.Memory.equal reference r.Machine.Interp.memory then "ok"
     else "MISMATCH")

let exec_term =
  Term.(
    const exec_cmd
    $ Arg.(
        required & pos 0 (some file) None
        & info [] ~docv:"GRAPH" ~doc:"Textual dataflow graph (.dfg)")
    $ Arg.(
        required & pos 1 (some file) None
        & info [] ~docv:"PROGRAM" ~doc:"IMP source supplying the memory layout")
    $ pes_arg $ mem_latency_arg)

let check_cmd graph_file =
  let g = Dfg.Text.read graph_file in
  Dfg.Check.check g;
  Fmt.pr "%s: well-formed@.%a@." graph_file Dfg.Stats.pp (Dfg.Stats.of_graph g)

let check_term =
  Term.(
    const check_cmd
    $ Arg.(
        required & pos 0 (some file) None
        & info [] ~docv:"GRAPH" ~doc:"Textual dataflow graph (.dfg)"))

(* --- analyze --------------------------------------------------------- *)

let analyze_cmd file =
  let p = read_program file in
  let g = Cfg.Builder.of_program p in
  let vars = Imp.Ast.program_vars p in
  Fmt.pr "== control-flow graph ==@.%a@." Cfg.Core.pp g;
  (* alias structure *)
  let alias = Analysis.Alias.of_program p in
  if Analysis.Alias.has_aliasing alias then begin
    Fmt.pr "== alias classes ==@.";
    Fmt.pr "@[<v>%a@]@." Analysis.Alias.pp alias;
    List.iter
      (fun (name, c) ->
        Fmt.pr "cover %-11s %a  (sync cost %d, spurious serializations %d)@."
          name Analysis.Cover.pp c
          (Analysis.Cover.synchronization_cost alias c vars)
          (Analysis.Cover.spurious_serialization alias c))
      [
        ("singleton", Analysis.Cover.singleton alias);
        ("classes", Analysis.Cover.classes alias);
        ("components", Analysis.Cover.components alias);
      ]
  end;
  (* loops *)
  (match Cfg.Loopify.transform g with
  | lp ->
      Array.iter
        (fun (l : Cfg.Loopify.loop_info) ->
          Fmt.pr
            "loop %d: header %d, entry %d, exits [%a], %d body nodes, vars \
             {%a}%a@."
            l.Cfg.Loopify.id l.Cfg.Loopify.header l.Cfg.Loopify.entry
            Fmt.(list ~sep:comma int)
            l.Cfg.Loopify.exits
            (List.length l.Cfg.Loopify.body)
            Fmt.(list ~sep:comma string)
            l.Cfg.Loopify.vars
            (fun ppf -> function
              | Some par -> Fmt.pf ppf ", inside loop %d" par
              | None -> ())
            l.Cfg.Loopify.parent)
        lp.Cfg.Loopify.loops;
      (* switch placement on the loopified graph *)
      let sp =
        Analysis.Switch_place.compute lp.Cfg.Loopify.graph ~vars
      in
      Fmt.pr "== switch placement (fork, variables) ==@.";
      List.iter
        (fun f ->
          if Cfg.Core.is_fork lp.Cfg.Loopify.graph f && f <> lp.Cfg.Loopify.graph.Cfg.Core.start
          then
            let needed =
              List.filter (fun x -> Analysis.Switch_place.needs_switch sp f x) vars
            in
            Fmt.pr "fork %d: {%a}@." f Fmt.(list ~sep:comma string) needed)
        (Cfg.Core.nodes lp.Cfg.Loopify.graph);
      (* Figure 14 / I-structure opportunities *)
      let async = Dflow.Transforms.async_candidates p lp in
      List.iter
        (fun (l, x) -> Fmt.pr "fig14: loop %d, array %s parallelizable@." l x)
        async;
      List.iter
        (fun x -> Fmt.pr "write-once array: %s (I-structure eligible)@." x)
        (Dflow.Transforms.istructure_candidates p lp)
  | exception Cfg.Intervals.Irreducible m ->
      Fmt.pr "irreducible control flow: %s@." m);
  (* SSA summary *)
  let ssa = Ssa.Construct.construct g in
  Fmt.pr "== SSA ==@.@[<v>%a@]@." Ssa.Construct.pp ssa

let analyze_term = Term.(const analyze_cmd $ file_arg)

(* --- compare --------------------------------------------------------- *)

let compare_cmd file pes mem_latency =
  let p = read_program file in
  let config = config_of pes mem_latency in
  let aliasing = Analysis.Alias.has_aliasing (Analysis.Alias.of_program p) in
  let specs =
    if aliasing then
      Dflow.Driver.
        [
          (Schema1, no_transforms);
          (Schema3 (Singleton, Dflow.Engine.Barrier), no_transforms);
          (Schema3 (Classes, Dflow.Engine.Barrier), no_transforms);
          (Schema3 (Components, Dflow.Engine.Barrier), no_transforms);
        ]
    else
      Dflow.Driver.
        [
          (Schema1, no_transforms);
          (Schema2 Dflow.Engine.Barrier, no_transforms);
          (Schema2 Dflow.Engine.Pipelined, no_transforms);
          (Schema2_opt Dflow.Engine.Barrier, no_transforms);
          (Schema2_opt Dflow.Engine.Pipelined, no_transforms);
          (Schema2_opt Dflow.Engine.Pipelined, all_transforms);
        ]
  in
  Fmt.pr "%-28s %8s %8s %8s %9s %8s@." "schema" "cycles" "ops" "mem-ops"
    "avg-par" "switches";
  List.iter
    (fun (spec, transforms) ->
      match Dflow.Driver.compile ~transforms spec p with
      | compiled ->
          let r =
            Machine.Interp.run_exn ~config
              {
                Machine.Interp.graph = compiled.Dflow.Driver.graph;
                layout = compiled.Dflow.Driver.layout;
              }
          in
          let st = Dfg.Stats.of_graph compiled.Dflow.Driver.graph in
          let name =
            Dflow.Driver.spec_to_string spec
            ^ if transforms = Dflow.Driver.no_transforms then "" else "+sec6"
          in
          Fmt.pr "%-28s %8d %8d %8d %9.2f %8d@." name r.Machine.Interp.cycles
            r.Machine.Interp.firings r.Machine.Interp.memory_ops
            (Machine.Interp.avg_parallelism r)
            st.Dfg.Stats.switches
      | exception Cfg.Intervals.Irreducible _ ->
          Fmt.pr "%-28s %s@."
            (Dflow.Driver.spec_to_string spec)
            "(irreducible: unsupported)")
    specs

let compare_term = Term.(const compare_cmd $ file_arg $ pes_arg $ mem_latency_arg)

(* --- selfcheck: the differential schema oracle ----------------------- *)

(* --- serve: the batched, memoized, domain-parallel job server -------- *)

let jobs_arg =
  Arg.(
    value & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the batch (default: the machine's \
           recommended domain count).  Results are emitted in submission \
           order and are byte-identical at every N.")

(** Mirrors [engine_of_flag]: an out-of-range value prints a usage
    message and exits 2. *)
let jobs_of_flag (jobs : int option) : int =
  match jobs with
  | None -> Service.Pool.default_jobs ()
  | Some n when n >= 1 -> n
  | Some n ->
      Fmt.epr "df_compile: --jobs must be at least 1 (got %d)@." n;
      exit 2

(* socket-mode flags (see Serve.Socket); all are also validated here so
   a bad value is a usage error (exit 2), matching --engine / --jobs *)

let socket_arg =
  Arg.(
    value & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Listen on a Unix-domain socket at $(docv) instead of serving \
           stdin.  Jobs run on supervised worker subprocess shards.")

let tcp_arg =
  Arg.(
    value & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT"
        ~doc:"Listen on 127.0.0.1:$(docv) instead of serving stdin.")

let shards_arg =
  Arg.(
    value & opt int 4
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Worker subprocess shards for socket mode (a crashed or stalled \
           shard is restarted with capped exponential backoff).")

let deadline_ms_arg =
  Arg.(
    value & opt int 0
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Per-job wall-clock deadline in socket mode; a job that blows it \
           gets a \"deadline\" error and its shard is killed and restarted. \
           0 (the default) disables the deadline.")

let max_queue_arg =
  Arg.(
    value & opt int 64
    & info [ "max-queue" ] ~docv:"N"
        ~doc:
          "Admission control for socket mode: jobs allowed to wait beyond \
           the running shards; past that the job is rejected with an \
           \"overloaded\" error instead of buffering without bound.")

let max_line_bytes_arg =
  Arg.(
    value & opt int Service.Framing.default_max_line_bytes
    & info [ "max-line-bytes" ] ~docv:"N"
        ~doc:
          "Per-line byte budget (stdin and socket): an oversized or \
           unterminated line costs bounded memory and yields a per-job \
           error result.")

let chaos_seed_arg =
  Arg.(
    value & opt (some int) None
    & info [ "chaos-seed" ] ~docv:"SEED"
        ~doc:
          "Enable seeded chaos injection in socket mode: under \
           --chaos-rate, jobs are deterministically assigned shard kills, \
           stalls past the deadline, or truncated responses.")

let chaos_rate_arg =
  Arg.(
    value & opt float 0.05
    & info [ "chaos-rate" ] ~docv:"P"
        ~doc:"Fraction of jobs faulted under --chaos-seed (within [0,1]).")

let usage_error fmt =
  Fmt.kstr
    (fun m ->
      Fmt.epr "df_compile: %s@." m;
      exit 2)
    fmt

let serve_cmd jobs socket tcp shards deadline_ms max_queue max_line_bytes
    chaos_seed chaos_rate =
  if shards < 1 then usage_error "--shards must be at least 1 (got %d)" shards;
  if deadline_ms < 0 then
    usage_error "--deadline-ms must be >= 0 (got %d)" deadline_ms;
  if max_queue < 0 then
    usage_error "--max-queue must be >= 0 (got %d)" max_queue;
  if max_line_bytes < 1 then
    usage_error "--max-line-bytes must be at least 1 (got %d)" max_line_bytes;
  if chaos_rate < 0.0 || chaos_rate > 1.0 then
    usage_error "--chaos-rate must be within [0, 1] (got %g)" chaos_rate;
  let endpoint =
    match (socket, tcp) with
    | Some _, Some _ -> usage_error "--socket and --tcp are mutually exclusive"
    | Some path, None -> Some (Serve.Socket.Unix_path path)
    | None, Some port ->
        if port < 1 || port > 65535 then
          usage_error "--tcp port must be within [1, 65535] (got %d)" port;
        Some (Serve.Socket.Tcp port)
    | None, None -> None
  in
  match endpoint with
  | None ->
      if chaos_seed <> None then
        usage_error "--chaos-seed requires socket mode (--socket or --tcp)";
      Serve.Server.serve ~jobs:(jobs_of_flag jobs) ~max_line_bytes stdin stdout
  | Some endpoint ->
      let chaos =
        match chaos_seed with
        | None -> None
        | Some seed ->
            Some
              {
                Service.Supervisor.c_seed = seed;
                c_rate = chaos_rate;
                (* stall comfortably past the deadline so stalls are
                   classified as deadline kills, yet bounded when the
                   deadline is off *)
                c_stall_ms =
                  (if deadline_ms > 0 then (2 * deadline_ms) + 500 else 400);
              }
      in
      Serve.Socket.listen endpoint
        {
          Serve.Socket.shards;
          deadline_ms;
          max_queue;
          max_line_bytes;
          chaos;
        }

let serve_term =
  Term.(
    const serve_cmd $ jobs_arg $ socket_arg $ tcp_arg $ shards_arg
    $ deadline_ms_arg $ max_queue_arg $ max_line_bytes_arg $ chaos_seed_arg
    $ chaos_rate_arg)

(* --- client: submit a batch to a socket server ----------------------- *)

let retries_arg =
  Arg.(
    value & opt int 5
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Retry budget per job: connect failures, dropped connections, \
           and \"overloaded\"/\"shard-crash\" results are retried with \
           doubling backoff (determinacy makes blind retry sound).")

let backoff_ms_arg =
  Arg.(
    value & opt int 50
    & info [ "backoff-ms" ] ~docv:"MS" ~doc:"Initial retry backoff.")

let client_cmd socket tcp retries backoff_ms =
  if retries < 0 then usage_error "--retries must be >= 0 (got %d)" retries;
  if backoff_ms < 1 then
    usage_error "--backoff-ms must be at least 1 (got %d)" backoff_ms;
  let endpoint =
    match (socket, tcp) with
    | Some _, Some _ -> usage_error "--socket and --tcp are mutually exclusive"
    | Some path, None -> Serve.Socket.Unix_path path
    | None, Some port ->
        if port < 1 || port > 65535 then
          usage_error "--tcp port must be within [1, 65535] (got %d)" port;
        Serve.Socket.Tcp port
    | None, None -> usage_error "client needs --socket PATH or --tcp PORT"
  in
  exit (Serve.Socket.client ~retries ~backoff_ms endpoint stdin stdout)

let client_term =
  Term.(const client_cmd $ socket_arg $ tcp_arg $ retries_arg $ backoff_ms_arg)

let selfcheck_cmd seed count broken certify_only jobs =
  (* certificate-only validation exercises the aliasing side too: the
     bad-cover variant is a no-op on alias-free programs, so the
     generator must be allowed to produce aliased ones *)
  let gen =
    if certify_only then
      Some
        {
          Workloads.Random_gen.default_config with
          Workloads.Random_gen.allow_alias = true;
        }
    else None
  in
  let report =
    Dflow.Oracle.selfcheck ?gen ~seed ~count ~certify_only
      ~include_broken:broken ~jobs:(jobs_of_flag jobs) ()
  in
  Fmt.pr "%a@." Dflow.Oracle.pp_report report;
  if report.Dflow.Oracle.r_divergences <> [] then begin
    Fmt.epr "selfcheck FAILED: %d %s under sound schemas@."
      (List.length report.Dflow.Oracle.r_divergences)
      (if certify_only then "false certificate rejection(s)"
       else "reference divergence(s)");
    exit 1
  end;
  if broken && report.Dflow.Oracle.r_broken_caught = [] then begin
    Fmt.epr
      "selfcheck FAILED: the deliberately broken schema produced no \
       divergence — the oracle has lost its teeth (try more programs)@.";
    exit 1
  end;
  if broken && certify_only then begin
    (* the certificate alone — no reference store, no collision detection
       — must catch BOTH seeded miscompilations *)
    let caught =
      List.map
        (fun d -> d.Dflow.Oracle.dv_combo)
        report.Dflow.Oracle.r_broken_caught
    in
    let has prefix =
      List.exists
        (fun n ->
          String.length n >= String.length prefix
          && String.sub n 0 (String.length prefix) = prefix)
        caught
    in
    List.iter
      (fun variant ->
        if not (has variant) then begin
          Fmt.epr
            "selfcheck FAILED: the permission certificate alone did not \
             catch %s (try more programs)@."
            variant;
          exit 1
        end)
      [ "schema2-no-loop-control"; "schema3-bad-cover" ]
  end;
  Fmt.pr "selfcheck ok@."

let selfcheck_term =
  Term.(
    const selfcheck_cmd
    $ Arg.(
        value & opt int 42
        & info [ "seed" ] ~docv:"N" ~doc:"Random program generator seed.")
    $ Arg.(
        value & opt int 50
        & info [ "count" ] ~docv:"M" ~doc:"Number of random programs to validate.")
    $ Arg.(
        value & flag
        & info [ "broken" ]
            ~doc:
              "Also run the deliberately broken schema variants (Schema 2 \
               without loop control; Schema 3 with truncated access sets) \
               and require the oracle to catch them with shrunk minimal \
               reproducers.")
    $ Arg.(
        value & flag
        & info [ "certify-only" ]
            ~doc:
              "Validate with the fractional-permission certificate ALONE: \
               collision detection off, reference store not compared. With \
               --broken, both unsound variants must still be caught. The \
               program generator is allowed to produce aliased programs so \
               the bad-cover variant is exercised.")
    $ jobs_arg)

(* --- command assembly ------------------------------------------------ *)

let cmds =
  [
    Cmd.v
      (Cmd.info "run" ~doc:"Compile and execute on the dataflow machine")
      run_term;
    Cmd.v
      (Cmd.info "profile"
         ~doc:
           "Compile, execute, and profile: firing histograms, parallelism \
            and matching-store curves, the dynamic critical path against \
            the static one, and a Chrome trace_event JSON export")
      profile_term;
    Cmd.v
      (Cmd.info "simulate"
         ~doc:
           "Execute on the multiprocessor ETS machine: partitioned over N \
            processing elements joined by a latency/bandwidth-modelled \
            interconnect with interleaved memory modules")
      simulate_term;
    Cmd.v (Cmd.info "dot" ~doc:"Emit DOT renderings") dot_term;
    Cmd.v
      (Cmd.info "emit" ~doc:"Emit the textual dataflow IR (.dfg)")
      emit_term;
    Cmd.v
      (Cmd.info "exec"
         ~doc:"Execute a textual dataflow IR file against a program's layout")
      exec_term;
    Cmd.v
      (Cmd.info "check" ~doc:"Validate a textual dataflow IR file")
      check_term;
    Cmd.v (Cmd.info "analyze" ~doc:"Print analyses") analyze_term;
    Cmd.v (Cmd.info "compare" ~doc:"Tabulate every schema") compare_term;
    Cmd.v
      (Cmd.info "selfcheck"
         ~doc:
           "Differential schema oracle: validate every schema x transform \
            combination against the reference interpreter on seeded random \
            programs, shrinking any divergence to a minimal reproducer")
      selfcheck_term;
    Cmd.v
      (Cmd.info "serve"
         ~doc:
           "Persistent batch service: read line-delimited JSON job \
            requests (compile / run / simulate / selfcheck-combo / stats) \
            on stdin, execute them on a fixed pool of worker domains with \
            content-hashed memoization of the compilation pipeline, and \
            write one JSON result line per job in submission order.  With \
            --socket/--tcp, listen on a socket instead and run jobs on \
            supervised, crash-isolated worker subprocess shards with \
            per-job deadlines, admission control and graceful drain on \
            SIGTERM/SIGINT")
      serve_term;
    Cmd.v
      (Cmd.info "client"
         ~doc:
           "Submit a batch of line-delimited JSON jobs from stdin to a \
            `serve --socket/--tcp` server, retrying transient failures \
            (connect errors, \"overloaded\", \"shard-crash\") with \
            capped exponential backoff; one result line per job on \
            stdout, in input order")
      client_term;
  ]

let () =
  (* accept the flag spelling too: `df_compile --selfcheck ...` *)
  let argv =
    Array.map (fun a -> if a = "--selfcheck" then "selfcheck" else a) Sys.argv
  in
  let info =
    Cmd.info "df_compile" ~version:"1.0"
      ~doc:"Translate imperative programs to dataflow graphs (Beck, Johnson & Pingali 1990)"
  in
  exit (Cmd.eval ~argv (Cmd.group info cmds))

(* df_compile: command-line front end to the control-flow -> dataflow
   translation pipeline.

   Subcommands:
     run      compile a program and execute it on the dataflow machine
     dot      emit DOT renderings of the CFG / loopified CFG / DFG / PDG
     analyze  print the analyses: loops, alias classes, switch placement
     compare  execute every schema and tabulate the metrics

   The job subcommands (run, profile, simulate, emit, dot, compare) are
   Serve.Job's jobs behind flags, as the serve ops are. *)

open Cmdliner

module Job = Serve.Job

(* --- failures: exit 2 for a refused option, 1 for a failed job ------- *)

let usage_error fmt =
  Fmt.kstr
    (fun m ->
      Fmt.epr "df_compile: %s@." m;
      exit 2)
    fmt

(* A refused option is a usage error; anything else a job raises (a
   program that does not parse, typecheck or translate) exits 1 with the
   message serve returns for it. *)
let guard f =
  try f () with
  | Job.Invalid m -> usage_error "%s" m
  | e ->
      Fmt.epr "df_compile: %s@." (Job.message e);
      exit 1

let read_file path = In_channel.with_open_bin path In_channel.input_all

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"IMP source file")

(* The named job options as cmdliner flags, read from the job
   declarations; the term is the lookup the job decoder reads. *)
let job_flags keys : (string -> Job.value option) Term.t =
  List.fold_left
    (fun acc key ->
      let d = Job.decl key in
      let names = d.Job.short @ [ d.Job.name ] in
      let arg =
        if d.Job.docv = "" then
          Term.map (fun b -> if b then Some "true" else None)
            Arg.(value & flag & info names ~doc:d.Job.doc)
        else Arg.(value & opt (some string) None & info names ~docv:d.Job.docv ~doc:d.Job.doc)
      in
      Term.(
        const (fun acc v k ->
            if k = key then Option.map (fun s -> Job.Text s) v else acc k)
        $ acc $ arg))
    (Term.const (fun _ -> None))
    keys

(* FILE plus the named options, decoded into a job of [op]. *)
let job_term ?(file = file_arg) op names =
  Term.(
    const (fun file lookup ->
        guard (fun () -> Job.decode op ~source:(read_file file) lookup))
    $ file $ job_flags names)

let trace_out_arg doc =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"PATH" ~doc)

let certificate_line (d : Machine.Diagnosis.t) =
  let count n what = Fmt.str "%d %s%s" n what (if n = 1 then "" else "s") in
  match (d.Machine.Diagnosis.certified, d.Machine.Diagnosis.permission) with
  | None, _ -> "none (uncertified translation)"
  | Some (elements, checks), [] ->
      Fmt.str "ok (%s, %d ownership checks)" (count elements "element") checks
  | Some _, vs ->
      Fmt.str "VIOLATED (%s)" (count (List.length vs) "standing violation")

(* A hard machine failure (collision, double write, divergence). *)
let or_exit what = function
  | Ok r -> r
  | Error d ->
      Fmt.epr "%s failed:@.%a@." what Machine.Diagnosis.pp d;
      exit 1

(* --- run ------------------------------------------------------------- *)

let run_cmd job verbose trace =
  let log = if trace then Some (Machine.Trace.create ()) else None in
  let compiled, result = guard (fun () -> Job.run ?log job) in
  let result = or_exit "execution" result in
  if not (Machine.Diagnosis.is_clean result.Machine.Interp.diagnosis) then
    Fmt.pr "== diagnosis ==@.%a@." Machine.Diagnosis.pp
      result.Machine.Interp.diagnosis;
  if not result.Machine.Interp.completed then begin
    Fmt.epr "dataflow execution did not complete (see diagnosis above)@.";
    exit 1
  end;
  Fmt.pr "== final store ==@.%a@." Imp.Memory.pp result.Machine.Interp.memory;
  Fmt.pr "== execution ==@.";
  Fmt.pr "schema           %s@." (Dflow.Driver.spec_to_string job.Job.schema);
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
  Option.iter
    (fun log ->
      Fmt.pr "== timeline (first 60 cycles) ==@.";
      Fmt.pr "%a"
        (Machine.Trace.pp_timeline ~max_cycles:60
           ~graph:compiled.Dflow.Driver.graph)
        log;
      Fmt.pr "== firings per iteration context ==@.";
      Fmt.pr "%a" Machine.Trace.pp_per_context log;
      Fmt.pr "max overlapping contexts: %d@."
        (Machine.Trace.max_context_overlap log))
    log;
  if verbose then begin
    Fmt.pr "== static graph ==@.%a@." Dfg.Stats.pp
      (Dfg.Stats.of_graph compiled.Dflow.Driver.graph);
    if Job.reference job result.Machine.Interp.memory = "ok" then
      Fmt.pr "reference check  ok@."
    else Fmt.pr "reference check  MISMATCH@."
  end

let run_term =
  Term.(
    const run_cmd
    $ job_term Job.Run
        [
          "schema"; "transforms"; "pes"; "mem-latency"; "optimize";
          "fault-seed"; "fault-rate"; "fault-classes"; "no-certify"; "engine";
        ]
    $ Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print graph statistics and check against the reference interpreter.")
    $ Arg.(value & flag & info [ "trace" ] ~doc:"Print an execution timeline and per-context firing counts."))

(* --- profile: critical path, curves, Chrome trace -------------------- *)

let profile_cmd file job trace_out summary_json =
  let log = Machine.Trace.create () in
  let compiled, result = guard (fun () -> Job.run ~log job) in
  let result = or_exit "execution" result in
  let graph = compiled.Dflow.Driver.graph in
  let profile = Machine.Profile.make ~graph ~log result in
  let out =
    match trace_out with
    | Some path -> path
    | None -> Filename.remove_extension (Filename.basename file) ^ ".trace.json"
  in
  let chrome =
    Machine.Profile.chrome_trace ~config:(Job.config job) ~graph log
  in
  let oc = open_out out in
  output_string oc (Machine.Json.to_string chrome);
  output_char oc '\n';
  close_out oc;
  if summary_json then
    Fmt.pr "%s" (Machine.Json.to_string_pretty (Machine.Profile.summary_json profile))
  else begin
    Fmt.pr "== profile (%s, %s) ==@." file
      (Dflow.Driver.spec_to_string job.Job.schema);
    Fmt.pr "%a" Machine.Profile.pp profile
  end;
  Fmt.epr "chrome trace written to %s (load it in chrome://tracing or \
           ui.perfetto.dev)@." out;
  if not (Job.reference job result.Machine.Interp.memory = "ok") then begin
    Fmt.epr "profile run DIVERGED from the reference interpreter@.";
    exit 1
  end

let profile_term =
  Term.(
    const profile_cmd $ file_arg
    $ job_term Job.Run
        [ "schema"; "transforms"; "pes"; "mem-latency"; "optimize"; "engine" ]
    $ trace_out_arg
        "Where to write the Chrome trace_event JSON (default: \
         <FILE>.trace.json in the current directory)."
    $ Arg.(
        value & flag
        & info [ "json" ]
            ~doc:"Print the profile summary as JSON instead of text."))

(* --- simulate: the multiprocessor machine ----------------------------- *)

let simulate_cmd job trace_out =
  let log = Option.map (fun _ -> Machine.Trace.create ()) trace_out in
  let compiled, r = guard (fun () -> Job.simulate ?log job) in
  let r = or_exit "simulation" r in
  if not r.Machine.Multiproc.completed then begin
    Fmt.epr "simulation did not complete:@.%a@." Machine.Diagnosis.pp
      r.Machine.Multiproc.diagnosis;
    exit 1
  end;
  let graph = compiled.Dflow.Driver.graph in
  let pes = Job.sim_pes job and topo = Job.topology job in
  Fmt.pr "== final store ==@.%a@." Imp.Memory.pp r.Machine.Multiproc.memory;
  Fmt.pr "== multiprocessor (%d PEs, %s placement) ==@." pes
    (Machine.Placement.policy_to_string job.Job.placement);
  Fmt.pr "schema           %s@." (Dflow.Driver.spec_to_string job.Job.schema);
  Fmt.pr "cycles           %d@." r.Machine.Multiproc.cycles;
  Fmt.pr "operations       %d@." r.Machine.Multiproc.firings;
  Fmt.pr "memory ops       %d (%d local, %d remote)@."
    r.Machine.Multiproc.memory_ops r.Machine.Multiproc.mem_local
    r.Machine.Multiproc.mem_remote;
  Fmt.pr "placement        %a@." Machine.Placement.pp_stats
    r.Machine.Multiproc.placement_stats;
  (match job.Job.placement with
  | Machine.Placement.Hier ->
      Fmt.pr "hierarchy        %a@." Sched.Hplace.pp_stats
        (Machine.Placement.hier_stats ~tree:compiled.Dflow.Driver.ltree ?topo
           ~pes graph)
  | _ -> ());
  (match topo with
  | Some tp ->
      Fmt.pr "topology         %s, %d link hops crossed@."
        (Sched.Topology.describe tp) r.Machine.Multiproc.net_hops
  | None -> ());
  if job.Job.steal then
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
  if r.Machine.Multiproc.transport <> None || r.Machine.Multiproc.recovery <> None
  then Fmt.pr "== fault tolerance ==@.";
  Option.iter
    (fun st ->
      Fmt.pr
        "transport        %d sends, %d retransmits, %d dup drops, %d wire \
         faults, %d losses@."
        st.Machine.Network.r_sends st.Machine.Network.r_retransmits
        st.Machine.Network.r_dups_dropped st.Machine.Network.r_wire_faults
        st.Machine.Network.r_losses)
    r.Machine.Multiproc.transport;
  Option.iter
    (fun m ->
      Fmt.pr
        "recovery         recovered: %d death(s), %d rollback(s), %d \
         checkpoint(s), %d lost cycles, %d replayed firings@."
        m.Machine.Recovery.m_deaths m.Machine.Recovery.m_rollbacks
        m.Machine.Recovery.m_checkpoints m.Machine.Recovery.m_lost_cycles
        m.Machine.Recovery.m_replayed_firings)
    r.Machine.Multiproc.recovery;
  Array.iteri
    (fun pe u ->
      Fmt.pr "pe %-2d            %5d firings, %4.1f%% busy@." pe
        r.Machine.Multiproc.per_pe_firings.(pe)
        (100.0 *. u))
    r.Machine.Multiproc.utilisation;
  (match (trace_out, log) with
  | Some out, Some log ->
      let chrome =
        Machine.Profile.chrome_trace_pes ~config:(Job.config job) ~graph log
      in
      let oc = open_out out in
      output_string oc (Machine.Json.to_string chrome);
      output_char oc '\n';
      close_out oc;
      Fmt.epr "chrome trace written to %s (one track per PE; load it in \
               chrome://tracing or ui.perfetto.dev)@." out
  | _ -> ());
  if Job.reference job r.Machine.Multiproc.memory = "ok" then
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
    const simulate_cmd
    $ job_term Job.Simulate
        [
          "schema"; "transforms"; "optimize"; "pes"; "placement"; "net";
          "steal"; "net-latency"; "net-bandwidth"; "net-queue"; "modules";
          "mem-latency"; "fault-seed"; "fault-rate"; "fault-classes";
          "recover"; "no-certify";
        ]
    $ trace_out_arg
        "Write a Chrome trace_event JSON with one track per PE.  Under \
         --recover it holds the firings of the run that survived, not the \
         replayed ones.")

(* --- dot ------------------------------------------------------------- *)

let dot_cmd job stage =
  guard (fun () ->
      let cfg () = Cfg.Builder.of_program (Job.program job) in
      match stage with
      | "cfg" -> Fmt.pr "%s" (Cfg.Dot.to_string (cfg ()))
      | "loopified" ->
          let lp = Cfg.Loopify.transform (cfg ()) in
          Fmt.pr "%s" (Cfg.Dot.to_string lp.Cfg.Loopify.graph)
      | "pdg" -> Fmt.pr "%s" (Ssa.Pdg.to_dot (Ssa.Pdg.build (cfg ())))
      | "dfg" ->
          Fmt.pr "%s" (Dfg.Dot.to_string (Job.compile job).Dflow.Driver.graph)
      | other ->
          usage_error "--stage: unknown stage %S (valid: cfg, loopified, dfg, pdg)"
            other)

let dot_term =
  Term.(
    const dot_cmd
    $ job_term Job.Compile [ "schema"; "transforms" ]
    $ Arg.(
        value & opt string "dfg"
        & info [ "stage" ] ~docv:"STAGE" ~doc:"cfg, loopified, dfg or pdg."))

(* --- emit / exec: the textual dataflow IR ----------------------------- *)

let emit_cmd job =
  guard (fun () ->
      print_string (Dfg.Text.print (Job.compile job).Dflow.Driver.graph))

let emit_term =
  Term.(
    const emit_cmd
    $ job_term Job.Compile [ "schema"; "transforms"; "optimize" ])

let exec_cmd graph_file job =
  (* the graph comes from the textual IR; the source program supplies
     the memory layout (and the reference semantics to check against) *)
  let g = Dfg.Text.read graph_file in
  Dfg.Check.check g;
  let layout = guard (fun () -> Imp.Layout.of_program (Job.program job)) in
  let r =
    Machine.Interp.run_exn ~config:(Job.config job)
      { Machine.Interp.graph = g; layout }
  in
  Fmt.pr "== final store ==@.%a@." Imp.Memory.pp r.Machine.Interp.memory;
  Fmt.pr "cycles %d, operations %d@." r.Machine.Interp.cycles
    r.Machine.Interp.firings;
  Fmt.pr "reference check: %s@."
    (if Job.reference job r.Machine.Interp.memory = "ok" then "ok" else "MISMATCH")

let exec_term =
  Term.(
    const exec_cmd
    $ Arg.(
        required & pos 0 (some file) None
        & info [] ~docv:"GRAPH" ~doc:"Textual dataflow graph (.dfg)")
    $ job_term Job.Run [ "pes"; "mem-latency" ]
        ~file:
          Arg.(
            required & pos 1 (some file) None
            & info [] ~docv:"PROGRAM" ~doc:"IMP source supplying the memory layout"))

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
  let p = guard (fun () -> Dflow.Memo.parse_source (read_file file)) in
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

let compare_cmd job =
  let aliasing =
    guard (fun () ->
        Analysis.Alias.has_aliasing (Analysis.Alias.of_program (Job.program job)))
  in
  let specs =
    let open Dflow.Driver in
    let plain s = (s, no_transforms) and b = Dflow.Engine.Barrier in
    let p = Dflow.Engine.Pipelined in
    plain Schema1
    ::
    (if aliasing then
       List.map (fun c -> plain (Schema3 (c, b))) [ Singleton; Classes; Components ]
     else
       [
         plain (Schema2 b); plain (Schema2 p); plain (Schema2_opt b);
         plain (Schema2_opt p); (Schema2_opt p, all_transforms);
       ])
  in
  Fmt.pr "%-28s %8s %8s %8s %9s %8s@." "schema" "cycles" "ops" "mem-ops"
    "avg-par" "switches";
  List.iter
    (fun (schema, transforms) ->
      match guard (fun () -> Job.run { job with Job.schema; transforms }) with
      | compiled, Ok r when r.Machine.Interp.completed ->
          let st = Dfg.Stats.of_graph compiled.Dflow.Driver.graph in
          let name =
            Dflow.Driver.spec_to_string schema
            ^ if transforms = Dflow.Driver.no_transforms then "" else "+sec6"
          in
          Fmt.pr "%-28s %8d %8d %8d %9.2f %8d@." name r.Machine.Interp.cycles
            r.Machine.Interp.firings r.Machine.Interp.memory_ops
            (Machine.Interp.avg_parallelism r)
            st.Dfg.Stats.switches
      | _, (Ok { Machine.Interp.diagnosis = d; _ } | Error d) ->
          or_exit "execution" (Error d)
      | exception Cfg.Intervals.Irreducible _ ->
          Fmt.pr "%-28s %s@."
            (Dflow.Driver.spec_to_string schema)
            "(irreducible: unsupported)")
    specs

let compare_term = Term.(const compare_cmd $ job_term Job.Run [ "pes"; "mem-latency" ])

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

(** An out-of-range value prints a usage message and exits 2. *)
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

(* --socket PATH or --tcp PORT, at most one of them. *)
let endpoint_of socket tcp =
  match (socket, tcp) with
  | Some _, Some _ -> usage_error "--socket and --tcp are mutually exclusive"
  | Some path, None -> Some (Serve.Socket.Unix_path path)
  | None, Some port ->
      if port < 1 || port > 65535 then
        usage_error "--tcp port must be within [1, 65535] (got %d)" port;
      Some (Serve.Socket.Tcp port)
  | None, None -> None

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
  match endpoint_of socket tcp with
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
  match endpoint_of socket tcp with
  | None -> usage_error "client needs --socket PATH or --tcp PORT"
  | Some endpoint ->
      exit (Serve.Socket.client ~retries ~backoff_ms endpoint stdin stdout)

let client_term =
  Term.(const client_cmd $ socket_arg $ tcp_arg $ retries_arg $ backoff_ms_arg)

let selfcheck_cmd seed count broken certify_only jobs =
  if count < 1 then usage_error "--count must be at least 1 (got %d)" count;
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
    let has prefix = List.exists (String.starts_with ~prefix) caught in
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

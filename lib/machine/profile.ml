(** Machine observability: post-run profiles over a run's firing log
    ({!Trace}) and its {!Interp.result}, with exporters.

    A {!t} bundles everything a perf investigation needs: the per-node
    firing histogram, the per-cycle parallelism / token-in-flight /
    matching-store-occupancy curves, the context-overlap summary (how
    many loop iterations genuinely ran at once), and the dynamic
    critical path — the longest dependence chain the machine actually
    executed — next to the static single-iteration critical path from
    {!Dfg.Stats} for comparison.

    Exporters: {!chrome_trace} renders a firing log as Chrome
    [trace_event] JSON (open in [chrome://tracing] or Perfetto; one
    track per access-token variable, one per concurrent ALU lane), and
    {!summary_json} emits the compact record of
    [df_compile profile --json]. *)

type node_firings = {
  nf_node : int;
  nf_label : string;
  nf_family : string;
  nf_count : int;
}

type t = {
  cycles : int;
  firings : int;
  avg_parallelism : float;
  peak_parallelism : int;
  parallelism_curve : int array;  (** firings started per cycle *)
  in_flight_curve : int array;
  matching_curve : int array;
  peak_matching : int;
  node_firings : node_firings list;  (** descending firing count *)
  overlap : int array;  (** distinct contexts firing, per cycle *)
  max_overlap : int;
  per_context : (Context.t * int) list;
  dynamic_critical_path : int;
  critical_chain : (int * Context.t) list;
  static_critical_path : int;
}

let make ~(graph : Dfg.Graph.t) ~(log : Trace.t) (r : Interp.result) : t =
  let counts = Array.make (Dfg.Graph.num_nodes graph) 0 in
  for i = 0 to Trace.length log - 1 do
    let n = Trace.node log i in
    counts.(n) <- counts.(n) + 1
  done;
  let node_firings =
    List.filter_map
      (fun n ->
        if counts.(n) = 0 then None
        else
          let node = Dfg.Graph.node graph n in
          Some
            {
              nf_node = n;
              nf_label = node.Dfg.Node.label;
              nf_family = Firing.family node.Dfg.Node.kind;
              nf_count = counts.(n);
            })
      (List.init (Array.length counts) Fun.id)
    |> List.sort (fun a b ->
           compare (b.nf_count, a.nf_node) (a.nf_count, b.nf_node))
  in
  let st = Dfg.Stats.of_graph graph in
  let overlap = Trace.overlap log in
  {
    cycles = r.Interp.cycles;
    firings = r.Interp.firings;
    avg_parallelism = Interp.avg_parallelism r;
    peak_parallelism = r.Interp.peak_parallelism;
    parallelism_curve = Trace.parallelism_curve log;
    in_flight_curve = Trace.in_flight_curve log;
    matching_curve = Trace.matching_curve log;
    peak_matching = r.Interp.peak_matching;
    node_firings;
    overlap;
    max_overlap = Array.fold_left max 0 overlap;
    per_context = Trace.per_context log;
    dynamic_critical_path = Trace.critical_path log;
    critical_chain = Trace.critical_chain log;
    static_critical_path = st.Dfg.Stats.critical_path;
  }

(* ---------------------------------------------------------------- *)
(* Chrome trace_event export                                        *)

(* Track assignment: memory operations and per-variable loop gateways
   land on one track per variable (the access-token/alias-class view);
   control operators share a "control" track; everything else (the ALU
   population) is spread greedily over "alu-<i>" lanes so simultaneous
   firings render side by side instead of stacking. *)
let track_of (g : Dfg.Graph.t) (n : int) : [ `Var of string | `Control | `Alu ]
    =
  match Dfg.Graph.kind g n with
  | Dfg.Node.Load { var; _ } | Dfg.Node.Store { var; _ } -> `Var var
  | Dfg.Node.Start _ | Dfg.Node.End _ | Dfg.Node.Switch | Dfg.Node.Merge
  | Dfg.Node.Synch _ | Dfg.Node.Loop_entry _ | Dfg.Node.Loop_exit _ ->
      `Control
  | Dfg.Node.Const _ | Dfg.Node.Binop _ | Dfg.Node.Unop _ | Dfg.Node.Id
  | Dfg.Node.Sink ->
      `Alu

let max_alu_lanes = 32

(* One Chrome trace_event document over a log: a "thread_name" event per
   track of [tracks ()], read once every firing is placed, then an "X"
   event per firing in log order (which is cycle order) on track
   [tid node cycle dur i], its [args i] after its node and context. *)
let chrome_document ~config ~graph ~generator ~tid ~args ~tracks log =
  let trace_events =
    List.map
      (fun i ->
        let node = Trace.node log i and cycle = Trace.cycle log i in
        let kind = Dfg.Graph.kind graph node in
        let dur = Config.latency config kind in
        Json.Assoc
          [
            ("name", Json.String (Dfg.Graph.node graph node).Dfg.Node.label);
            ("cat", Json.String (Firing.family kind));
            ("ph", Json.String "X");
            ("ts", Json.Int cycle);
            ("dur", Json.Int dur);
            ("pid", Json.Int 1);
            ("tid", Json.Int (tid node cycle dur i));
            ( "args",
              Json.Assoc
                (("node", Json.Int node)
                :: ("ctx", Json.String (Context.to_string (Trace.ctx log i)))
                :: args i) );
          ])
      (List.init (Trace.length log) Fun.id)
  in
  let metadata =
    List.map
      (fun (tid, name) ->
        Json.Assoc
          [
            ("name", Json.String "thread_name");
            ("ph", Json.String "M");
            ("pid", Json.Int 1);
            ("tid", Json.Int tid);
            ("args", Json.Assoc [ ("name", Json.String name) ]);
          ])
      (tracks ())
  in
  Json.Assoc
    [
      ("traceEvents", Json.List (metadata @ trace_events));
      ("displayTimeUnit", Json.String "ms");
      ( "otherData",
        Json.Assoc
          [
            ("generator", Json.String generator);
            ("clock", Json.String "machine cycles (1 cycle = 1 us)");
          ] );
    ]

let chrome_trace ?(config = Config.default) ~(graph : Dfg.Graph.t)
    (log : Trace.t) : Json.t =
  (* tid table: name -> id, in order of first appearance *)
  let tids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let tid_names = ref [] in
  let tid_of name =
    match Hashtbl.find_opt tids name with
    | Some i -> i
    | None ->
        let i = Hashtbl.length tids in
        Hashtbl.add tids name i;
        tid_names := (i, name) :: !tid_names;
        i
  in
  (* greedy ALU lane assignment by lane free-time *)
  let lane_free = Array.make max_alu_lanes 0 in
  let alu_lane ts dur =
    let chosen = ref 0 in
    (try
       for i = 0 to max_alu_lanes - 1 do
         if lane_free.(i) <= ts then begin
           chosen := i;
           raise Exit
         end
       done;
       (* all lanes busy: reuse the one freeing earliest *)
       let best = ref 0 in
       for i = 1 to max_alu_lanes - 1 do
         if lane_free.(i) < lane_free.(!best) then best := i
       done;
       chosen := !best
     with Exit -> ());
    lane_free.(!chosen) <- max lane_free.(!chosen) ts + dur;
    !chosen
  in
  chrome_document ~config ~graph ~generator:"df_compile profile" log
    ~tid:(fun node cycle dur _ ->
      tid_of
        (match track_of graph node with
        | `Var v -> "access " ^ v
        | `Control -> "control"
        | `Alu -> Fmt.str "alu-%d" (alu_lane cycle dur)))
    ~args:(fun _ -> [])
    ~tracks:(fun () -> List.rev !tid_names)

(* Per-PE tracks for a multiprocessor run: one lane per processing
   element, read from the log's PE column.  The single-PE exporter
   groups by operator family; here the interesting axis is which PE did
   the work, so the placement's load balance and the network-induced
   idle gaps are visible at a glance. *)
let chrome_trace_pes ?(config = Config.default) ~(graph : Dfg.Graph.t)
    (log : Trace.t) : Json.t =
  let pe i = Trace.pe log i in
  let pes = 1 + List.fold_left max 0 (List.init (Trace.length log) pe) in
  chrome_document ~config ~graph ~generator:"df_compile simulate" log
    ~tid:(fun _ _ _ i -> pe i)
    ~args:(fun i -> [ ("pe", Json.Int (pe i)) ])
    ~tracks:(fun () -> List.init pes (fun p -> (p, Fmt.str "pe-%d" p)))

(* ---------------------------------------------------------------- *)
(* summary record                                                   *)

let int_curve a = Json.List (Array.to_list (Array.map (fun i -> Json.Int i) a))

let summary_json (p : t) : Json.t =
  Json.Assoc
    [
      ("cycles", Json.Int p.cycles);
      ("firings", Json.Int p.firings);
      ("avg_parallelism", Json.Float p.avg_parallelism);
      ("peak_parallelism", Json.Int p.peak_parallelism);
      ("peak_matching", Json.Int p.peak_matching);
      ("critical_path_dynamic", Json.Int p.dynamic_critical_path);
      ("critical_path_static", Json.Int p.static_critical_path);
      ("max_context_overlap", Json.Int p.max_overlap);
      ("parallelism_curve", int_curve p.parallelism_curve);
      ("in_flight_curve", int_curve p.in_flight_curve);
      ("matching_curve", int_curve p.matching_curve);
      ("overlap_curve", int_curve p.overlap);
      ( "node_firings",
        Json.List
          (List.map
             (fun nf ->
               Json.Assoc
                 [
                   ("node", Json.Int nf.nf_node);
                   ("label", Json.String nf.nf_label);
                   ("family", Json.String nf.nf_family);
                   ("count", Json.Int nf.nf_count);
                 ])
             p.node_firings) );
      ( "critical_chain",
        Json.List
          (List.map
             (fun (n, ctx) ->
               Json.Assoc
                 [
                   ("node", Json.Int n);
                   ("ctx", Json.String (Context.to_string ctx));
                 ])
             p.critical_chain) );
    ]

(* ---------------------------------------------------------------- *)
(* human-readable rendering                                         *)

let sparkline (a : int array) : string =
  let glyphs = [| " "; "."; ":"; "|"; "#" |] in
  let buf = Buffer.create (Array.length a) in
  Array.iter (fun v -> Buffer.add_string buf glyphs.(min 4 (max 0 v))) a;
  Buffer.contents buf

(* Downsample a curve to [w] columns (max over each bucket) so long runs
   still fit a terminal line. *)
let resample (a : int array) (w : int) : int array =
  let n = Array.length a in
  if n <= w then a
  else
    Array.init w (fun i ->
        let lo = i * n / w and hi = ((i + 1) * n / w) - 1 in
        let m = ref 0 in
        for j = lo to max lo hi do
          m := max !m a.(j)
        done;
        !m)

let pp ppf (p : t) =
  Fmt.pf ppf "cycles            %d@." p.cycles;
  Fmt.pf ppf "firings           %d@." p.firings;
  Fmt.pf ppf "avg parallelism   %.2f@." p.avg_parallelism;
  Fmt.pf ppf "peak parallelism  %d@." p.peak_parallelism;
  Fmt.pf ppf "peak matching     %d entries@." p.peak_matching;
  Fmt.pf ppf "critical path     dynamic %d firings, static %d operators@."
    p.dynamic_critical_path p.static_critical_path;
  Fmt.pf ppf "context overlap   max %d simultaneous iteration contexts@."
    p.max_overlap;
  let w = 72 in
  Fmt.pf ppf "parallelism       |%s|@." (sparkline (resample p.parallelism_curve w));
  Fmt.pf ppf "tokens in flight  |%s|@." (sparkline (resample p.in_flight_curve w));
  Fmt.pf ppf "matching store    |%s|@." (sparkline (resample p.matching_curve w));
  Fmt.pf ppf "context overlap   |%s|@." (sparkline (resample p.overlap w));
  Fmt.pf ppf "   (one column ~ %d cycle(s); ' '=0 '.'=1 ':'=2 '|'=3 '#'=4+)@."
    (max 1 ((Array.length p.parallelism_curve + w - 1) / w));
  Fmt.pf ppf "hottest operators:@.";
  List.iteri
    (fun i nf ->
      if i < 12 then
        Fmt.pf ppf "  %6d  %-10s %s (node %d)@." nf.nf_count nf.nf_family
          nf.nf_label nf.nf_node)
    p.node_firings;
  Fmt.pf ppf "critical chain (%d firings):@." (List.length p.critical_chain);
  let chain = p.critical_chain in
  let shown = 16 in
  List.iteri
    (fun i (n, ctx) ->
      if i < shown then
        Fmt.pf ppf "  node %d%s@." n
          (if Context.depth ctx = 0 then "" else " " ^ Context.to_string ctx))
    chain;
  if List.length chain > shown then
    Fmt.pf ppf "  ... (%d more)@." (List.length chain - shown)

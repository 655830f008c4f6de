(** Machine observability: post-run profiles over the interpreter's
    [on_fire] hook and {!Interp.result}, with exporters.

    A {!t} bundles everything a perf investigation needs: the per-node
    firing histogram, the per-cycle parallelism / token-in-flight /
    matching-store-occupancy curves, the context-overlap summary (how
    many loop iterations genuinely ran at once), and the dynamic
    critical path — the longest dependence chain the machine actually
    executed — next to the static single-iteration critical path from
    {!Dfg.Stats} for comparison.

    Exporters: {!chrome_trace} renders a recorded {!Trace.t} as Chrome
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
  dropped_events : int;
      (** trace-recorder truncation: nonzero means the histogram,
          overlap and per-context views cover only a prefix *)
}

let family (k : Dfg.Node.kind) : string =
  match k with
  | Dfg.Node.Start _ -> "start"
  | Dfg.Node.End _ -> "end"
  | Dfg.Node.Const _ -> "const"
  | Dfg.Node.Binop _ | Dfg.Node.Unop _ -> "alu"
  | Dfg.Node.Id -> "id"
  | Dfg.Node.Sink -> "sink"
  | Dfg.Node.Load _ -> "load"
  | Dfg.Node.Store _ -> "store"
  | Dfg.Node.Switch -> "switch"
  | Dfg.Node.Merge -> "merge"
  | Dfg.Node.Synch _ -> "synch"
  | Dfg.Node.Loop_entry _ -> "loop-entry"
  | Dfg.Node.Loop_exit _ -> "loop-exit"

let make ~(graph : Dfg.Graph.t) ~(trace : Trace.t) (r : Interp.result) : t =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun (e : Trace.event) ->
      Hashtbl.replace counts e.Trace.node
        (1 + (try Hashtbl.find counts e.Trace.node with Not_found -> 0)))
    (Trace.events trace);
  let node_firings =
    Hashtbl.fold
      (fun n c acc ->
        let node = Dfg.Graph.node graph n in
        {
          nf_node = n;
          nf_label = node.Dfg.Node.label;
          nf_family = family node.Dfg.Node.kind;
          nf_count = c;
        }
        :: acc)
      counts []
    |> List.sort (fun a b ->
           compare (b.nf_count, a.nf_node) (a.nf_count, b.nf_node))
  in
  let st = Dfg.Stats.of_graph graph in
  {
    cycles = r.Interp.cycles;
    firings = r.Interp.firings;
    avg_parallelism = Interp.avg_parallelism r;
    peak_parallelism = r.Interp.peak_parallelism;
    parallelism_curve = r.Interp.profile;
    in_flight_curve = r.Interp.in_flight_curve;
    matching_curve = r.Interp.matching_curve;
    peak_matching = r.Interp.peak_matching;
    node_firings;
    overlap = Trace.overlap trace;
    max_overlap = Trace.max_context_overlap trace;
    per_context = Trace.per_context trace;
    dynamic_critical_path = r.Interp.critical_path;
    critical_chain = r.Interp.critical_chain;
    static_critical_path = st.Dfg.Stats.critical_path;
    dropped_events = Trace.dropped trace;
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

let chrome_trace ?(config = Config.default) ~(graph : Dfg.Graph.t)
    (trace : Trace.t) : Json.t =
  (* stable cycle order: the recorder stores events in firing order,
     which is already nondecreasing in cycle; sort defensively anyway *)
  let events =
    List.stable_sort
      (fun (a : Trace.event) (b : Trace.event) ->
        compare a.Trace.cycle b.Trace.cycle)
      (Trace.events trace)
  in
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
  let trace_events =
    List.map
      (fun (e : Trace.event) ->
        let kind = Dfg.Graph.kind graph e.Trace.node in
        let dur = Config.latency config kind in
        let track =
          match track_of graph e.Trace.node with
          | `Var v -> "access " ^ v
          | `Control -> "control"
          | `Alu -> Fmt.str "alu-%d" (alu_lane e.Trace.cycle dur)
        in
        Json.Assoc
          [
            ("name", Json.String e.Trace.label);
            ("cat", Json.String (family kind));
            ("ph", Json.String "X");
            ("ts", Json.Int e.Trace.cycle);
            ("dur", Json.Int dur);
            ("pid", Json.Int 1);
            ("tid", Json.Int (tid_of track));
            ( "args",
              Json.Assoc
                [
                  ("node", Json.Int e.Trace.node);
                  ("ctx", Json.String (Context.to_string e.Trace.ctx));
                ] );
          ])
      events
  in
  let metadata =
    List.rev_map
      (fun (i, name) ->
        Json.Assoc
          [
            ("name", Json.String "thread_name");
            ("ph", Json.String "M");
            ("pid", Json.Int 1);
            ("tid", Json.Int i);
            ("args", Json.Assoc [ ("name", Json.String name) ]);
          ])
      !tid_names
  in
  Json.Assoc
    [
      ("traceEvents", Json.List (metadata @ trace_events));
      ("displayTimeUnit", Json.String "ms");
      ( "otherData",
        Json.Assoc
          [
            ("generator", Json.String "df_compile profile");
            ("clock", Json.String "machine cycles (1 cycle = 1 us)");
            ("droppedEvents", Json.Int (Trace.dropped trace));
          ] );
    ]

(* Per-PE tracks for a multiprocessor run: one lane per processing
   element, fed by Multiproc's on_fire (cycle, node, ctx, pe).  The
   single-PE exporter groups by operator family; here the interesting
   axis is which PE did the work, so the placement's load balance and
   the network-induced idle gaps are visible at a glance. *)
let chrome_trace_pes ?(config = Config.default) ~(graph : Dfg.Graph.t)
    (events : (int * int * Context.t * int) list) : Json.t =
  let events =
    List.stable_sort (fun (c1, _, _, _) (c2, _, _, _) -> compare c1 c2) events
  in
  let max_pe = List.fold_left (fun m (_, _, _, pe) -> max m pe) 0 events in
  let trace_events =
    List.map
      (fun (cycle, node, ctx, pe) ->
        let kind = Dfg.Graph.kind graph node in
        let label = (Dfg.Graph.node graph node).Dfg.Node.label in
        Json.Assoc
          [
            ("name", Json.String label);
            ("cat", Json.String (family kind));
            ("ph", Json.String "X");
            ("ts", Json.Int cycle);
            ("dur", Json.Int (Config.latency config kind));
            ("pid", Json.Int 1);
            ("tid", Json.Int pe);
            ( "args",
              Json.Assoc
                [
                  ("node", Json.Int node);
                  ("ctx", Json.String (Context.to_string ctx));
                  ("pe", Json.Int pe);
                ] );
          ])
      events
  in
  let metadata =
    List.init (max_pe + 1) (fun pe ->
        Json.Assoc
          [
            ("name", Json.String "thread_name");
            ("ph", Json.String "M");
            ("pid", Json.Int 1);
            ("tid", Json.Int pe);
            ("args", Json.Assoc [ ("name", Json.String (Fmt.str "pe-%d" pe)) ]);
          ])
  in
  Json.Assoc
    [
      ("traceEvents", Json.List (metadata @ trace_events));
      ("displayTimeUnit", Json.String "ms");
      ( "otherData",
        Json.Assoc
          [
            ("generator", Json.String "df_compile simulate");
            ("clock", Json.String "machine cycles (1 cycle = 1 us)");
          ] );
    ]

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
      ("dropped_events", Json.Int p.dropped_events);
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
  if p.dropped_events > 0 then
    Fmt.pf ppf
      "TRUNCATED         %d events dropped by the recorder; histogram, \
       overlap and context views cover a prefix@."
      p.dropped_events;
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

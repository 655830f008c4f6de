(* The BENCH_machine.json schema: every section, cell kind and floor of
   the machine benchmark, declared once.

   A field declaration names the JSON key, its type, the bound its value
   must satisfy, whether it identifies its cell, is deterministic, or is
   a wall-clock timing, and how the harness's typed value produces it.
   Four readers share the declarations:
   - [encode] writes a document from the harness's typed values;
   - [validate] checks any document against the declared types, bounds
     and invariants;
   - [drift] compares two documents on every field that is not timed;
   - [floors] are the paper's qualitative orderings as thresholds on
     named cells, evaluated by [check].

   The paper publishes no numeric tables, so the floors are the
   reproduction: Schema 2 pipelined is more parallel than Schema 1, and
   the machine built on the translation scales, recovers, certifies and
   serves within the thresholds below. *)

module J = Machine.Json

let version = 8

(* --- declaration vocabulary ------------------------------------------ *)

(* [Holds] marks an invariant: a bool that must be true. *)
type bound =
  | Any
  | At_least of float
  | Above of float
  | Within of float * float
  | Holds

(* [Key] fields identify a cell and label it in paths; [Timed] fields
   are wall-clock measurements that differ from run to run, so the drift
   comparison skips them. *)
type role = Key | Det | Timed

(* [When (k, v)]: required when the sibling string field [k] is [v],
   optional otherwise. *)
type need = Required | Optional | When of string * string

type ty = Int | Float | Bool | Str | Obj of shape | Cells of shape
and shape = Shape : 'r kind -> shape

(* [rules] relate fields of one object; they run once every field of the
   object is well typed. *)
and 'r kind = { fields : 'r field list; rules : (string * (J.t -> bool)) list }

and 'r field = {
  name : string;
  ty : ty;
  bound : bound;
  role : role;
  need : need;
  get : 'r -> J.t option;  (** [None]: the writer omits the field *)
}

let kind ?(rules = []) fields = { fields; rules }

let field ?(bound = Any) ?(role = Det) ?(need = Required) name ty get =
  { name; ty; bound; role; need; get }

let int ?(bound = At_least 0.) ?role name get =
  field ~bound ?role name Int (fun r -> Some (J.Int (get r)))

let float ?bound ?role name get =
  field ?bound ?role name Float (fun r -> Some (J.Float (get r)))

let str ?role name get = field ?role name Str (fun r -> Some (J.String (get r)))
let bool ?role name get = field ?role name Bool (fun r -> Some (J.Bool (get r)))
let invariant name get =
  field ~bound:Holds name Bool (fun r -> Some (J.Bool (get r)))

let encode k v =
  J.Assoc
    (List.filter_map
       (fun f -> Option.map (fun j -> (f.name, j)) (f.get v))
       k.fields)

let obj name k get =
  field name (Obj (Shape k)) (fun r -> Some (encode k (get r)))

let cells ?need name k get =
  field ?need name (Cells (Shape k)) (fun r ->
      Option.map (fun l -> J.List (List.map (encode k) l)) (get r))

(* a field read by a rule, validated before any rule runs *)
let num o k = Option.get (Option.bind (J.member k o) J.to_float_opt)

(* --- cell kinds ------------------------------------------------------- *)

(* One point of the multiprocessor sweep (E21) attached to a (program,
   schema) record: cycle count and network traffic at a given PE count
   and placement, plus whether the run reproduced the reference store. *)
type mp_cell = {
  mp_pes : int;
  mp_placement : string;  (** {!Machine.Placement.policy_to_string} *)
  mp_cycles : int;
  mp_net_messages : int;  (** tokens that crossed PEs *)
  mp_cut_traffic : float;  (** cross-PE fraction of all deliveries *)
  mp_backpressure : int;
  mp_avg_utilisation : float;  (** mean per-PE busy fraction *)
  mp_determinate : bool;  (** final store equals the reference *)
}

let mp_cell =
  kind
    [
      int ~role:Key ~bound:(At_least 1.) "pes" (fun c -> c.mp_pes);
      str ~role:Key "placement" (fun c -> c.mp_placement);
      int "cycles" (fun c -> c.mp_cycles);
      int "net_messages" (fun c -> c.mp_net_messages);
      float "cut_traffic" (fun c -> c.mp_cut_traffic);
      int "backpressure" (fun c -> c.mp_backpressure);
      float "avg_utilisation" (fun c -> c.mp_avg_utilisation);
      invariant "determinate" (fun c -> c.mp_determinate);
    ]

(* One point of the fault-tolerance sweep (E22): a faulty
   multiprocessor run (seeded link faults plus one PE fail-stop) under
   reliable transport and checkpoint/replay, with its cost relative to
   the fault-free baseline at the same PE count and placement. *)
type recovery_cell = {
  rc_pes : int;
  rc_placement : string;
  rc_interval : int;  (** checkpoint interval, cycles *)
  rc_cycles : int;  (** faulty + recovered makespan *)
  rc_baseline_cycles : int;  (** fault-free makespan, same cell *)
  rc_overhead : float;  (** [cycles / baseline - 1] *)
  rc_deaths : int;
  rc_rollbacks : int;  (** restores (death- or sanitizer-driven) *)
  rc_checkpoints : int;
  rc_lost_cycles : int;  (** progress discarded by rollbacks *)
  rc_replayed_firings : int;
  rc_retransmits : int;  (** transport timeout-driven resends *)
  rc_recovered : bool;
      (** clean completion and the final store equals the reference *)
}

let recovery_cell =
  kind
    [
      int ~bound:(At_least 1.) "pes" (fun c -> c.rc_pes);
      str "placement" (fun c -> c.rc_placement);
      int ~role:Key ~bound:(At_least 1.) "checkpoint_interval" (fun c ->
          c.rc_interval);
      int "cycles" (fun c -> c.rc_cycles);
      int "baseline_cycles" (fun c -> c.rc_baseline_cycles);
      float "overhead" (fun c -> c.rc_overhead);
      int "deaths" (fun c -> c.rc_deaths);
      int "rollbacks" (fun c -> c.rc_rollbacks);
      int "checkpoints" (fun c -> c.rc_checkpoints);
      int "lost_cycles" (fun c -> c.rc_lost_cycles);
      int "replayed_firings" (fun c -> c.rc_replayed_firings);
      int "retransmits" (fun c -> c.rc_retransmits);
      invariant "recovered" (fun c -> c.rc_recovered);
    ]

(* One point of the certificate-overhead sweep (E23): the same graph
   executed with its fractional-permission certificate attached and with
   it stripped, at the same PE count.  Certification is bookkeeping on
   token payloads that never changes scheduling, so the overhead is
   exactly 0.0; the cell keeps that claim measured rather than
   asserted. *)
type certificate_cell = {
  cc_pes : int;  (** 1 = the single-PE machine *)
  cc_elements : int;  (** cover elements (tokens) tracked *)
  cc_checks : int;  (** ownership assertions during the run *)
  cc_cycles : int;  (** certified makespan *)
  cc_stripped_cycles : int;  (** same graph, certificate removed *)
  cc_overhead : float;  (** [cycles / stripped_cycles - 1] *)
  cc_clean : bool;  (** run completed with zero standing violations *)
}

let certificate_cell =
  kind
    [
      int ~role:Key ~bound:(At_least 1.) "pes" (fun c -> c.cc_pes);
      int ~bound:(At_least 1.) "elements" (fun c -> c.cc_elements);
      int "ownership_checks" (fun c -> c.cc_checks);
      int "cycles" (fun c -> c.cc_cycles);
      int "stripped_cycles" (fun c -> c.cc_stripped_cycles);
      float "overhead" (fun c -> c.cc_overhead);
      invariant "certified_clean" (fun c -> c.cc_clean);
    ]

(* One point of the engine-throughput comparison (E24): the same
   compiled graph executed end to end under an execution engine, timed
   best-of-[tp_runs].  [tp_speedup] is relative to the [reference] cell
   of the same record, which carries 1.0. *)
type throughput_cell = {
  tp_engine : string;  (** {!Machine.Config.engine_to_string} *)
  tp_firings : int;  (** firings per run (identical across engines) *)
  tp_runs : int;  (** timed repetitions *)
  tp_seconds : float;  (** best-of wall-clock seconds per run *)
  tp_firings_per_sec : float;  (** [tp_firings / tp_seconds] *)
  tp_speedup : float;  (** reference seconds / this engine's seconds *)
  tp_identical : bool;  (** final store equals the reference engine's *)
}

let throughput_cell =
  kind
    [
      str ~role:Key "engine" (fun c -> c.tp_engine);
      int ~bound:(At_least 1.) "firings" (fun c -> c.tp_firings);
      int ~bound:(At_least 1.) "runs" (fun c -> c.tp_runs);
      float ~role:Timed ~bound:(Above 0.) "seconds_per_run" (fun c ->
          c.tp_seconds);
      float ~role:Timed ~bound:(Above 0.) "firings_per_sec" (fun c ->
          c.tp_firings_per_sec);
      float ~role:Timed "speedup" (fun c -> c.tp_speedup);
      invariant "identical_store" (fun c -> c.tp_identical);
    ]

(* One timed point of the batch-service sweep (E25): the oracle's
   (program x combo) grid submitted as one batch to [df_compile serve]
   at a given domain count.  [sv_speedup] is relative to the
   [sv_jobs = 1] cell, which carries 1.0. *)
type service_cell = {
  sv_jobs : int;  (** worker domains *)
  sv_batch : int;  (** jobs in the batch *)
  sv_seconds : float;  (** wall-clock seconds for the batch *)
  sv_jobs_per_sec : float;  (** [sv_batch / sv_seconds] *)
  sv_speedup : float;  (** jobs=1 seconds / this cell's seconds *)
}

let service_cell =
  kind
    [
      int ~role:Key ~bound:(At_least 1.) "jobs" (fun c -> c.sv_jobs);
      int ~bound:(At_least 1.) "batch" (fun c -> c.sv_batch);
      float ~role:Timed ~bound:(Above 0.) "seconds" (fun c -> c.sv_seconds);
      float ~role:Timed ~bound:(Above 0.) "jobs_per_sec" (fun c ->
          c.sv_jobs_per_sec);
      float ~role:Timed ~bound:(Above 0.) "speedup" (fun c -> c.sv_speedup);
    ]

(* One point of the availability sweep (E27): a batch of jobs pushed
   through the supervised shard service at one chaos rate.  Every field
   is a deterministic function of the chaos plan (a pure hash of the
   seed and submission order), so the cell carries no timings.
   [av_divergences] counts successful replies whose bytes differ from
   the serial stdin path. *)
type availability_cell = {
  av_chaos_rate : float;  (** injected fault probability *)
  av_shards : int;  (** worker subprocesses *)
  av_deadline_ms : int;  (** per-job deadline (0 = off) *)
  av_jobs : int;  (** batch size *)
  av_ok : int;
  av_shard_crash : int;
  av_deadline : int;
  av_overloaded : int;
  av_restarts : int;  (** shard respawns observed during the batch *)
  av_divergences : int;
  av_success_rate : float;  (** [av_ok / av_jobs] *)
}

let availability_cell =
  kind
    ~rules:
      [
        ( "outcome counts partition the batch",
          fun o ->
            num o "ok" +. num o "shard_crash" +. num o "deadline"
            +. num o "overloaded"
            = num o "jobs" );
        ( "success_rate is ok / jobs",
          fun o ->
            Float.abs (num o "success_rate" -. (num o "ok" /. num o "jobs"))
            < 1e-9 );
      ]
    [
      float ~role:Key ~bound:(Within (0., 1.)) "chaos_rate" (fun c ->
          c.av_chaos_rate);
      int ~bound:(At_least 1.) "shards" (fun c -> c.av_shards);
      int "deadline_ms" (fun c -> c.av_deadline_ms);
      int ~bound:(At_least 1.) "jobs" (fun c -> c.av_jobs);
      int "ok" (fun c -> c.av_ok);
      int "shard_crash" (fun c -> c.av_shard_crash);
      int "deadline" (fun c -> c.av_deadline);
      int "overloaded" (fun c -> c.av_overloaded);
      int "restarts" (fun c -> c.av_restarts);
      int ~bound:(Within (0., 0.)) "divergences" (fun c -> c.av_divergences);
      float "success_rate" (fun c -> c.av_success_rate);
    ]

(* One point of the scaling sweep (E26): a topology x placement x
   stealing configuration of one compiled program at one PE count.
   [sc_net_hops / sc_net_messages] is the mean communication distance. *)
type scale_cell = {
  sc_pes : int;
  sc_net : string;  (** "uniform" | "mesh" | "torus" | "cube" *)
  sc_placement : string;
  sc_steal : bool;
  sc_cycles : int;
  sc_firings : int;
  sc_fpc : float;  (** firings per cycle, the throughput figure *)
  sc_speedup : float;  (** vs the p=1 cell of the same configuration *)
  sc_net_messages : int;
  sc_net_hops : int;  (** link traversals: messages weighted by distance *)
  sc_steals : int;
  sc_determinate : bool;
}

let scale_cell =
  kind
    ~rules:
      [
        ( "at least one link hop per message",
          fun o -> num o "net_hops" >= num o "net_messages" );
      ]
    [
      int ~role:Key ~bound:(At_least 1.) "pes" (fun c -> c.sc_pes);
      str ~role:Key "net" (fun c -> c.sc_net);
      str ~role:Key "placement" (fun c -> c.sc_placement);
      bool ~role:Key "steal" (fun c -> c.sc_steal);
      int "cycles" (fun c -> c.sc_cycles);
      int "firings" (fun c -> c.sc_firings);
      float ~bound:(At_least 0.) "firings_per_cycle" (fun c -> c.sc_fpc);
      float "speedup" (fun c -> c.sc_speedup);
      int "net_messages" (fun c -> c.sc_net_messages);
      int "net_hops" (fun c -> c.sc_net_hops);
      int "steals" (fun c -> c.sc_steals);
      invariant "determinate" (fun c -> c.sc_determinate);
    ]

(* --- sections --------------------------------------------------------- *)

(* The metrics of a (program, schema) cell that compiled and ran:
   static graph statistics, the single-PE run with its firing log, and
   its check against the reference interpreter. *)
type metrics = {
  stats : Dfg.Stats.t;
  result : Machine.Interp.result;
  log : Machine.Trace.t;
  reference_ok : bool;
}

(* One matrix cell.  [status] is "ok", "unsupported-aliasing",
   "irreducible" or "stalled"; only "ok" cells carry metrics and
   sweeps. *)
type record = {
  program : string;
  schema : string;
  status : string;
  metrics : metrics option;
  multiproc : mp_cell list option;
  recovery : recovery_cell list option;
  certificate : certificate_cell list option;
  throughput : throughput_cell list option;
}

let record =
  let metric ?bound ty name get =
    field ?bound ~need:(When ("status", "ok")) name ty (fun r ->
        Option.map get r.metrics)
  in
  let count name get =
    metric ~bound:(At_least 0.) Int name (fun m -> J.Int (get m))
  in
  let sweep name k get = cells ~need:Optional name k get in
  kind
    [
      str ~role:Key "program" (fun r -> r.program);
      str ~role:Key "schema" (fun r -> r.schema);
      str "status" (fun r -> r.status);
      count "nodes" (fun m -> m.stats.Dfg.Stats.nodes);
      count "arcs" (fun m -> m.stats.Dfg.Stats.arcs);
      count "switches" (fun m -> m.stats.Dfg.Stats.switches);
      count "merges" (fun m -> m.stats.Dfg.Stats.merges);
      count "critical_path_static" (fun m -> m.stats.Dfg.Stats.critical_path);
      count "cycles" (fun m -> m.result.Machine.Interp.cycles);
      count "firings" (fun m -> m.result.Machine.Interp.firings);
      count "memory_ops" (fun m -> m.result.Machine.Interp.memory_ops);
      metric Float "avg_parallelism" (fun m ->
          J.Float (Machine.Interp.avg_parallelism m.result));
      count "peak_parallelism" (fun m ->
          m.result.Machine.Interp.peak_parallelism);
      count "peak_matching" (fun m -> m.result.Machine.Interp.peak_matching);
      count "critical_path_dynamic" (fun m ->
          Machine.Trace.critical_path m.log);
      count "switch_firings" (fun m ->
          Option.value ~default:0
            (List.assoc_opt "switch" m.result.Machine.Interp.firings_by_kind));
      count "max_context_overlap" (fun m ->
          Machine.Trace.max_context_overlap m.log);
      metric ~bound:Holds Bool "reference_ok" (fun m -> J.Bool m.reference_ok);
      sweep "multiproc" mp_cell (fun r -> r.multiproc);
      sweep "recovery" recovery_cell (fun r -> r.recovery);
      sweep "certificate" certificate_cell (fun r -> r.certificate);
      sweep "throughput" throughput_cell (fun r -> r.throughput);
    ]

(* Cross-matrix scalars of the multiprocessor sweep. *)
type summary = {
  speedup_p8 : float;  (** best p=1 / p=8 cycle ratio over the examples *)
  cut_traffic_ratio : float;  (** affinity / hash messages at p=4 *)
  multiproc_determinate : bool;
}

let summary =
  kind
    [
      float "speedup_p8" (fun s -> s.speedup_p8);
      float "cut_traffic_ratio" (fun s -> s.cut_traffic_ratio);
      invariant "multiproc_determinate" (fun s -> s.multiproc_determinate);
    ]

(* The batch-service sweep (E25) with its cache counters, and the
   availability sweep (E27). *)
type service = {
  batch : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  hit_rate : float;
  deterministic : bool;  (** batch output identical at every jobs setting *)
  timed : service_cell list;
  chaos_seed : int;
  availability : availability_cell list;
}

let service =
  kind
    [
      int "batch" (fun s -> s.batch);
      int "cache_hits" (fun s -> s.cache_hits);
      int "cache_misses" (fun s -> s.cache_misses);
      int "cache_evictions" (fun s -> s.cache_evictions);
      float "hit_rate" (fun s -> s.hit_rate);
      invariant "deterministic" (fun s -> s.deterministic);
      cells "cells" service_cell (fun s -> Some s.timed);
      obj "availability"
        (kind
           [
             int "chaos_seed" (fun s -> s.chaos_seed);
             cells "cells" availability_cell (fun s -> Some s.availability);
           ])
        Fun.id;
    ]

(* The two configurations the E26 floor compares: the full scaling
   stack at p=64 against the uniform-wire baseline at p=16. *)
let scale_config pes net placement steal =
  [
    ("pes", J.Int pes);
    ("net", J.String net);
    ("placement", J.String placement);
    ("steal", J.Bool steal);
  ]

let scale_hi = scale_config 64 "mesh" "hier" true
let scale_lo = scale_config 16 "uniform" "hash" false
let matches sel j = List.for_all (fun (k, v) -> J.member k j = Some v) sel

(* The scaling sweep (E26): one program under one schema across the
   extended PE axis. *)
type scale = {
  scale_program : string;
  scale_schema : string;
  scale_cells : scale_cell list;
}

let scale =
  let fpc sel s =
    List.find_opt (fun c -> matches sel (encode scale_cell c)) s.scale_cells
    |> Option.fold ~none:0.0 ~some:(fun c -> c.sc_fpc)
  in
  kind
    [
      str "program" (fun s -> s.scale_program);
      str "schema" (fun s -> s.scale_schema);
      int "max_pes" (fun s ->
          List.fold_left (fun m c -> max m c.sc_pes) 1 s.scale_cells);
      float "fpc_floor_lo" (fpc scale_lo);
      float "fpc_floor_hi" (fpc scale_hi);
      invariant "determinate" (fun s ->
          List.for_all (fun c -> c.sc_determinate) s.scale_cells);
      cells "cells" scale_cell (fun s -> Some s.scale_cells);
    ]

type doc = {
  summary : summary;
  service : service;
  scale : scale;
  records : record list;
}

let document =
  kind
    [
      obj "meta"
        (kind
           [
             int ~bound:(Within (float_of_int version, float_of_int version))
               "schema_version" (fun () -> version);
             str "generator" (fun () -> "bench/main.exe --json");
             str "unit" (fun () -> "machine cycles");
           ])
        ignore;
      obj "multiproc_summary" summary (fun d -> d.summary);
      obj "service" service (fun d -> d.service);
      obj "scale" scale (fun d -> d.scale);
      cells "records" record (fun d -> Some d.records);
    ]

(* --- validation and drift -------------------------------------------- *)

let scalar = function J.String s -> s | j -> J.to_string j
let sub path name = if path = "" then name else path ^ "." ^ name

(* [records[program=stencil,schema=schema2-opt]]: a cell labelled by its
   key fields, or by its index when it has none *)
let elem path k i c =
  let keys =
    List.filter_map
      (fun f ->
        if f.role = Key then
          Option.map (fun v -> f.name ^ "=" ^ scalar v) (J.member f.name c)
        else None)
      k.fields
  in
  Fmt.str "%s[%s]" path
    (if keys = [] then string_of_int i else String.concat "," keys)

let show_bound = function
  | Any -> ""
  | At_least x -> Fmt.str ">= %g" x
  | Above x -> Fmt.str "> %g" x
  | Within (lo, hi) when lo = hi -> Fmt.str "%g" lo
  | Within (lo, hi) -> Fmt.str "in [%g, %g]" lo hi
  | Holds -> "true"

let in_bound b x =
  match b with
  | Any | Holds -> true
  | At_least lo -> x >= lo
  | Above lo -> x > lo
  | Within (lo, hi) -> lo <= x && x <= hi

(* Every violation of the declared schema, each naming its JSON path. *)
let validate (j : J.t) : string list =
  let errs = ref [] in
  let fail path msg = errs := Fmt.str "%s: %s" path msg :: !errs in
  let rec obj : type r. string -> r kind -> J.t -> unit =
   fun path k j ->
    match j with
    | J.Assoc kvs ->
        let before = List.length !errs in
        List.iter
          (fun f ->
            let p = sub path f.name in
            match (List.assoc_opt f.name kvs, f.need) with
            | None, Optional -> ()
            | None, When (s, v) when List.assoc_opt s kvs <> Some (J.String v)
              ->
                ()
            | None, _ -> fail p "missing"
            | Some v, _ -> value p f v)
          k.fields;
        List.iter
          (fun (name, _) ->
            if not (List.exists (fun f -> f.name = name) k.fields) then
              fail (sub path name) "undeclared field")
          kvs;
        if List.length !errs = before then
          List.iter
            (fun (what, ok) -> if not (ok j) then fail path what)
            k.rules
    | _ -> fail path "not an object"
  and value : type r. string -> r field -> J.t -> unit =
   fun p f v ->
    let bounded x =
      if not (in_bound f.bound x) then
        fail p (Fmt.str "%s, must be %s" (scalar v) (show_bound f.bound))
    in
    match (f.ty, v) with
    | Int, J.Int n -> bounded (float_of_int n)
    | Float, (J.Int _ | J.Float _) -> bounded (Option.get (J.to_float_opt v))
    | Bool, J.Bool b ->
        if f.bound = Holds && not b then fail p "false, must be true"
    | Str, J.String _ -> ()
    | Obj (Shape k), _ -> obj p k v
    | Cells (Shape k), J.List (_ :: _ as l) ->
        List.iteri (fun i c -> obj (elem p k i c) k c) l
    | Cells _, _ -> fail p "not a non-empty list"
    | (Int | Float | Bool | Str), _ -> fail p (scalar v ^ " has the wrong type")
  in
  obj "" document j;
  List.rev !errs

(* Every untimed field on which [actual] differs from [expected], each
   naming its JSON path. *)
let drift ~(expected : J.t) (actual : J.t) : string list =
  let errs = ref [] in
  let show = function
    | None -> "absent"
    | Some (J.List _ | J.Assoc _) -> "present"
    | Some v -> scalar v
  in
  let rec obj : type r. string -> r kind -> J.t -> J.t -> unit =
   fun path k e a ->
    List.iter
      (fun f ->
        let p = sub path f.name in
        match (f.role, f.ty, J.member f.name e, J.member f.name a) with
        | Timed, _, _, _ | _, _, None, None -> ()
        | _, Obj (Shape k), Some e, Some a -> obj p k e a
        | _, Cells (Shape k), Some (J.List es), Some (J.List xs)
          when List.length es = List.length xs ->
            List.iteri
              (fun i (e, a) -> obj (elem p k i e) k e a)
              (List.combine es xs)
        | _, Cells _, Some (J.List es), Some (J.List xs) ->
            errs :=
              Fmt.str "%s: %d cells committed, %d now" p (List.length es)
                (List.length xs)
              :: !errs
        | _, _, e, a ->
            if Option.map J.to_string e <> Option.map J.to_string a then
              errs :=
                Fmt.str "%s: %s committed, %s now" p (show e) (show a) :: !errs)
      k.fields
  in
  obj "" document expected actual;
  List.rev !errs

(* --- floors ----------------------------------------------------------- *)

(* A query descends through object fields and selects the list
   elements whose fields match; [Select []] keeps every element. *)
type step = Field of string | Select of (string * J.t) list

(* [One] needs exactly one matching cell; the others fold over all. *)
type agg = One | Min | Max | Sum
type operand = Cell of agg * step list | Const of float
type cmp = Lt | Le | Gt | Ge

type floor = {
  exp : string;  (** experiment id in EXPERIMENTS.md *)
  claim : string;
  lhs : operand;
  cmp : cmp;
  rhs : operand;
  min_cores : int;  (** enforced only on a host with this many cores *)
}

let rec select q j =
  match (q, j) with
  | [], _ -> [ j ]
  | Field k :: rest, _ -> (
      match J.member k j with Some v -> select rest v | None -> [])
  | Select sel :: rest, J.List l ->
      List.concat_map (fun c -> if matches sel c then select rest c else []) l
  | Select _ :: _, _ -> []

let show_query q =
  String.concat ""
    (List.mapi
       (fun i -> function
         | Field k -> if i = 0 then k else "." ^ k
         | Select sel ->
             "["
             ^ String.concat ","
                 (List.map (fun (k, v) -> k ^ "=" ^ scalar v) sel)
             ^ "]")
       q)

let floor ?(min_cores = 1) exp claim lhs cmp rhs =
  { exp; claim; lhs; cmp; rhs; min_cores }

let one q = Cell (One, q)

let stencil schema =
  [
    Field "records";
    Select [ ("program", J.String "stencil"); ("schema", J.String schema) ];
  ]

let sweep name sel field = [ Field name; Select sel; Field field ]
let chaos rate field =
  Field "service" :: Field "availability"
  :: sweep "cells" [ ("chaos_rate", J.Float rate) ] field

let fpc sel = one (Field "scale" :: sweep "cells" sel "firings_per_cycle")

let mp_cycles pes =
  Cell
    ( Min,
      stencil "schema2-opt" @ sweep "multiproc" [ ("pes", J.Int pes) ] "cycles"
    )

let mp_messages placement =
  Cell
    ( Sum,
      Field "records" :: Select []
      :: sweep "multiproc"
           [ ("pes", J.Int 4); ("placement", J.String placement) ]
           "net_messages" )

(* the domain count of the parallel serve cell, which the E25 speedup
   floor reads and needs as many cores to mean anything *)
let serve_jobs = 4

let floors =
  [
    floor "E20" "pipelined loop control is more parallel than Schema 1"
      (one (stencil "schema2-pipelined" @ [ Field "avg_parallelism" ]))
      Gt
      (one (stencil "schema1" @ [ Field "avg_parallelism" ]));
    floor "E21" "schema 2-opt needs fewer cycles at p=4 than at p=1"
      (mp_cycles 4) Lt (mp_cycles 1);
    floor "E21" "affinity placement sends no more messages than hash"
      (mp_messages "affinity") Le (mp_messages "hash");
    floor "E22" "recovery overhead at the default checkpoint interval"
      (one
         (stencil "schema2-opt"
         @ sweep "recovery" [ ("checkpoint_interval", J.Int 25) ] "overhead"))
      Le (Const 0.25);
    floor "E23" "certificate overhead at p=4"
      (one
         (stencil "schema2-opt"
         @ sweep "certificate" [ ("pes", J.Int 4) ] "overhead"))
      Le (Const 0.15);
    floor "E24" "packed engine speedup over the reference interpreter"
      (one
         (stencil "schema2-opt"
         @ sweep "throughput" [ ("engine", J.String "packed") ] "speedup"))
      Ge (Const 10.);
    floor "E25" "warm-cache hit rate"
      (one [ Field "service"; Field "hit_rate" ])
      Ge (Const 0.5);
    floor "E25" ~min_cores:serve_jobs "serve speedup over --jobs 1"
      (one
         (Field "service"
         :: sweep "cells" [ ("jobs", J.Int serve_jobs) ] "speedup"))
      Ge (Const 2.);
    floor "E25" "serve batch rate"
      (Cell (Max, Field "service" :: sweep "cells" [] "jobs_per_sec"))
      Ge (Const 5.);
    floor "E26" "the scaling stack beats the uniform-wire baseline"
      (fpc scale_hi) Gt (fpc scale_lo);
    floor "E27" "availability at the committed chaos rate"
      (one (chaos 0.05 "success_rate"))
      Ge (Const 0.9);
    floor "E27" "shard restarts observed at the committed chaos rate"
      (one (chaos 0.05 "restarts"))
      Gt (Const 0.);
    floor "E27" "every fault-free job succeeds"
      (one (chaos 0.0 "ok"))
      Ge
      (one (chaos 0.0 "jobs"));
  ]

let operand doc =
  let named how name x = Ok (Fmt.str "%s %s = %g" how name x, x) in
  function
  | Const x -> Ok (Fmt.str "%g" x, x)
  | Cell (agg, q) -> (
      let name = show_query q in
      match (agg, List.filter_map J.to_float_opt (select q doc)) with
      | _, [] -> Error (Fmt.str "no cell at %s" name)
      | One, [ x ] -> Ok (Fmt.str "%s = %g" name x, x)
      | One, xs ->
          Error
            (Fmt.str "%d cells at %s, expected one" (List.length xs) name)
      | Min, x :: xs -> named "min" name (List.fold_left min x xs)
      | Max, x :: xs -> named "max" name (List.fold_left max x xs)
      | Sum, xs -> named "sum" name (List.fold_left ( +. ) 0.0 xs))

(* [Ok] describes a floor that holds (or is not enforced on this host);
   [Error] names the cell that crossed it or is missing. *)
let check_floor ~cores doc f =
  let head = Fmt.str "%s %s" f.exp f.claim in
  if cores < f.min_cores then
    Ok
      (Fmt.str "%s: not enforced on %d core(s), needs %d" head cores
         f.min_cores)
  else
    match (operand doc f.lhs, operand doc f.rhs) with
    | Error e, _ | _, Error e -> Error (Fmt.str "%s: %s" head e)
    | Ok (ln, l), Ok (rn, r) ->
        let op, holds =
          match f.cmp with
          | Lt -> ("<", l < r)
          | Le -> ("<=", l <= r)
          | Gt -> (">", l > r)
          | Ge -> (">=", l >= r)
        in
        let msg = Fmt.str "%s: %s %s %s" head ln op rn in
        if holds then Ok msg else Error (msg ^ " does not hold")

(* Validation errors, then one result per floor; [cores] is the core
   count of the host that produced [doc]. *)
let check ~cores doc =
  List.map Result.error (validate doc)
  @ List.map (check_floor ~cores doc) floors

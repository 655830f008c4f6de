(* The repo benchmark: three workloads, end to end (--trace 0) and layer
   by layer (--trace 1).  BENCHMARK.json and README.md record why each
   workload exists and which layers it loads.

   Usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1
   (run from the root of a built checkout; perfbench/run.sh builds).

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  A wrong answer aborts
   the run the way bench/throughput.ml refuses to time a divergence:
   "correct" is false and the exit status is 1. *)

module J = Machine.Json

exception Wrong of string

let wrong fmt = Printf.ksprintf (fun m -> raise (Wrong m)) fmt
let fail = Proc.fail
let now_ns = Trace.now_ns
let ms_since = Proc.ms_since
let s_since t0 = ms_since t0 /. 1000.0

(* --- statistics -------------------------------------------------------- *)

(* Nearest-rank percentile. *)
let percentile q (xs : float list) =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let median = percentile 0.5
let sum_i = List.fold_left ( + ) 0
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* --- results ----------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let print_result ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then J.Float v else J.Float 0.0 in
  print_endline
    (J.to_string
       (J.Assoc
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ( "metrics",
              J.Assoc
                (List.map
                   (fun x ->
                     (x.name, J.Assoc [ ("value", num x.value); ("unit", J.String x.unit_) ]))
                   metrics) );
          ]))

(* --- replies ----------------------------------------------------------- *)

let parse_reply line =
  match J.of_string line with
  | exception J.Parse_error e -> wrong "unparsable reply (%s): %s" e line
  | j -> j

let is_ok j = J.member "ok" j = Some (J.Bool true)

let int_field j k =
  match Option.bind (J.member k j) J.to_int_opt with
  | Some n -> n
  | None -> wrong "reply without %S: %s" k (J.to_string j)

(* A run reply must carry the reference store and a certificate that
   holds. *)
let check_run j =
  (match J.member "reference" j with
  | Some (J.String "ok") -> ()
  | _ -> wrong "run reply disagrees with the reference interpreter: %s" (J.to_string j));
  match J.member "certificate" j with
  | Some (J.String "violated") -> wrong "certificate violated: %s" (J.to_string j)
  | _ -> ()

(* Every reply must be ok: one that is not (refused, crashed, deadline,
   error) is a wrong answer. *)
let require_ok what line =
  let j = parse_reply line in
  if not (is_ok j) then wrong "%s failed: %s" what line;
  j

(* The window's account: every job sent is attempted.  The window is
   timed in segments, with host probes between them (and, on
   compile-cold, changes of server); its clock stops between segments. *)
type window = {
  mutable lat : float list;
  mutable attempted : int;
  mutable closed_s : float;  (** timed seconds of the closed segments *)
  mutable seg_start : int64;
  mutable probes : float list;  (** Probe.probe times, s *)
}

(* the current window, for the account of an aborted run *)
let current = ref None

let new_window () =
  let w = { lat = []; attempted = 0; closed_s = 0.0; seg_start = 0L; probes = [] } in
  current := Some w;
  w

let open_segment w = w.seg_start <- now_ns ()
let close_segment w = w.closed_s <- w.closed_s +. s_since w.seg_start

(* The window's clock, read inside a segment. *)
let window_s w = w.closed_s +. s_since w.seg_start

(* The host is probed as the window opens and then every [probe_every]
   s of window time. *)
let probe_every = 1.25
let next_probe w = probe_every *. float (List.length w.probes)
let probe w = w.probes <- Probe.probe () :: w.probes

(* The end-to-end figures, times scaled to the reference host speed by
   the run's median probe (see probe.ml); the unscaled figures go to
   standard error. *)
let window_metrics w ~setup_s =
  let probe_s = median w.probes in
  let speed = Probe.reference_s /. probe_s in
  let jobs_per_s = ratio (float w.attempted) w.closed_s in
  let p50 = median w.lat and p90 = percentile 0.9 w.lat in
  Printf.eprintf
    "perfbench: host speed %.3f of the reference (median of %d probes, %.4f s); \
     unscaled setup_s %.4f, jobs_per_s %.2f, latency_ms_p50 %.4f, \
     latency_ms_p90 %.4f\n%!"
    speed (List.length w.probes) probe_s setup_s jobs_per_s p50 p90;
  [
    m "setup_s" "s" (setup_s *. speed);
    m "jobs_per_s" "1/s" (jobs_per_s /. speed);
    m "latency_ms_p50" "ms" (p50 *. speed);
    m "latency_ms_p90" "ms" (p90 *. speed);
    (* a run that gets here had every reply ok *)
    m "success_rate" "ratio" 1.0;
  ]

(* A deterministic count must repeat exactly across the set-ups of a
   run; drift is nondeterminism, not noise. *)
let same_every_time what = function
  | [] -> fail "no %s measured" what
  | x :: rest ->
      if List.exists (( <> ) x) rest then
        wrong "%s differs between set-ups: %s" what
          (String.concat ", " (List.map string_of_int (x :: rest)));
      x

(* One set-up takes 0.1 s (batch-mixed) to 0.8 s (run-warm), so
   setup_s is the median of many. *)
let setups = 11

let out_dir = ".perfbench-out"

let socket_counter = ref 0

let fresh_socket () =
  incr socket_counter;
  Filename.concat out_dir
    (Printf.sprintf "s%d-%d.sock" (Unix.getpid ()) !socket_counter)

let kib_to_mb kb = float kb /. 1024.0

(* In-process graph counts for a (source, schema, optimize) job. *)
let graph_stats ~schema ~optimize src =
  let c = Dflow.Driver.compile_string (Layers.spec_of schema) src in
  let g =
    if optimize then Dfg.Opt.run (Dfg.Simplify.run c.Dflow.Driver.graph)
    else c.Dflow.Driver.graph
  in
  ({ c with Dflow.Driver.graph = g }, Dfg.Stats.of_graph g)

(* Execute a compiled job on the packed engine and hold its store to
   the reference interpreter; the makespan. *)
let packed_check src (c : Dflow.Driver.compiled) =
  let config = Layers.run_config "packed" in
  match
    Machine.Interp.run_report ~config
      { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout }
  with
  | Error d ->
      wrong "packed run failed: %s"
        (Machine.Diagnosis.verdict_to_string d.Machine.Diagnosis.verdict)
  | Ok r ->
      let reference =
        Imp.Eval.run_program ~fuel:10_000_000 (Imp.Parser.program_of_string src)
      in
      if not (r.Machine.Interp.completed && Imp.Memory.equal reference r.Machine.Interp.memory)
      then wrong "packed store differs from the reference interpreter";
      r.Machine.Interp.cycles

(* --- socket workloads -------------------------------------------------- *)

type served = {
  server : Proc.server;
  conns : Unix.file_descr array;
  slots : Proc.slot array;
  setup_s : float;
  mutable sent : int;  (** jobs submitted over this server's life *)
  mutable window_replies : int;
  mutable rss_kb : int option;  (** see [rss_jobs] *)
}

(* One set-up: start the server, connect twice, warm up.  Set-up time
   is the system's own work: spawn to the end of the warm-up.  [warm]
   returns the jobs it sent and its result. *)
let setup_server ~warm =
  let t0 = now_ns () in
  let server = Proc.start_server ~path:(fresh_socket ()) ~shards:2 in
  let conns = Array.init 2 (fun _ -> Proc.connect server.Proc.path) in
  let sv =
    {
      server;
      conns;
      slots = Proc.slots conns;
      setup_s = 0.0;
      sent = 0;
      window_replies = 0;
      rss_kb = None;
    }
  in
  let counted, x = warm sv in
  ({ sv with setup_s = s_since t0; sent = counted }, x)

(* SIGTERM, exit 0, and drained counters that agree with the client. *)
let close_server sv =
  Array.iter Unix.close sv.conns;
  let d = Proc.stop_server sv.server in
  if
    d.Proc.d_ok <> sv.sent || d.Proc.d_crash <> 0 || d.Proc.d_deadline <> 0
    || d.Proc.d_overloaded <> 0 || d.Proc.d_restarts <> 0
  then
    wrong
      "drained counters disagree with the client: ok=%d (sent %d) crash=%d \
       deadline=%d overloaded=%d restarts=%d"
      d.Proc.d_ok sv.sent d.Proc.d_crash d.Proc.d_deadline d.Proc.d_overloaded
      d.Proc.d_restarts

(* Set up [setups] times; every server but the last is stopped at
   once.  The serving server, each set-up's time, and each warm-up's
   result. *)
let repeated_setup ~warm =
  let rec go k times results =
    let sv, x = setup_server ~warm in
    let times = sv.setup_s :: times and results = x :: results in
    if k + 1 < setups then begin
      close_server sv;
      go (k + 1) times results
    end
    else (sv, times, results)
  in
  go 0 [] []

(* Peak memory is read after a fixed number of window jobs, not at the
   window's end: compile-cold's servers grow with every program they
   keep, and a faster server must not read as a larger one. *)
let rss_jobs = 1000

(* One timed segment of the window: a closed loop on both connections
   until the window's clock reaches [until] or [max_jobs] jobs are sent.
   Job [k] is the window's k-th.  The jobs sent. *)
let closed_segment sv w ~max_jobs ~until ~line_of ~on_reply =
  let deadline =
    Int64.add (now_ns ()) (Int64.of_float ((until -. w.closed_s) *. 1e9))
  in
  let sent = ref 0 in
  let next () =
    if !sent >= max_jobs || now_ns () > deadline then None
    else begin
      let k = w.attempted in
      incr sent;
      w.attempted <- w.attempted + 1;
      sv.sent <- sv.sent + 1;
      Some (k, line_of k)
    end
  in
  open_segment w;
  Proc.closed_loop sv.slots ~next ~on_reply:(fun k line lat ->
      w.lat <- lat :: w.lat;
      sv.window_replies <- sv.window_replies + 1;
      if sv.window_replies = rss_jobs then sv.rss_kb <- Some (Proc.server_hwm_kb sv.server);
      on_reply k (require_ok (Printf.sprintf "window job %d" k) line));
  close_segment w;
  !sent

(* A server's share of the window: closed segments, with a probe
   wherever one is due, until the window's clock reaches [seconds] or the
   server has taken [max_jobs] window jobs.  The servers' peak resident
   memory after [rss_jobs] window replies, or now if it took fewer, in
   KiB. *)
let serve_window ?(max_jobs = max_int) sv w ~seconds ~line_of ~on_reply =
  let rec go left =
    if left > 0 && w.closed_s < seconds then begin
      if w.closed_s >= next_probe w then probe w;
      let until = Float.min seconds (next_probe w) in
      go (left - closed_segment sv w ~max_jobs:left ~until ~line_of ~on_reply)
    end
  in
  go max_jobs;
  match sv.rss_kb with Some kb -> kb | None -> Proc.server_hwm_kb sv.server

(* Stream tags: canonical sets are seed-independent, window streams are
   drawn from --seed; distinct tags never share a job. *)
let canon_seed = 0
let tag_canon = 101
let tag_window = 1
let tag_warm_order = 2
let tag_draws = 3
let tag_sample = 4

(* ---------------------------------------------------------------------- *)
(* compile-cold                                                            *)

let cc_canon_jobs = 32
let cc_sample = 16

(* compile-cold's servers grow by about 0.85 MB per program compiled,
   past the Memo's entry limits (4.7 GB after a 30 s window on the
   reference host).  So a server takes at most [epoch_jobs] window jobs
   (about 1.3 GB), and then a new server, set up as the first was, takes
   over; the window's clock stops while servers change. *)
let epoch_jobs = 1500

let compile_cold ~seed ~seconds =
  let seen = Hashtbl.create 4096 in
  let canon =
    Gen.distinct_compile_jobs ~seed:canon_seed ~tag:tag_canon ~seen cc_canon_jobs
  in
  let window_jobs = ref [||] and lines = ref [||] in
  (* window jobs [0, n), generated while the window's clock is stopped *)
  let generate n =
    let first = Array.length !window_jobs in
    if n > first then begin
      let js = Gen.distinct_compile_jobs ~first ~seed ~tag:tag_window ~seen (n - first) in
      window_jobs := Array.append !window_jobs js;
      lines := Array.append !lines (Array.mapi (fun i j -> Gen.compile_line (first + i) j) js)
    end
  in
  let warm sv =
    let nodes = Array.make cc_canon_jobs 0 and cp = Array.make cc_canon_jobs 0 in
    let i = ref 0 in
    Proc.closed_loop sv.slots
      ~next:(fun () ->
        if !i >= cc_canon_jobs then None
        else begin
          let k = !i in
          incr i;
          Some (k, Gen.compile_line k canon.(k))
        end)
      ~on_reply:(fun k line _ ->
        let j = require_ok "warm-up job" line in
        nodes.(k) <- int_field j "nodes";
        cp.(k) <- int_field j "critical_path");
    (cc_canon_jobs, (nodes, cp))
  in
  let sv, times, warm_results = repeated_setup ~warm in
  let w = new_window () in
  let replies = Hashtbl.create 4096 in
  let on_reply k j =
    Hashtbl.replace replies k (int_field j "nodes", int_field j "critical_path")
  in
  let rec serve sv times results rss =
    generate (w.attempted + epoch_jobs);
    let kb =
      serve_window ~max_jobs:epoch_jobs sv w ~seconds
        ~line_of:(fun k -> !lines.(k)) ~on_reply
    in
    let rss = Option.value rss ~default:kb in
    close_server sv;
    if w.closed_s >= seconds then (times, results, rss)
    else
      let sv, x = setup_server ~warm in
      serve sv (sv.setup_s :: times) (x :: results) (Some rss)
  in
  let times, warm_results, rss = serve sv times warm_results None in
  (* untimed: a seeded sample of window programs, compiled in process,
     must give the graph the server described and, on the packed
     engine, the reference interpreter's store *)
  let done_ = Hashtbl.fold (fun k _ acc -> k :: acc) replies [] |> List.sort compare |> Array.of_list in
  let rand = Gen.rng seed tag_sample 0 in
  for _ = 1 to min cc_sample (Array.length done_) do
    let k = done_.(Random.State.int rand (Array.length done_)) in
    let job = !window_jobs.(k) in
    let c, st = graph_stats ~schema:job.Gen.c_schema ~optimize:job.Gen.c_optimize job.Gen.c_source in
    if (st.Dfg.Stats.nodes, st.Dfg.Stats.critical_path) <> Hashtbl.find replies k then
      wrong "server's graph for job %d differs from the in-process compile" k;
    ignore (packed_check job.Gen.c_source c)
  done;
  (* the canonical set: graph counts from the server, makespans from
     the packed engine *)
  let cycles =
    Array.to_list
      (Array.map
         (fun job ->
           let c, _ = graph_stats ~schema:job.Gen.c_schema ~optimize:job.Gen.c_optimize job.Gen.c_source in
           packed_check job.Gen.c_source c)
         canon)
  in
  let graph_nodes =
    same_every_time "graph_nodes"
      (List.map (fun (n, _) -> Array.fold_left ( + ) 0 n) warm_results)
  in
  let graph_cp =
    same_every_time "graph_critical_path"
      (List.map (fun (_, c) -> Array.fold_left ( + ) 0 c) warm_results)
  in
  ( w,
    window_metrics w ~setup_s:(median times)
    @ [
        m "peak_rss_mb" "MB" (kib_to_mb rss);
        m "graph_nodes" "nodes" (float graph_nodes);
        m "graph_critical_path" "operators" (float graph_cp);
        m "sim_cycles" "cycles" (float (sum_i cycles));
      ] )

(* ---------------------------------------------------------------------- *)
(* run-warm                                                                *)

let warm_sweeps = 2

let run_warm ~seed ~seconds =
  let sources = Gen.working_set () in
  let cells = Gen.warm_cells sources in
  let n = Array.length cells in
  let lines = Array.mapi (fun c cell -> Gen.run_line ~sources c cell) cells in
  let orders =
    Array.init warm_sweeps (fun s ->
        Array.map (fun c -> (c, lines.(c))) (Gen.permutation (Gen.rng seed tag_warm_order s) n))
  in
  let draws = Gen.rng seed tag_draws 0 in
  let cell_of = Hashtbl.create 4096 in
  let line_of k =
    let c = Random.State.int draws n in
    Hashtbl.replace cell_of k c;
    lines.(c)
  in
  let cycles = Array.make n (-1) in
  let record c j =
    check_run j;
    let cy = int_field j "cycles" in
    if cycles.(c) < 0 then cycles.(c) <- cy
    else if cycles.(c) <> cy then
      wrong "cell %d ran in %d cycles, earlier in %d" c cy cycles.(c)
  in
  let warm sv =
    Array.iter
      (fun order ->
        Proc.lockstep sv.slots order ~on_reply:(fun c line _ ->
            record c (require_ok "warm-up job" line)))
      orders;
    (warm_sweeps * n * Array.length sv.slots, ())
  in
  let sv, times, _ = repeated_setup ~warm in
  if Array.exists (fun c -> c < 0) cycles then fail "a cell missed the warm-up";
  let w = new_window () in
  let rss =
    serve_window sv w ~seconds ~line_of ~on_reply:(fun k j ->
        record (Hashtbl.find cell_of k) j)
  in
  close_server sv;
  let graphs =
    List.concat_map
      (fun src ->
        List.map
          (fun schema -> snd (graph_stats ~schema ~optimize:false src))
          (Array.to_list Gen.schemas))
      (Array.to_list sources)
  in
  ( w,
    window_metrics w ~setup_s:(median times)
    @ [
        m "peak_rss_mb" "MB" (kib_to_mb rss);
        m "graph_nodes" "nodes" (float (sum_i (List.map (fun s -> s.Dfg.Stats.nodes) graphs)));
        m "graph_critical_path" "operators"
          (float (sum_i (List.map (fun s -> s.Dfg.Stats.critical_path) graphs)));
        m "sim_cycles" "cycles" (float (Array.fold_left ( + ) 0 cycles));
      ] )

(* ---------------------------------------------------------------------- *)
(* batch-mixed                                                             *)

let batch_jobs = 2

(* Graph counts of a batch's compile replies and makespans of its
   run replies by cell; checks every reply. *)
let batch_replies replies =
  let nodes = ref 0 and cp = ref 0 and cyc = Hashtbl.create 32 in
  Array.iteri
    (fun i line ->
      let j = require_ok (Printf.sprintf "batch line %d" i) line in
      if i mod 2 = 0 then begin
        nodes := !nodes + int_field j "nodes";
        cp := !cp + int_field j "critical_path"
      end
      else begin
        check_run j;
        let c = (i / 2) mod 32 in
        let cy = int_field j "cycles" in
        match Hashtbl.find_opt cyc c with
        | Some x when x <> cy -> wrong "batch cell %d ran in %d cycles, earlier in %d" c cy x
        | _ -> Hashtbl.replace cyc c cy
      end)
    replies;
  (!nodes, !cp, cyc)

let batch_mixed ~seed ~seconds =
  let sources = Gen.batch_sources () in
  let canon =
    Gen.batch ~seed:canon_seed ~tag:tag_canon ~sources
      ~pool:(Gen.batch_programs ~seed:canon_seed ~tag:tag_canon) 0
  in
  let pool = Gen.batch_programs ~seed ~tag:tag_window in
  let batch_of b =
    String.concat "\n" (Array.to_list (Gen.batch ~seed ~tag:tag_window ~pool ~sources b))
  in
  let rss = ref 0 in
  let setup () =
    let lat, replies, kb = Proc.run_batch ~jobs:batch_jobs canon in
    rss := max !rss kb;
    (lat /. 1000.0, batch_replies replies)
  in
  let runs = List.init setups (fun _ -> setup ()) in
  let setup_s = median (List.map fst runs) in
  let counts = List.map snd runs in
  let graph_nodes = same_every_time "graph_nodes" (List.map (fun (n, _, _) -> n) counts) in
  let graph_cp = same_every_time "graph_critical_path" (List.map (fun (_, c, _) -> c) counts) in
  let canon_cycles = (fun (_, _, c) -> c) (List.hd counts) in
  let sim_cycles =
    same_every_time "sim_cycles"
      (List.map (fun (_, _, c) -> Hashtbl.fold (fun _ v a -> a + v) c 0) counts)
  in
  let w = new_window () in
  probe w;
  open_segment w;
  let b = ref 0 in
  while window_s w < seconds do
    if window_s w >= next_probe w then begin
      close_segment w;
      probe w;
      open_segment w
    end;
    let lines = Array.of_list (String.split_on_char '\n' (batch_of !b)) in
    w.attempted <- w.attempted + Array.length lines;
    let lat, replies, kb = Proc.run_batch ~jobs:batch_jobs lines in
    rss := max !rss kb;
    w.lat <- lat :: w.lat;
    let _, _, cyc = batch_replies replies in
    Hashtbl.iter
      (fun c cy ->
        if Hashtbl.find canon_cycles c <> cy then
          wrong "batch cell %d ran in %d cycles, %d in the canonical batch" c cy
            (Hashtbl.find canon_cycles c))
      cyc;
    incr b
  done;
  close_segment w;
  ( w,
    window_metrics w ~setup_s
    @ [
        m "peak_rss_mb" "MB" (kib_to_mb !rss);
        m "graph_nodes" "nodes" (float graph_nodes);
        m "graph_critical_path" "operators" (float graph_cp);
        m "sim_cycles" "cycles" (float sim_cycles);
      ] )

(* ---------------------------------------------------------------------- *)
(* Traced replay (--trace 1)                                              *)

(* The workload's job stream is replayed in this process,
   single-threaded: every job once with spans around each layer call
   (pass B) and once without (pass C), interleaved; then through
   Serve.Server.handle_line as the service runs it (pass D).  Socket
   workloads are also replayed through an in-process Service.Supervisor
   with two shards (pass A) and through the real socket server (pass S).
   End-to-end metrics never come from here. *)

(* Per-layer self time, ms per replayed job: (metric, span name). *)
let self_time_metrics =
  [
    ("imp.parse_ms", "imp.parse");
    ("imp.typecheck_ms", "imp.typecheck");
    ("cfg.build_ms", "cfg.build");
    ("cfg.loopify_ms", "cfg.loopify");
    ("analysis.alias_ms", "analysis.alias");
    ("dflow.translate_ms", "dflow.translate");
    ("dfg.simplify_ms", "dfg.simplify");
    ("dfg.opt_ms", "dfg.opt");
    ("dfg.check_ms", "dfg.check");
    ("dfg.stats_ms", "dfg.stats");
    ("dflow.memo_hit_ms", "dflow.memo_hit");
    ("machine.packed_lower_ms", "machine.packed_lower");
    ("machine.packed_run_ms", "machine.packed_run");
    ("machine.interp_run_ms", "machine.interp_run");
    ("imp.eval_ms", "imp.eval");
    ("machine.multiproc_ms.low_p", "machine.multiproc.low_p");
    ("machine.multiproc_ms.high_p", "machine.multiproc.high_p");
    ("sched.place_ms", "sched.place");
    ("machine.json_decode_ms", "machine.json_decode");
    ("machine.json_encode_ms", "machine.json_encode");
  ]

(* What a replay measured; a layer that never ran reads 0. *)
type layers = {
  jobs : int;  (** replayed jobs: the per-job denominator *)
  self_ms : (string, float) Hashtbl.t;
  traced_ms : float;  (** pass B, sum of job wall times *)
  untraced_ms : float;  (** pass C *)
  whole_ms : float;  (** the whole job as the program runs it (D, or C) *)
  nodes_translated : float;
  nodes_optimized : float;
  packed_firings : int;
  interp_firings : int;
  multiproc_firings : int;
  net_messages : int;
  mem_remote : int;
  steals : int;
  handle_line_ms : float;  (** per job; 0 where no protocol line runs *)
  memo_hit_ratio : float;
  supervisor_overhead_ms : float;
  socket_overhead_ms : float;
  restarts : int;
  rejected : int;
  pool_speedup : float;
}

let empty_layers =
  {
    jobs = 1;
    self_ms = Hashtbl.create 1;
    traced_ms = 0.0;
    untraced_ms = 0.0;
    whole_ms = 0.0;
    nodes_translated = 0.0;
    nodes_optimized = 0.0;
    packed_firings = 0;
    interp_firings = 0;
    multiproc_firings = 0;
    net_messages = 0;
    mem_remote = 0;
    steals = 0;
    handle_line_ms = 0.0;
    memo_hit_ratio = 0.0;
    supervisor_overhead_ms = 0.0;
    socket_overhead_ms = 0.0;
    restarts = 0;
    rejected = 0;
    pool_speedup = 0.0;
  }

let layer_metrics l =
  let per_job x = x /. float l.jobs in
  let self name = Option.value ~default:0.0 (Hashtbl.find_opt l.self_ms name) in
  let rate firings span = ratio (float firings) (self span /. 1000.0) in
  let covered =
    List.fold_left (fun a (_, span) -> a +. self span) 0.0 self_time_metrics
  in
  List.map (fun (metric, span) -> m metric "ms" (per_job (self span))) self_time_metrics
  @ [
      m "dfg.nodes_translated" "nodes" l.nodes_translated;
      m "dfg.nodes_optimized" "nodes" l.nodes_optimized;
      m "dflow.memo_hit_ratio" "ratio" l.memo_hit_ratio;
      m "machine.firings_per_s.packed" "1/s" (rate l.packed_firings "machine.packed_run");
      m "machine.firings_per_s.interp" "1/s" (rate l.interp_firings "machine.interp_run");
      m "machine.firings_per_s.multiproc" "1/s"
        (ratio (float l.multiproc_firings)
           ((self "machine.multiproc.low_p" +. self "machine.multiproc.high_p") /. 1000.0));
      m "machine.net_messages" "count" (per_job (float l.net_messages));
      m "machine.mem_remote" "count" (per_job (float l.mem_remote));
      m "machine.steals" "count" (per_job (float l.steals));
      m "serve.handle_line_ms" "ms" l.handle_line_ms;
      m "service.supervisor_overhead_ms" "ms" l.supervisor_overhead_ms;
      m "serve.socket_overhead_ms" "ms" l.socket_overhead_ms;
      m "service.supervisor_restarts" "count" (float l.restarts);
      m "service.supervisor_rejected" "count" (float l.rejected);
      m "service.pool_speedup" "ratio" l.pool_speedup;
      m "trace.coverage" "ratio" (ratio covered l.whole_ms);
      m "trace.overhead" "ratio" (ratio l.traced_ms l.untraced_ms -. 1.0);
    ]

(* Chrome traces written by this run, reported on stderr. *)
let trace_files = ref []

let write_trace name seed spans =
  let path = Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" name seed) in
  Trace.write_chrome path spans;
  trace_files := path :: !trace_files

(* Run [f] traced and untraced, in alternating order from job to job
   so that neither side gains from running second (a grown heap, warm
   caches); the traced run's spans belong to [job]. *)
let both ~job ~traced ~untraced (tb, tc) =
  let b () =
    Trace.current_job := job;
    Trace.recording := true;
    let t0 = now_ns () in
    let r = Trace.span "job" traced in
    tb := Int64.add !tb (Int64.sub (now_ns ()) t0);
    Trace.recording := false;
    r
  in
  let c () =
    let t0 = now_ns () in
    ignore (untraced ());
    tc := Int64.add !tc (Int64.sub (now_ns ()) t0)
  in
  if job mod 2 = 0 then begin
    let r = b () in
    c ();
    r
  end
  else begin
    c ();
    b ()
  end

(* Passes B and C over protocol lines.  [groups] share nothing: each
   starts from an empty Memo, as each batch process does. *)
let replay_lines (groups : string array list) =
  Trace.reset ();
  let tb = ref 0L and tc = ref 0L and job = ref 0 in
  let sts =
    List.map
      (fun lines ->
        Dflow.Memo.reset ();
        let st = Layers.create lines and st_c = Layers.create lines in
        Array.iteri
          (fun i line ->
            let reply =
              both ~job:!job (tb, tc)
                ~traced:(fun () -> Layers.handle st i line)
                ~untraced:(fun () -> Layers.handle st_c i line)
            in
            incr job;
            Layers.flush st;
            Layers.flush st_c;
            let j = require_ok "replayed job" reply in
            if J.member "op" j = Some (J.String "run") then check_run j)
          lines;
        st)
      groups
  in
  (Trace.ms_of_ns !tb, Trace.ms_of_ns !tc, !job, sts)

(* Pass D: the same lines through Serve.Server.handle_line; ms per job
   and the Memo's hit ratio. *)
let replay_handle_line (groups : string array list) =
  let total = ref 0L and jobs = ref 0 and hits = ref 0 and misses = ref 0 in
  List.iter
    (fun lines ->
      Dflow.Memo.reset ();
      Array.iteri
        (fun i line ->
          let t0 = now_ns () in
          ignore (J.to_string (Serve.Server.handle_line i line));
          total := Int64.add !total (Int64.sub (now_ns ()) t0);
          incr jobs)
        lines;
      let s = Dflow.Memo.stats () in
      hits := !hits + s.Service.Cache.hits;
      misses := !misses + s.Service.Cache.misses)
    groups;
  ( Trace.ms_of_ns !total,
    ratio (float !hits) (float (!hits + !misses)) )

let protocol_layers ~name ~seed groups =
  let traced_ms, untraced_ms, jobs, sts = replay_lines groups in
  let spans = Trace.all () in
  write_trace name seed spans;
  let self_ms = Trace.self_ms_by_name spans in
  let handle_ms, memo_hit_ratio = replay_handle_line groups in
  let sum f = List.fold_left (fun a st -> a + f st) 0 sts in
  let compiles = sum (fun st -> st.Layers.compiles) in
  {
    empty_layers with
    jobs;
    self_ms;
    traced_ms;
    untraced_ms;
    whole_ms = handle_ms;
    nodes_translated = ratio (float (sum (fun st -> st.Layers.nodes_translated))) (float compiles);
    nodes_optimized = ratio (float (sum (fun st -> st.Layers.nodes_final))) (float compiles);
    packed_firings = sum (fun st -> st.Layers.packed_firings);
    interp_firings = sum (fun st -> st.Layers.interp_firings);
    handle_line_ms = handle_ms /. float jobs;
    memo_hit_ratio;
  }

(* A two-client replay: the warm-up (in lockstep when [lockstep]), then
   the window jobs, each client sending its next job as soon as its
   last one returns.  [submit] runs one job. *)
let two_clients ~lockstep ~warm ~window submit =
  let m = Mutex.create () and c = Condition.create () in
  let counter () =
    let r = ref 0 in
    fun n ->
      Mutex.lock m;
      let k = !r in
      incr r;
      Mutex.unlock m;
      if k < n then Some k else None
  in
  let next_warm = counter () and next_window = counter () in
  let arrived = ref 0 and generation = ref 0 and failed = ref None in
  (* a client that fails releases the other from every barrier *)
  let barrier () =
    Mutex.lock m;
    incr arrived;
    if !arrived = 2 then begin
      arrived := 0;
      incr generation;
      Condition.broadcast c
    end
    else begin
      let g = !generation in
      while !generation = g && !failed = None do
        Condition.wait c m
      done
    end;
    Mutex.unlock m
  in
  let rec drain next jobs ~window =
    match next (Array.length jobs) with
    | Some k ->
        submit ~window k jobs.(k);
        drain next jobs ~window
    | None -> ()
  in
  let client () =
    if lockstep then
      Array.iteri
        (fun k job ->
          submit ~window:false k job;
          barrier ())
        warm
    else drain next_warm warm ~window:false;
    barrier ();
    drain next_window window ~window:true
  in
  let t =
    Thread.create
      (fun () ->
        try client ()
        with e ->
          Mutex.lock m;
          failed := Some e;
          Condition.broadcast c;
          Mutex.unlock m)
      ()
  in
  client ();
  Thread.join t;
  Option.iter raise !failed

(* Pass A: an in-process Service.Supervisor with two shards running a
   handler that reports Serve.Server.handle_line's own time and the
   serving shard's Memo delta.  Round trip minus handler time is the
   supervisor's share (queue wait and pipe IPC). *)
let supervisor_pass ~lockstep ~warm ~window =
  Dflow.Memo.reset ();
  let handler id line =
    let before = Dflow.Memo.stats () in
    let t0 = now_ns () in
    let reply = J.to_string (Serve.Server.handle_line id line) in
    let dt = ms_since t0 in
    let after = Dflow.Memo.stats () in
    Printf.sprintf "%d %d %.6f %s"
      (after.Service.Cache.hits - before.Service.Cache.hits)
      (after.Service.Cache.misses - before.Service.Cache.misses)
      dt reply
  in
  let sup =
    Service.Supervisor.start
      ~config:{ Service.Supervisor.default_config with Service.Supervisor.shards = 2 }
      handler
  in
  let m = Mutex.create () in
  let overhead = ref 0.0 and rts = Array.make (Array.length window) 0.0 in
  let hits = ref 0 and misses = ref 0 and jobs = ref 0 in
  let submit ~window k line =
    let t0 = now_ns () in
    let out = Service.Supervisor.submit sup ~id:0 line in
    let rt = ms_since t0 in
    match out with
    | Service.Supervisor.Ok_line s ->
        Scanf.sscanf s "%d %d %f %n" (fun h mi handler_ms off ->
            ignore (require_ok "supervised job" (String.sub s off (String.length s - off)));
            Mutex.lock m;
            incr jobs;
            overhead := !overhead +. (rt -. handler_ms);
            if window then begin
              rts.(k) <- rt;
              hits := !hits + h;
              misses := !misses + mi
            end;
            Mutex.unlock m)
    | _ -> wrong "supervised job refused, crashed or timed out"
  in
  two_clients ~lockstep ~warm ~window submit;
  Service.Supervisor.drain sup;
  let st = Service.Supervisor.stats sup in
  ( !overhead /. float !jobs,
    rts,
    (!hits, !misses),
    st.Service.Supervisor.s_restarts,
    st.Service.Supervisor.s_rejected )

(* Pass S: the same jobs through the real socket server; the client
   latency of each window job. *)
let socket_pass ~lockstep ~warm ~window =
  let sv, () = setup_server ~warm:(fun sv ->
      if lockstep then
        Proc.lockstep sv.slots (Array.map (fun l -> (0, l)) warm) ~on_reply:(fun _ _ _ -> ())
      else begin
        let i = ref 0 in
        Proc.closed_loop sv.slots
          ~next:(fun () ->
            if !i >= Array.length warm then None
            else begin incr i; Some (0, warm.(!i - 1)) end)
          ~on_reply:(fun _ _ _ -> ())
      end;
      ((Array.length warm * if lockstep then 2 else 1), ()))
  in
  let i = ref 0 and lat = Array.make (Array.length window) 0.0 in
  Proc.closed_loop sv.slots
    ~next:(fun () ->
      if !i >= Array.length window then None
      else begin
        incr i;
        sv.sent <- sv.sent + 1;
        Some (!i - 1, window.(!i - 1))
      end)
    ~on_reply:(fun k line l ->
      ignore (require_ok "socket job" line);
      lat.(k) <- l);
  Array.iter Unix.close sv.conns;
  let d = Proc.stop_server sv.server in
  if d.Proc.d_ok <> sv.sent then wrong "drained ok=%d, sent %d" d.Proc.d_ok sv.sent;
  (lat, d.Proc.d_restarts, d.Proc.d_overloaded)

let socket_layers ~name ~seed ~lockstep ~warm ~window ~require_warm =
  (* the single-threaded replays see the warm-up as the service does:
     in lockstep every job arrives twice *)
  let warm_lines =
    if lockstep then Array.concat (List.map (fun l -> [| l; l |]) (Array.to_list warm))
    else warm
  in
  let l = protocol_layers ~name ~seed [ Array.append warm_lines window ] in
  let overhead, sup_rt, (hits, misses), restarts, rejected =
    supervisor_pass ~lockstep ~warm ~window
  in
  if require_warm && misses > 0 then
    wrong "%d Memo misses in the warm window: the warm-up did not reach both shards" misses;
  let client_ms, s_restarts, s_rejected = socket_pass ~lockstep ~warm ~window in
  (* the two passes ran the same jobs: the median of the per-job
     differences resists the heavy tail that a difference of means
     inherits from the largest jobs *)
  let socket_ms =
    median (Array.to_list (Array.mapi (fun k c -> c -. sup_rt.(k)) client_ms))
  in
  {
    l with
    memo_hit_ratio = ratio (float hits) (float (hits + misses));
    supervisor_overhead_ms = overhead;
    socket_overhead_ms = socket_ms;
    restarts = restarts + s_restarts;
    rejected = rejected + s_rejected;
  }

let compile_cold_layers ~seed ~seconds =
  let seen = Hashtbl.create 1024 in
  let canon = Gen.distinct_compile_jobs ~seed:canon_seed ~tag:tag_canon ~seen cc_canon_jobs in
  let n = int_of_float (25.0 *. seconds) in
  let window = Gen.distinct_compile_jobs ~seed ~tag:tag_window ~seen n in
  socket_layers ~name:"compile-cold" ~seed ~lockstep:false ~require_warm:false
    ~warm:(Array.mapi Gen.compile_line canon)
    ~window:(Array.mapi Gen.compile_line window)

let run_warm_layers ~seed ~seconds =
  let sources = Gen.working_set () in
  let cells = Gen.warm_cells sources in
  let n = Array.length cells in
  let lines = Array.mapi (fun c cell -> Gen.run_line ~sources c cell) cells in
  let warm =
    Array.concat
      (List.init warm_sweeps (fun s ->
           Array.map (fun c -> lines.(c)) (Gen.permutation (Gen.rng seed tag_warm_order s) n)))
  in
  let draws = Gen.rng seed tag_draws 0 in
  let window = Array.init (int_of_float (100.0 *. seconds)) (fun _ -> lines.(Random.State.int draws n)) in
  socket_layers ~name:"run-warm" ~seed ~lockstep:true ~require_warm:true ~warm ~window

(* simulate-scale's cells: the five examples under 2optp on four
   machines, as `df_compile simulate -s 2optp --pes P --placement ...
   [--net mesh] [--steal]` runs them. *)
type machine = {
  pes : int;
  topo : Sched.Topology.kind option;
  placement : Machine.Placement.policy;
  steal : bool;
}

let machines =
  [|
    { pes = 4; topo = None; placement = Machine.Placement.Affinity; steal = false };
    { pes = 16; topo = None; placement = Machine.Placement.Hash; steal = false };
    { pes = 64; topo = Some Sched.Topology.Mesh; placement = Machine.Placement.Hier; steal = true };
    { pes = 256; topo = Some Sched.Topology.Mesh; placement = Machine.Placement.Hier; steal = true };
  |]

(* Every cell once, traced; each store is held to the reference
   interpreter.  Set-up (compile, check, reference stores) is untimed:
   only the multiprocessor layers are taken from here. *)
let multiproc_layers ~seed =
  let compiled =
    Array.map
      (fun src ->
        let p = Imp.Parser.program_of_string src in
        let c = Dflow.Driver.compile (Dflow.Driver.Schema2_opt Dflow.Engine.Pipelined) p in
        Dfg.Check.check c.Dflow.Driver.graph;
        (c, Imp.Eval.run_program p))
      (Gen.examples ())
  in
  Trace.reset ();
  Trace.recording := true;
  let cells = ref 0 and fir = ref 0 and net = ref 0 and remote = ref 0 and steals = ref 0 in
  Array.iteri
    (fun ex (c, reference) ->
      Array.iter
        (fun mc ->
          Trace.current_job := !cells;
          incr cells;
          let tree = c.Dflow.Driver.ltree in
          let topo = Option.map (fun k -> Sched.Topology.make k ~pes:mc.pes) mc.topo in
          let steal = if mc.steal then Some Sched.Steal.default else None in
          let g = c.Dflow.Driver.graph in
          ignore
            (Trace.span "sched.place" (fun () ->
                 Machine.Placement.compute ~tree ?topo mc.placement ~pes:mc.pes g));
          let name =
            if mc.pes <= 16 then "machine.multiproc.low_p" else "machine.multiproc.high_p"
          in
          match
            Trace.span name (fun () ->
                Machine.Multiproc.run ~placement:mc.placement ~tree ?topo ?steal ~pes:mc.pes
                  { Machine.Interp.graph = g; layout = c.Dflow.Driver.layout })
          with
          | Error d ->
              wrong "simulation failed: %s"
                (Machine.Diagnosis.verdict_to_string d.Machine.Diagnosis.verdict)
          | Ok r ->
              if not (r.Machine.Multiproc.completed
                      && Imp.Memory.equal reference r.Machine.Multiproc.memory)
              then
                wrong "%s at p=%d: store differs from the reference interpreter"
                  Gen.example_names.(ex) mc.pes;
              fir := !fir + r.Machine.Multiproc.firings;
              net := !net + r.Machine.Multiproc.net_messages;
              remote := !remote + r.Machine.Multiproc.mem_remote;
              steals := !steals + r.Machine.Multiproc.steals)
        machines)
    compiled;
  Trace.recording := false;
  let spans = Trace.all () in
  write_trace "multiproc" seed spans;
  {
    empty_layers with
    jobs = !cells;
    self_ms = Trace.self_ms_by_name spans;
    multiproc_firings = !fir;
    net_messages = !net;
    mem_remote = !remote;
    steals = !steals;
  }

let batch_mixed_layers ~seed ~seconds =
  let sources = Gen.batch_sources () in
  let canon =
    Gen.batch ~seed:canon_seed ~tag:tag_canon ~sources
      ~pool:(Gen.batch_programs ~seed:canon_seed ~tag:tag_canon) 0
  in
  let pool = Gen.batch_programs ~seed ~tag:tag_window in
  let groups =
    canon
    :: List.init (max 1 (int_of_float (seconds /. 3.0))) (fun b ->
           Gen.batch ~seed ~tag:tag_window ~pool ~sources b)
  in
  let l = protocol_layers ~name:"batch-mixed" ~seed groups in
  (* each batch under --jobs 1 and --jobs 2, in alternating order *)
  let serial = ref 0.0 and parallel = ref 0.0 in
  let pool jobs total lines =
    Dflow.Memo.reset ();
    let t0 = now_ns () in
    ignore (Serve.Server.run_batch ~jobs (Array.to_list lines));
    total := !total +. ms_since t0
  in
  List.iteri
    (fun b lines ->
      if b mod 2 = 0 then begin
        pool 1 serial lines;
        pool batch_jobs parallel lines
      end
      else begin
        pool batch_jobs parallel lines;
        pool 1 serial lines
      end)
    groups;
  { l with pool_speedup = ratio !serial !parallel }

(* The layers only the multiprocessor cells reach. *)
let multiproc_metrics =
  [
    "machine.multiproc_ms.low_p";
    "machine.multiproc_ms.high_p";
    "machine.firings_per_s.multiproc";
    "sched.place_ms";
    "machine.net_messages";
    "machine.mem_remote";
    "machine.steals";
  ]

(* simulate-scale is not a workload of BENCHMARK.json (its end-to-end
   numbers were too unsteady on the reference host), so the batch-mixed
   traced run also replays its cells: Machine.Multiproc,
   Machine.Network and lib/sched keep per-layer numbers, per simulated
   job; every other metric is batch-mixed's own. *)
let batch_mixed_traced ~seed ~seconds =
  let l = batch_mixed_layers ~seed ~seconds in
  let s = multiproc_layers ~seed in
  let from_s = layer_metrics s in
  ( l.jobs + s.jobs,
    List.map
      (fun x ->
        if List.mem x.name multiproc_metrics then
          List.find (fun y -> y.name = x.name) from_s
        else x)
      (layer_metrics l) )

let layered f ~seed ~seconds =
  let l = f ~seed ~seconds in
  (l.jobs, layer_metrics l)

(* ---------------------------------------------------------------------- *)

let workloads =
  [
    ("compile-cold", (compile_cold, layered compile_cold_layers));
    ("run-warm", (run_warm, layered run_warm_layers));
    ("batch-mixed", (batch_mixed, batch_mixed_traced));
  ]

let usage =
  "bench.exe --workload (compile-cold|run-warm|batch-mixed) [--seed N] \
   --seconds S --trace 0|1"

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N input seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S measurement window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.assoc_opt !workload workloads with
  | Some run when !seconds >= 1 && (!trace = 0 || !trace = 1) ->
      (!workload, run, Option.value ~default:1 !seed, float !seconds, !trace = 1)
  | _ ->
      prerr_endline usage;
      exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let name, run, seed, seconds, traced = parse_args () in
  List.iter
    (fun exe ->
      if not (Sys.file_exists exe) then begin
        Printf.eprintf "perfbench: %s not built; run perfbench/run.sh\n" exe;
        exit 2
      end)
    [ Proc.bin; Probe.prog ];
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let untraced, layered = run in
  match
    if traced then begin
      let jobs, metrics = layered ~seed ~seconds in
      Printf.eprintf "perfbench: %s traces written to %s\n%!" name
        (String.concat ", " (List.rev !trace_files));
      (jobs, 0, metrics)
    end
    else
      let w, metrics = untraced ~seed ~seconds in
      (w.attempted, 0, metrics)
  with
  | attempted, failed, metrics ->
      print_result ~correct:true ~attempted ~failed metrics
  | exception Wrong msg ->
      Proc.kill_all ();
      Printf.eprintf "perfbench: wrong answer, run aborted: %s\n%!" msg;
      let attempted = match !current with Some w -> max 1 w.attempted | None -> 1 in
      print_result ~correct:false ~attempted ~failed:1 [];
      exit 1
  | exception e ->
      Proc.kill_all ();
      Printf.eprintf "perfbench: %s\n%!"
        (match e with Proc.Failed m -> m | e -> Printexc.to_string e);
      exit 1

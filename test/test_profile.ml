(* Unit tests of the observability layer: the Json module, the firing
   log (Trace), the Profile builder with its dynamic critical path, the
   Chrome trace exporter, and the BENCH schema of bench/main.exe held
   against the committed BENCH_machine.json. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

module J = Machine.Json

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

(* --- Json ------------------------------------------------------------ *)

let sample =
  J.Assoc
    [
      ("a", J.List [ J.Int 1; J.Float 2.5; J.String "x\"y\n"; J.Bool true; J.Null ]);
      ("b", J.Assoc [ ("c", J.Int (-3)) ]);
      ("empty", J.List []);
      ("none", J.Assoc []);
    ]

let test_json_roundtrip () =
  checkb "compact roundtrip" true (J.of_string (J.to_string sample) = sample);
  checkb "pretty roundtrip" true
    (J.of_string (J.to_string_pretty sample) = sample)

let test_json_numbers () =
  (* ints and floats stay distinct through a round trip: cycle counts
     must reread as ints *)
  checks "int prints bare" "7" (J.to_string (J.Int 7));
  checkb "int rereads as Int" true (J.of_string "7" = J.Int 7);
  checkb "float rereads as Float" true (J.of_string "7.0" = J.Float 7.0);
  checks "integral float keeps its point" "7.0" (J.to_string (J.Float 7.));
  checkb "exponent parses" true (J.of_string "1e3" = J.Float 1000.);
  checkb "to_float_opt accepts Int" true
    (J.to_float_opt (J.Int 3) = Some 3.0)

let test_json_escaping () =
  let s = "quote\" back\\ nl\n tab\t ctl\x01" in
  checkb "escaped string roundtrips" true
    (J.of_string (J.to_string (J.String s)) = J.String s);
  checkb "control char escaped as \\u" true
    (contains (J.to_string (J.String "\x01")) "\\u0001")

let test_json_errors () =
  let rejects s =
    match J.of_string s with
    | exception J.Parse_error _ -> true
    | _ -> false
  in
  checkb "trailing garbage" true (rejects "1 2");
  checkb "unterminated string" true (rejects "\"abc");
  checkb "bare word" true (rejects "nope");
  checkb "unclosed object" true (rejects "{\"a\":1");
  checkb "empty input" true (rejects "")

let test_json_accessors () =
  checkb "member" true (J.member "b" sample <> None);
  checkb "member missing" true (J.member "zzz" sample = None);
  checkb "member on non-object" true (J.member "a" (J.Int 1) = None);
  checki "nested int" (-3)
    (Option.get
       (Option.bind
          (Option.bind (J.member "b" sample) (J.member "c"))
          J.to_int_opt))

(* --- Trace: the firing log, its chain and its overlap -------------------- *)

let fire tr cycle node ctx pred =
  Machine.Trace.fire tr ~node ~ctx ~cycle ~pe:0 ~pred

let test_trace_overlap () =
  let tr = Machine.Trace.create () in
  let c0 = Machine.Context.toplevel in
  let c1 = Machine.Context.enter c0 in
  let c2 = Machine.Context.next c1 in
  (* cycle 1: two contexts; cycle 2: three; cycle 3: one, repeated *)
  List.iter
    (fun (cycle, node, ctx) -> ignore (fire tr cycle node ctx (-1) : int))
    [ (1, 0, c0); (1, 1, c1); (2, 2, c0); (2, 3, c1); (2, 4, c2); (3, 5, c2);
      (3, 6, c2) ];
  let ov = Machine.Trace.overlap tr in
  checki "cycle 1 overlap" 2 ov.(1);
  checki "cycle 2 overlap" 3 ov.(2);
  checki "cycle 3 overlap" 1 ov.(3);
  checki "max overlap" 3 (Machine.Trace.max_context_overlap tr);
  checki "three contexts in the table" 3
    (List.length (Machine.Trace.per_context tr))

(* the producer rule: the deeper chain wins, the first on a tie; the
   chain ends at the first deepest firing; a rollback forgets the
   firings past the epoch but keeps the cycles' samples *)
let test_trace_chain () =
  let tr = Machine.Trace.create () in
  let top = Machine.Context.toplevel in
  let a = fire tr 0 0 top (-1) in
  let b = fire tr 1 1 top a in
  let c = fire tr 1 2 top (-1) in
  checki "deeper chain wins" b (Machine.Trace.deeper tr c b);
  checki "first on a tie" a (Machine.Trace.deeper tr a c);
  checki "no producer is the shallowest" a (Machine.Trace.deeper tr (-1) a);
  let d = fire tr 2 3 top (Machine.Trace.deeper tr c b) in
  let _e = fire tr 2 4 top b in
  checki "critical path" 3 (Machine.Trace.critical_path tr);
  checkb "chain ends at the first deepest firing" true
    (Machine.Trace.critical_chain tr = [ (0, top); (1, top); (3, top) ]);
  checki "its producer" b (Machine.Trace.pred tr d);
  Machine.Trace.sample tr ~fired:2 ~in_flight:1 ~matching:0;
  Machine.Trace.rollback tr 2;
  checki "rolled back" 2 (Machine.Trace.length tr);
  checki "chain shortened" 2 (Machine.Trace.critical_path tr);
  checki "samples kept" 1 (Array.length (Machine.Trace.parallelism_curve tr))

(* --- Profile: end-to-end on a real run ------------------------------- *)

let sum_src = "i := 0 s := 0 while i < 10 do s := s + i i := i + 1 end"

let traced_run ?(config = Machine.Config.ideal) spec src =
  let p = Imp.Parser.program_of_string src in
  let c = Dflow.Driver.compile spec p in
  let log = Machine.Trace.create () in
  let r =
    Machine.Interp.run ~config ~log
      {
        Machine.Interp.graph = c.Dflow.Driver.graph;
        layout = c.Dflow.Driver.layout;
      }
  in
  (c.Dflow.Driver.graph, log, r)

let test_profile_critical_path () =
  (* under unit latencies and unbounded PEs the machine is exactly
     dataflow-limited: the dynamic critical path IS the cycle count *)
  List.iter
    (fun spec ->
      let graph, log, r = traced_run spec sum_src in
      let prof = Machine.Profile.make ~graph ~log r in
      checkb "completed" true r.Machine.Interp.completed;
      checki
        (Fmt.str "%s: ideal machine is critical-path bound"
           (Dflow.Driver.spec_to_string spec))
        r.Machine.Interp.cycles prof.Machine.Profile.dynamic_critical_path;
      checki "chain length = critical path"
        prof.Machine.Profile.dynamic_critical_path
        (List.length prof.Machine.Profile.critical_chain);
      checkb "static path is a single-iteration lower bound" true
        (prof.Machine.Profile.static_critical_path
        <= prof.Machine.Profile.dynamic_critical_path);
      checkb "static path positive" true
        (prof.Machine.Profile.static_critical_path > 0))
    [
      Dflow.Driver.Schema1;
      Dflow.Driver.Schema2 Dflow.Engine.Barrier;
      Dflow.Driver.Schema2 Dflow.Engine.Pipelined;
      Dflow.Driver.Schema2_opt Dflow.Engine.Pipelined;
    ]

let test_profile_fields () =
  let graph, log, r =
    traced_run (Dflow.Driver.Schema2 Dflow.Engine.Pipelined) sum_src
  in
  let prof = Machine.Profile.make ~graph ~log r in
  checki "cycles" r.Machine.Interp.cycles prof.Machine.Profile.cycles;
  checki "firings" r.Machine.Interp.firings prof.Machine.Profile.firings;
  checki "curves cover the same cycles"
    (Array.length prof.Machine.Profile.parallelism_curve)
    (Array.length prof.Machine.Profile.in_flight_curve);
  checki "matching curve too"
    (Array.length prof.Machine.Profile.parallelism_curve)
    (Array.length prof.Machine.Profile.matching_curve);
  checkb "histogram sums to the firing count" true
    (List.fold_left
       (fun acc nf -> acc + nf.Machine.Profile.nf_count)
       0 prof.Machine.Profile.node_firings
    = r.Machine.Interp.firings);
  checkb "histogram sorted descending" true
    (let rec sorted = function
       | a :: (b :: _ as rest) ->
           a.Machine.Profile.nf_count >= b.Machine.Profile.nf_count
           && sorted rest
       | _ -> true
     in
     sorted prof.Machine.Profile.node_firings);
  checkb "the loop pipeline overlaps iterations" true
    (prof.Machine.Profile.max_overlap >= 1);
  checki "the parallelism curve sums to the firing count"
    r.Machine.Interp.firings
    (Array.fold_left ( + ) 0 prof.Machine.Profile.parallelism_curve);
  checki "its peak is the running peak" r.Machine.Interp.peak_parallelism
    (Array.fold_left max 0 prof.Machine.Profile.parallelism_curve);
  checki "so is the in-flight curve's" r.Machine.Interp.peak_in_flight
    (Array.fold_left max 0 prof.Machine.Profile.in_flight_curve);
  let rendered = Fmt.str "%a" Machine.Profile.pp prof in
  checkb "pp mentions the critical path" true
    (contains rendered "critical path")

(* --- Chrome trace export --------------------------------------------- *)

let test_chrome_trace () =
  let graph, log, r =
    traced_run (Dflow.Driver.Schema2 Dflow.Engine.Pipelined) sum_src
  in
  checkb "completed" true r.Machine.Interp.completed;
  let j = Machine.Profile.chrome_trace ~graph log in
  (* the export must survive its own printer/parser: what a browser
     receives is the printed text *)
  let reread = J.of_string (J.to_string j) in
  let events =
    Option.get (Option.bind (J.member "traceEvents" reread) J.to_list_opt)
  in
  checkb "has events" true (events <> []);
  let xs =
    List.filter
      (fun e ->
        Option.bind (J.member "ph" e) J.to_string_opt = Some "X")
      events
  in
  checki "one X event per logged firing" (Machine.Trace.length log)
    (List.length xs);
  let named_tids =
    List.filter_map
      (fun e ->
        if Option.bind (J.member "ph" e) J.to_string_opt = Some "M" then
          Option.bind (J.member "tid" e) J.to_int_opt
        else None)
      events
  in
  let prev = ref min_int in
  List.iter
    (fun e ->
      let ts = Option.get (Option.bind (J.member "ts" e) J.to_int_opt) in
      let dur = Option.get (Option.bind (J.member "dur" e) J.to_int_opt) in
      let tid = Option.get (Option.bind (J.member "tid" e) J.to_int_opt) in
      checkb "cycle-monotone" true (ts >= !prev);
      prev := ts;
      checkb "positive duration" true (dur >= 1);
      checkb "tid has a thread_name" true (List.mem tid named_tids);
      checkb "named" true (J.member "name" e <> None))
    xs

(* --- BENCH schema, on the committed artifact ------------------------- *)

module S = Bench_schema

let committed =
  lazy
    (let path =
       List.find Sys.file_exists
         [ "../BENCH_machine.json"; "BENCH_machine.json" ]
     in
     let ic = open_in_bin path in
     let text = really_input_string ic (in_channel_length ic) in
     close_in ic;
     J.of_string text)

let errors ?(cores = 1) doc =
  List.filter_map
    (function Ok _ -> None | Error e -> Some e)
    (S.check ~cores doc)

(* [update q f doc]: [doc] with [f] applied to every value [q] selects *)
let rec update q f (j : J.t) =
  match (q, j) with
  | [], _ -> f j
  | S.Field k :: rest, J.Assoc kvs ->
      J.Assoc
        (List.map
           (fun (k', v) -> (k', if k' = k then update rest f v else v))
           kvs)
  | S.Select sel :: rest, J.List l ->
      J.List
        (List.map (fun c -> if S.matches sel c then update rest f c else c) l)
  | _ -> j

let set q v = update q (fun _ -> v)

(* [drop q sel]: the list at [q] without its elements matching [sel] *)
let drop q sel =
  update q (function
    | J.List l -> J.List (List.filter (fun c -> not (S.matches sel c)) l)
    | j -> j)

let opt = S.stencil "schema2-opt"
let at4 = [ ("pes", J.Int 4) ]
let affinity4 = [ ("pes", J.Int 4); ("placement", J.String "affinity") ]
let interval25 = [ ("checkpoint_interval", J.Int 25) ]
let packed = [ ("engine", J.String "packed") ]
let scale_cells = [ S.Field "scale"; S.Field "cells" ]
let serve_cells = [ S.Field "service"; S.Field "cells" ]

let expect_error what needle doc =
  let errs = errors doc in
  if not (List.exists (fun e -> contains e needle) errs) then
    Alcotest.failf "%s: no error naming %S among [%s]" what needle
      (String.concat "; " errs)

let test_bench_validate_ok () =
  let doc = Lazy.force committed in
  (match errors doc with
  | [] -> ()
  | errs ->
      Alcotest.failf "committed document rejected: %s"
        (String.concat "; " errs));
  checki "every floor evaluated" (List.length S.floors)
    (List.length (S.check ~cores:1 doc));
  checkb "no drift against itself" true (S.drift ~expected:doc doc = [])

let test_bench_validate_rejects () =
  let doc = Lazy.force committed in
  (* each floor, pushed across its threshold *)
  List.iter
    (fun (floor, q, v) -> expect_error floor (floor ^ " ") (set q v doc))
    [
      ( "E20",
        S.stencil "schema2-pipelined" @ [ S.Field "avg_parallelism" ],
        J.Float 0.5 );
      ("E21", opt @ S.sweep "multiproc" at4 "cycles", J.Int 9999);
      ( "E21",
        S.Field "records" :: S.Select []
        :: S.sweep "multiproc" affinity4 "net_messages",
        J.Int 100_000 );
      ("E22", opt @ S.sweep "recovery" interval25 "overhead", J.Float 0.3);
      ("E23", opt @ S.sweep "certificate" at4 "overhead", J.Float 0.2);
      ("E24", opt @ S.sweep "throughput" packed "speedup", J.Float 9.9);
      ("E25", [ S.Field "service"; S.Field "hit_rate" ], J.Float 0.4);
      ( "E25",
        serve_cells @ [ S.Select []; S.Field "jobs_per_sec" ],
        J.Float 4.0 );
      ( "E26",
        scale_cells @ [ S.Select S.scale_hi; S.Field "firings_per_cycle" ],
        J.Float 0.6 );
      ("E27", S.chaos 0.05 "success_rate", J.Float 0.85);
      ("E27", S.chaos 0.05 "restarts", J.Int 0);
      ("E27", S.chaos 0.0 "ok", J.Int 159);
    ];
  (* each invariant, made false; the error names the field's path *)
  List.iter
    (fun (path, q, v) -> expect_error path (path ^ ":") (set q v doc))
    [
      ( "records[program=stencil,schema=schema2-opt].reference_ok",
        opt @ [ S.Field "reference_ok" ],
        J.Bool false );
      ( "multiproc[pes=4,placement=affinity].determinate",
        opt @ S.sweep "multiproc" affinity4 "determinate",
        J.Bool false );
      ( "multiproc_summary.multiproc_determinate",
        [ S.Field "multiproc_summary"; S.Field "multiproc_determinate" ],
        J.Bool false );
      ( "recovery[checkpoint_interval=25].recovered",
        opt @ S.sweep "recovery" interval25 "recovered",
        J.Bool false );
      ( "certificate[pes=4].certified_clean",
        opt @ S.sweep "certificate" at4 "certified_clean",
        J.Bool false );
      ( "throughput[engine=packed].identical_store",
        opt @ S.sweep "throughput" packed "identical_store",
        J.Bool false );
      ( "service.deterministic",
        [ S.Field "service"; S.Field "deterministic" ],
        J.Bool false );
      ( "availability.cells[chaos_rate=0.05].divergences",
        S.chaos 0.05 "divergences",
        J.Int 1 );
      ( "scale.cells[pes=64,net=mesh,placement=hier,steal=true].determinate",
        scale_cells @ [ S.Select S.scale_hi; S.Field "determinate" ],
        J.Bool false );
      ( "scale.determinate",
        [ S.Field "scale"; S.Field "determinate" ],
        J.Bool false );
    ];
  (* structure: version, types, undeclared fields, related counts *)
  expect_error "version" "meta.schema_version: 7"
    (set [ S.Field "meta"; S.Field "schema_version" ] (J.Int 7) doc);
  expect_error "type" "records[program=sum,schema=schema1].cycles: many"
    (set
       [
         S.Field "records";
         S.Select
           [ ("program", J.String "sum"); ("schema", J.String "schema1") ];
         S.Field "cycles";
       ]
       (J.String "many") doc);
  expect_error "undeclared" "service.colour: undeclared field"
    (update [ S.Field "service" ]
       (function
         | J.Assoc kvs -> J.Assoc (kvs @ [ ("colour", J.String "red") ])
         | j -> j)
       doc);
  expect_error "partition" "outcome counts partition the batch"
    (set (S.chaos 0.1 "ok") (J.Int 140) doc);
  expect_error "hops" "at least one link hop per message"
    (set (scale_cells @ [ S.Select S.scale_hi; S.Field "net_hops" ]) (J.Int 0)
       doc)

let test_bench_missing_cells () =
  let doc = Lazy.force committed in
  let missing what floor doc = expect_error what (floor ^ ": no cell at") doc in
  missing "E20 record"
    "E20 pipelined loop control is more parallel than Schema 1"
    (drop [ S.Field "records" ]
       [ ("program", J.String "stencil"); ("schema", J.String "schema1") ]
       doc);
  missing "E24 cell" "E24 packed engine speedup over the reference interpreter"
    (drop (opt @ [ S.Field "throughput" ]) packed doc);
  missing "E26 cell" "E26 the scaling stack beats the uniform-wire baseline"
    (drop scale_cells S.scale_lo doc);
  missing "E27 cell" "E27 availability at the committed chaos rate"
    (drop
       [ S.Field "service"; S.Field "availability"; S.Field "cells" ]
       [ ("chaos_rate", J.Float 0.05) ]
       doc)

(* The E25 speedup floor judges only a document from a host with as many
   cores as the parallel cell has domains; the committed cell was
   recorded on fewer. *)
let test_bench_speedup_needs_cores () =
  let doc = Lazy.force committed in
  let cores = S.serve_jobs in
  let speedup =
    serve_cells @ [ S.Select [ ("jobs", J.Int cores) ]; S.Field "speedup" ]
  in
  checkb "not judged on one core" true (errors ~cores:1 doc = []);
  checkb "committed cell below the floor" true
    (List.exists (fun e -> contains e "E25 serve speedup") (errors ~cores doc));
  checkb "a real speedup passes" true
    (errors ~cores (set speedup (J.Float 2.5) doc) = [])

(* One scalar of every field of the committed document, perturbed: the
   drift comparison must flag all of them except the six timed fields.
   Drift judges a field by its declaration, so one instance per field
   path stands for all. *)
let test_bench_drift () =
  let doc = Lazy.force committed in
  let timed =
    [
      "records.throughput.firings_per_sec";
      "records.throughput.seconds_per_run";
      "records.throughput.speedup";
      "service.cells.jobs_per_sec";
      "service.cells.seconds";
      "service.cells.speedup";
    ]
  in
  let replace i x l = List.mapi (fun i' y -> if i' = i then x else y) l in
  (* (field path without indices, [j] with one scalar under it changed) *)
  let rec leaves path (j : J.t) =
    match j with
    | J.Assoc kvs ->
        List.concat
          (List.mapi
             (fun i (k, v) ->
               let path = if path = "" then k else path ^ "." ^ k in
               List.map
                 (fun (p, v') -> (p, J.Assoc (replace i (k, v') kvs)))
                 (leaves path v))
             kvs)
    | J.List l ->
        List.concat
          (List.mapi
             (fun i v ->
               List.map (fun (p, v') -> (p, J.List (replace i v' l)))
                 (leaves path v))
             l)
    | J.Int n -> [ (path, J.Int (n + 1)) ]
    | J.Float x -> [ (path, J.Float (x +. 1.0)) ]
    | J.Bool b -> [ (path, J.Bool (not b)) ]
    | J.String s -> [ (path, J.String (s ^ "x")) ]
    | J.Null -> []
  in
  let tested = Hashtbl.create 64 and ignored = ref [] in
  List.iter
    (fun (path, changed) ->
      if not (Hashtbl.mem tested path) then begin
        Hashtbl.add tested path ();
        if S.drift ~expected:doc changed = [] then ignored := path :: !ignored
      end)
    (leaves "" doc);
  Alcotest.(check (list string))
    "ignored fields" timed (List.sort compare !ignored);
  match
    S.drift ~expected:doc (set (opt @ [ S.Field "cycles" ]) (J.Int 1661) doc)
  with
  | [ e ] ->
      checks "names the path"
        "records[program=stencil,schema=schema2-opt].cycles: 1660 committed, \
         1661 now"
        e
  | errs ->
      Alcotest.failf "expected one drift, got [%s]" (String.concat "; " errs)

let () =
  Alcotest.run "profile"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "numbers" `Quick test_json_numbers;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "parse errors" `Quick test_json_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "trace",
        [
          Alcotest.test_case "context overlap" `Quick test_trace_overlap;
          Alcotest.test_case "producer rule, chain and rollback" `Quick
            test_trace_chain;
        ] );
      ( "profile",
        [
          Alcotest.test_case "ideal machine is critical-path bound" `Quick
            test_profile_critical_path;
          Alcotest.test_case "fields are consistent" `Quick test_profile_fields;
        ] );
      ( "chrome-trace",
        [ Alcotest.test_case "well-formed and monotone" `Quick test_chrome_trace ] );
      ( "bench-schema",
        [
          Alcotest.test_case "accepts the real document" `Quick
            test_bench_validate_ok;
          Alcotest.test_case "rejects malformed documents" `Quick
            test_bench_validate_rejects;
          Alcotest.test_case "names a missing floor cell" `Quick
            test_bench_missing_cells;
          Alcotest.test_case "speedup floor needs the cores" `Quick
            test_bench_speedup_needs_cores;
          Alcotest.test_case "drift skips exactly the timed fields" `Quick
            test_bench_drift;
        ] );
    ]

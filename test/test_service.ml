(* Tests of the batch-service layer: the stable content hash, the
   single-flight memoization cache, the deterministic domain pool, the
   process-global compilation cache (cached == uncached, by qcheck),
   and the serve protocol's byte-stability across jobs settings. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

(* --- Hash ------------------------------------------------------------ *)

let test_hash_stable () =
  (* same parts, same key -- and the digest is pinned, so a change to
     the hash function (which would silently orphan every cached
     artifact across runs) fails loudly here *)
  checks "pinned digest" "ffd9c7b64661d4ff2a6d597c7c90a166"
    (Service.Hash.key [ "df"; "compile" ]);
  checks "identical parts, identical key"
    (Service.Hash.key [ "x := 1"; "schema2" ])
    (Service.Hash.key [ "x := 1"; "schema2" ]);
  checki "32 hex chars" 32 (String.length (Service.Hash.key []))

let test_hash_framing () =
  (* part boundaries are part of the digest *)
  checkb "[ab;c] <> [a;bc]" true
    (Service.Hash.key [ "ab"; "c" ] <> Service.Hash.key [ "a"; "bc" ]);
  checkb "[] <> [\"\"]" true (Service.Hash.key [] <> Service.Hash.key [ "" ])

let test_hash_raw_text () =
  (* keying is deliberately raw-text: whitespace and comment edits give
     distinct keys (a spurious miss costs one recompile; canonicalising
     would re-run the parser on every lookup) *)
  checkb "whitespace edit, distinct key" true
    (Service.Hash.key [ "x := 1" ] <> Service.Hash.key [ "x  := 1" ]);
  checkb "trailing newline, distinct key" true
    (Service.Hash.key [ "x := 1" ] <> Service.Hash.key [ "x := 1\n" ])

(* --- Cache ----------------------------------------------------------- *)

let test_cache_counters () =
  let c = Service.Cache.create () in
  let runs = ref 0 in
  let get k =
    Service.Cache.find_or_compute c ~key:k (fun () ->
        incr runs;
        String.length k)
  in
  checki "computed" 1 (get "a");
  checki "cached" 1 (get "a");
  checki "other key" 2 (get "bb");
  checki "compute ran once per key" 2 !runs;
  let s = Service.Cache.stats c in
  checki "hits" 1 s.Service.Cache.hits;
  checki "misses" 2 s.Service.Cache.misses;
  checki "evictions" 0 s.Service.Cache.evictions;
  checki "size" 2 s.Service.Cache.size;
  Alcotest.(check (float 0.001)) "hit rate" (1. /. 3.)
    (Service.Cache.hit_rate s)

let test_cache_eviction () =
  let c = Service.Cache.create ~capacity:2 () in
  let get k = Service.Cache.find_or_compute c ~key:k (fun () -> k) in
  ignore (get "a");
  ignore (get "b");
  ignore (get "c");
  (* capacity 2: "a" (least recently used) was dropped *)
  let s = Service.Cache.stats c in
  checki "one eviction" 1 s.Service.Cache.evictions;
  checki "size bounded" 2 s.Service.Cache.size;
  ignore (get "a");
  let s = Service.Cache.stats c in
  checki "evicted key recomputes" 4 s.Service.Cache.misses

let test_cache_failure_cached () =
  let c = Service.Cache.create () in
  let runs = ref 0 in
  let get () =
    Service.Cache.find_or_compute c ~key:"boom" (fun () ->
        incr runs;
        failwith "deterministic failure")
  in
  let raised f = match f () with exception Failure _ -> true | _ -> false in
  checkb "first lookup raises" true (raised get);
  checkb "second lookup re-raises" true (raised get);
  checki "compute ran once" 1 !runs;
  let s = Service.Cache.stats c in
  checki "failure hit counted" 1 s.Service.Cache.hits

let test_cache_reset () =
  let c = Service.Cache.create () in
  ignore (Service.Cache.find_or_compute c ~key:"k" (fun () -> 0));
  Service.Cache.reset c;
  let s = Service.Cache.stats c in
  checkb "zeroed" true
    (s.Service.Cache.hits = 0 && s.Service.Cache.misses = 0
   && s.Service.Cache.size = 0)

(* --- Pool ------------------------------------------------------------ *)

let unpack = function Ok v -> v | Error f -> Service.Pool.reraise f

let test_pool_deterministic () =
  let items = Array.init 100 Fun.id in
  let f x = x * x in
  let r1 = Service.Pool.map ~jobs:1 f items in
  let r4 = Service.Pool.map ~jobs:4 f items in
  checkb "jobs 1 = jobs 4" true (r1 = r4);
  checki "in submission order" 81 (unpack r4.(9))

let test_pool_error_isolation () =
  let items = Array.init 10 Fun.id in
  let f x = if x = 5 then failwith "five" else x in
  List.iter
    (fun jobs ->
      let r = Service.Pool.map ~jobs f items in
      checkb "failing slot is Error" true
        (match r.(5) with
        | Error { Service.Pool.f_exn = Failure _; _ } -> true
        | _ -> false);
      checki "neighbour undisturbed" 6 (unpack r.(6)))
    [ 1; 4 ]

let test_pool_invalid_jobs () =
  List.iter
    (fun jobs ->
      checkb
        (Fmt.str "jobs=%d rejected" jobs)
        true
        (match Service.Pool.map ~jobs Fun.id [| 1 |] with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ 0; -1 ]

let test_pool_emit_order () =
  let seen = ref [] in
  Service.Pool.map_emit ~jobs:4
    ~emit:(fun i r -> seen := (i, unpack r) :: !seen)
    (fun x -> x + 1)
    (Array.init 50 Fun.id);
  let expected = List.init 50 (fun i -> (49 - i, 50 - i)) in
  checkb "emitted strictly in index order" true (!seen = expected)

let test_pool_emit_raising_no_deadlock () =
  (* regression: emit raising on the very first flush used to leave the
     internal mutex locked, deadlocking every other worker at its next
     deposit (this test then hung).  With the unlock in Fun.protect the
     exception propagates and the surviving workers keep draining. *)
  checkb "raising emit propagates, workers not deadlocked" true
    (match
       Service.Pool.map_emit ~jobs:4
         ~emit:(fun i _ -> if i = 0 then failwith "emit-boom")
         (fun x -> x)
         (Array.init 64 Fun.id)
     with
    | () -> false
    | exception Failure m -> m = "emit-boom")

let test_pool_emit_raising_last () =
  (* raise on the final flush: every earlier item must already be out *)
  let seen = ref [] in
  checkb "raised on last emit" true
    (match
       Service.Pool.map_emit ~jobs:4
         ~emit:(fun i r ->
           if i = 9 then failwith "last" else seen := (i, unpack r) :: !seen)
         (fun x -> x * 2)
         (Array.init 10 Fun.id)
     with
    | () -> false
    | exception Failure m -> m = "last");
  checkb "all earlier items emitted in order" true
    (List.rev !seen = List.init 9 (fun i -> (i, 2 * i)))

let test_pool_backtrace_preserved () =
  Printexc.record_backtrace true;
  let deep () = failwith "kaboom" in
  let r = Service.Pool.map ~jobs:1 (fun () -> deep () + 1) [| () |] in
  match r.(0) with
  | Ok _ -> Alcotest.fail "expected Error"
  | Error f ->
      checkb "original exception carried" true
        (match f.Service.Pool.f_exn with Failure m -> m = "kaboom" | _ -> false);
      checkb "failure_to_string names the exception" true
        (contains (Service.Pool.failure_to_string f) "kaboom");
      checkb "reraise rethrows the original" true
        (match Service.Pool.reraise f with
        | exception Failure m -> m = "kaboom"
        | _ -> false)

(* --- Framing: bounded line reading ----------------------------------- *)

let read_all_framed ?max_bytes s =
  let path = Filename.temp_file "framing" ".txt" in
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc;
  let ic = open_in_bin path in
  let rec go acc =
    match Service.Framing.input ?max_bytes ic with
    | Service.Framing.Eof -> List.rev acc
    | item -> go (item :: acc)
  in
  let items = go [] in
  close_in ic;
  Sys.remove path;
  items

let test_framing_matches_input_line () =
  let open Service.Framing in
  checkb "plain lines" true
    (read_all_framed "a\nbb\nccc\n" = [ Line "a"; Line "bb"; Line "ccc" ]);
  checkb "empty lines kept" true
    (read_all_framed "\n\nx\n" = [ Line ""; Line ""; Line "x" ]);
  checkb "final unterminated line returned" true
    (read_all_framed "a\nb" = [ Line "a"; Line "b" ]);
  checkb "empty input" true (read_all_framed "" = [])

let test_framing_bounds () =
  let open Service.Framing in
  checkb "oversized line truncated with true length" true
    (read_all_framed ~max_bytes:4 "abcdefgh\nok\n"
    = [ Truncated 8; Line "ok" ]);
  checkb "stream stays line-synchronised after truncation" true
    (read_all_framed ~max_bytes:2 "xxxx\nyy\nzzzz\n"
    = [ Truncated 4; Line "yy"; Truncated 4 ]);
  checkb "unterminated oversized tail reported" true
    (read_all_framed ~max_bytes:3 "abcdef" = [ Truncated 6 ]);
  checkb "exactly at budget passes" true
    (read_all_framed ~max_bytes:4 "abcd\n" = [ Line "abcd" ])

(* --- Memo: cached == uncached ---------------------------------------- *)

let specs =
  [
    Dflow.Driver.Schema1;
    Dflow.Driver.Schema2 Dflow.Engine.Pipelined;
    Dflow.Driver.Schema2_opt Dflow.Engine.Pipelined;
  ]

let outcome compile p spec =
  (* graph text + executed store, or the exception: the full observable
     behaviour of one compile *)
  match compile spec p with
  | exception e -> Error (Printexc.to_string e)
  | c ->
      let r =
        Machine.Interp.run_exn
          {
            Machine.Interp.graph = c.Dflow.Driver.graph;
            layout = c.Dflow.Driver.layout;
          }
      in
      Ok
        ( Dfg.Text.print c.Dflow.Driver.graph,
          Imp.Memory.dump_vars r.Machine.Interp.memory )

let prop_memo_transparent =
  QCheck.Test.make ~name:"Memo.compile == Driver.compile (graph + store)"
    ~count:30
    (QCheck.make (fun st ->
         let rand = Random.State.make [| QCheck.Gen.int st |] in
         Workloads.Random_gen.structured rand))
    (fun p ->
      List.for_all
        (fun spec ->
          (* twice through the cache: the second call exercises the hit
             path, and both must equal the uncached compile *)
          let cached = outcome (fun s q -> Dflow.Memo.compile s q) p spec in
          let cached2 = outcome (fun s q -> Dflow.Memo.compile s q) p spec in
          let fresh = outcome (fun s q -> Dflow.Driver.compile s q) p spec in
          cached = fresh && cached2 = fresh)
        specs)

let test_memo_reference () =
  let p =
    Imp.Parser.program_of_string
      "i := 0 s := 0 while i < 10 do s := s + i i := i + 1 end"
  in
  let expected = Imp.Eval.run_program ~fuel:10_000_000 p in
  checkb "memoized reference = direct" true
    (Imp.Memory.equal expected (Dflow.Memo.reference p));
  checkb "second fetch identical" true
    (Imp.Memory.equal expected (Dflow.Memo.reference p))

(* --- Server: the serve protocol -------------------------------------- *)

module J = Machine.Json

let line fields = J.to_string (J.Assoc fields)

let sum_source = "i := 0 s := 0 while i < 10 do s := s + i i := i + 1 end"

let array_source =
  "array a[4]\ni := 0\nwhile i < 4 do\n  a[i] := i\n  i := i + 1\nend"

let batch =
  [
    line [ ("op", J.String "compile"); ("source", J.String sum_source) ];
    line
      [
        ("op", J.String "run");
        ("source", J.String sum_source);
        ("schema", J.String "2opt");
      ];
    (* seeded faults + fail-stop recovery: the scheduling-heaviest op
       the protocol has, exactly the one that would expose a
       nondeterministic pool *)
    line
      [
        ("op", J.String "simulate");
        ("source", J.String array_source);
        ("schema", J.String "2optp");
        ("pes", J.Int 4);
        ("fault-seed", J.Int 7);
        ("recover", J.Bool true);
      ];
    line
      [
        ("op", J.String "selfcheck-combo");
        ("source", J.String array_source);
        ("combo", J.String "schema1");
      ];
    "{this is not JSON";
    line [ ("op", J.String "no-such-op"); ("id", J.Int 42) ];
    line [ ("op", J.String "stats") ];
  ]

let test_server_byte_identical () =
  (* the tentpole guarantee: one batch, any jobs setting, identical
     bytes -- including the stats line, whose counters are
     deterministic thanks to single-flight (reset puts both runs in
     the same cold-cache state) *)
  Dflow.Memo.reset ();
  let out1 = Serve.Server.run_batch ~jobs:1 batch in
  Dflow.Memo.reset ();
  let out4 = Serve.Server.run_batch ~jobs:4 batch in
  checki "one result per job" (List.length batch) (List.length out1);
  checkb "jobs 1 == jobs 4, byte for byte" true (out1 = out4)

let test_server_results () =
  Dflow.Memo.reset ();
  let out = Array.of_list (Serve.Server.run_batch ~jobs:2 batch) in
  checkb "compile carries node count" true (contains out.(0) "\"nodes\"");
  checkb "run checked the reference" true
    (contains out.(1) "\"reference\":\"ok\"");
  checkb "run final store" true (contains out.(1) "\"s[0]\":45");
  checkb "faulty simulate recovered" true
    (contains out.(2) "\"reference\":\"ok\"" && contains out.(2) "\"ok\":true");
  checkb "selfcheck-combo agreed" true
    (contains out.(3) "\"divergences\":0");
  checkb "malformed line is a per-job error" true
    (contains out.(4) "\"ok\":false" && contains out.(4) "\"id\":4");
  checkb "unknown op is a per-job error with the caller's id" true
    (contains out.(5) "\"ok\":false" && contains out.(5) "\"id\":42");
  checkb "stats line carries the counters" true
    (contains out.(6) "\"hits\"" && contains out.(6) "\"hit_rate\"")

let test_server_id_defaults () =
  let out =
    Serve.Server.run_batch ~jobs:1
      [
        line [ ("op", J.String "compile"); ("source", J.String "x := 1") ];
        line
          [
            ("op", J.String "compile");
            ("source", J.String "x := 2");
            ("id", J.Int 7);
          ];
      ]
  in
  match out with
  | [ a; b ] ->
      checkb "0-based index id" true (contains a "\"id\":0");
      checkb "explicit id echoed" true (contains b "\"id\":7")
  | _ -> Alcotest.fail "expected two result lines"

let test_server_packed_refuses_faults () =
  (* faults and the multiprocessor are reference-engine features: a
     packed run with faults, and any packed simulate, is a per-job
     error, never a quiet run on the reference machine; the same jobs
     on the reference engine run *)
  let job op engine extra =
    line
      ([
         ("op", J.String op);
         ("source", J.String sum_source);
         ("schema", J.String "2optp");
         ("engine", J.String engine);
       ]
      @ extra)
  in
  let stall = [ ("fault-seed", J.Int 2); ("fault-classes", J.String "stall") ] in
  let recover = [ ("fault-seed", J.Int 7); ("recover", J.Bool true) ] in
  let out =
    Array.of_list
      (Serve.Server.run_batch ~jobs:1
         [
           job "run" "packed" stall;
           job "simulate" "packed" recover;
           job "simulate" "packed" [ ("recover", J.Bool true) ];
           job "simulate" "packed" [];
           job "run" "reference" stall;
           job "simulate" "reference" recover;
           job "run" "packed" [];
         ])
  in
  for i = 0 to 3 do
    checkb (Printf.sprintf "packed job %d refused" i) true
      (contains out.(i) "\"ok\":false"
      && contains out.(i) {|use engine \"reference\"|})
  done;
  checkb "plain packed simulate names the multiprocessor" true
    (contains out.(3) "no multiprocessor model");
  for i = 4 to 6 do
    checkb (Printf.sprintf "job %d runs" i) true
      (contains out.(i) "\"ok\":true"
      && contains out.(i) "\"reference\":\"ok\"")
  done;
  (* the library calls under the ops refuse the combination too *)
  let c =
    Dflow.Memo.compile_source
      (Dflow.Driver.Schema2_opt Dflow.Engine.Pipelined)
      sum_source
  in
  let prog =
    { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout }
  in
  let config =
    { Machine.Config.default with Machine.Config.engine = Machine.Config.Packed }
  in
  let faults () =
    Machine.Fault.make
      (Machine.Fault.spec ~seed:2 ~classes:Machine.Fault.all_classes ())
  in
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  let mesh = Sched.Topology.make Sched.Topology.Mesh ~pes:4 in
  raises "Interp.run_report ~faults" (fun () ->
      Machine.Interp.run_report ~config ~faults:(faults ()) prog);
  raises "Multiproc.run" (fun () -> Machine.Multiproc.run ~config ~pes:2 prog);
  raises "Multiproc.run ~faults" (fun () ->
      Machine.Multiproc.run ~config ~faults:(faults ()) ~pes:2 prog);
  raises "Multiproc.run ~recovery" (fun () ->
      Machine.Multiproc.run ~config ~recovery:(Machine.Recovery.spec ()) ~pes:2
        prog);
  raises "Multiproc.run ~topo" (fun () ->
      Machine.Multiproc.run ~config ~topo:mesh ~pes:4 prog);
  raises "Multiproc.run ~steal" (fun () ->
      Machine.Multiproc.run ~config ~steal:Sched.Steal.default ~pes:2 prog)

let test_server_max_line_bytes () =
  let big =
    line
      [
        ("op", J.String "compile");
        ("source", J.String (String.make 4096 'x'));
      ]
  in
  let out =
    Serve.Server.run_batch ~jobs:1 ~max_line_bytes:256
      [ line [ ("op", J.String "compile"); ("source", J.String "x := 1") ]; big ]
  in
  match out with
  | [ ok; err ] ->
      checkb "small job unaffected" true (contains ok "\"ok\":true");
      checkb "oversized job is a per-job error" true
        (contains err "\"ok\":false" && contains err "line too long"
        && contains err "\"id\":1")
  | _ -> Alcotest.fail "expected two result lines"

(* run a raw byte stream through the full stdin path (bounded framing
   included) and return the result lines *)
let serve_bytes ?max_line_bytes bytes =
  let inp = Filename.temp_file "serve_in" ".txt" in
  let outp = Filename.temp_file "serve_out" ".txt" in
  let oc = open_out_bin inp in
  output_string oc bytes;
  close_out oc;
  let ic = open_in_bin inp in
  let oc = open_out_bin outp in
  Serve.Server.serve ~jobs:1 ?max_line_bytes ic oc;
  close_in ic;
  close_out oc;
  let ic = open_in_bin outp in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = go [] in
  close_in ic;
  Sys.remove inp;
  Sys.remove outp;
  lines

let test_serve_oversized_stream () =
  let bytes =
    String.concat "\n"
      [
        {|{"op":"compile","source":"x := 1"}|};
        String.make 2048 'j';
        {|{"op":"compile","source":"y := 2"}|};
      ]
    ^ "\n"
  in
  match serve_bytes ~max_line_bytes:512 bytes with
  | [ a; b; c ] ->
      checkb "first job ok" true (contains a "\"ok\":true");
      checkb "oversized line errors with its length" true
        (contains b "\"ok\":false" && contains b "2048 bytes");
      checkb "stream recovers after the oversized line" true
        (contains c "\"ok\":true")
  | out ->
      Alcotest.fail
        (Fmt.str "expected three result lines, got %d" (List.length out))

(* fuzz: the server never raises and answers every line exactly once,
   whatever bytes arrive -- junk, truncated JSON, NULs, oversized *)
let prop_server_never_raises =
  let gen_bytes =
    QCheck.Gen.(
      string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 600))
  in
  QCheck.Test.make ~name:"serve: one well-formed result per input line"
    ~count:100
    (QCheck.make ~print:String.escaped gen_bytes)
    (fun bytes ->
      let out = serve_bytes ~max_line_bytes:64 bytes in
      (* how many lines does the bounded reader see? *)
      let expected =
        let n = ref 0 and last = ref (-1) in
        String.iteri (fun i c -> if c = '\n' then (incr n; last := i)) bytes;
        if String.length bytes > 0 && !last < String.length bytes - 1 then
          !n + 1
        else !n
      in
      List.length out = expected
      && List.for_all
           (fun l ->
             match J.of_string l with
             | J.Assoc fields ->
                 List.mem_assoc "id" fields && List.mem_assoc "ok" fields
             | _ -> false
             | exception J.Parse_error _ -> false)
           out)

let () =
  Alcotest.run "service"
    [
      ( "hash",
        [
          Alcotest.test_case "stable + pinned" `Quick test_hash_stable;
          Alcotest.test_case "framing" `Quick test_hash_framing;
          Alcotest.test_case "raw-text keying" `Quick test_hash_raw_text;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss counters" `Quick test_cache_counters;
          Alcotest.test_case "LRU eviction" `Quick test_cache_eviction;
          Alcotest.test_case "failures cached" `Quick
            test_cache_failure_cached;
          Alcotest.test_case "reset" `Quick test_cache_reset;
        ] );
      ( "pool",
        [
          Alcotest.test_case "deterministic order" `Quick
            test_pool_deterministic;
          Alcotest.test_case "error isolation" `Quick
            test_pool_error_isolation;
          Alcotest.test_case "invalid jobs" `Quick test_pool_invalid_jobs;
          Alcotest.test_case "emit in order" `Quick test_pool_emit_order;
          Alcotest.test_case "raising emit does not deadlock" `Quick
            test_pool_emit_raising_no_deadlock;
          Alcotest.test_case "raising emit after full drain" `Quick
            test_pool_emit_raising_last;
          Alcotest.test_case "backtrace preserved" `Quick
            test_pool_backtrace_preserved;
        ] );
      ( "framing",
        [
          Alcotest.test_case "matches input_line within budget" `Quick
            test_framing_matches_input_line;
          Alcotest.test_case "bounded + line-synchronised" `Quick
            test_framing_bounds;
        ] );
      ( "memo",
        [ Alcotest.test_case "reference store" `Quick test_memo_reference ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_memo_transparent ] );
      ( "server",
        [
          Alcotest.test_case "byte-identical across jobs" `Quick
            test_server_byte_identical;
          Alcotest.test_case "per-op results" `Quick test_server_results;
          Alcotest.test_case "id defaulting" `Quick test_server_id_defaults;
          Alcotest.test_case "packed engine refuses faults" `Quick
            test_server_packed_refuses_faults;
          Alcotest.test_case "--max-line-bytes per-job error" `Quick
            test_server_max_line_bytes;
          Alcotest.test_case "oversized stream recovers" `Quick
            test_serve_oversized_stream;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_server_never_raises ] );
    ]

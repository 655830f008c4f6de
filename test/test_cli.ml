(* Integration tests of the df_compile command-line driver: spawn the
   real binary and check its observable behaviour (exit codes and
   output) for every subcommand. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let binary =
  (* cwd is _build/default/test under `dune runtest`, the workspace root
     under `dune exec` *)
  List.find_opt Sys.file_exists
    [ "../bin/df_compile.exe"; "_build/default/bin/df_compile.exe" ]
  |> Option.value ~default:"../bin/df_compile.exe"

let write_temp ext contents =
  let path = Filename.temp_file "dflow_cli" ext in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

let capture cmd =
  let out = Filename.temp_file "dflow_out" ".txt" in
  let code = Sys.command (Fmt.str "%s > %s 2>&1" cmd out) in
  let ic = open_in out in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Sys.remove out;
  (code, s)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let sum_program = "i := 0 s := 0 while i < 10 do s := s + i i := i + 1 end"

let test_run () =
  let f = write_temp ".imp" sum_program in
  let code, out = capture (Fmt.str "%s run %s -s 2opt -v" binary f) in
  checki "exit code" 0 code;
  checkb "final store shown" true (contains out "s = 45");
  checkb "reference checked" true (contains out "reference check  ok")

let test_run_transforms_and_trace () =
  let f = write_temp ".imp" sum_program in
  let code, out =
    capture (Fmt.str "%s run %s -s 2p -t value,reads --trace -O" binary f)
  in
  checki "exit code" 0 code;
  checkb "timeline printed" true (contains out "== timeline");
  checkb "contexts printed" true (contains out "firings per iteration context")

let test_compare () =
  let f = write_temp ".imp" sum_program in
  let code, out = capture (Fmt.str "%s compare %s" binary f) in
  checki "exit code" 0 code;
  checkb "all schema rows" true
    (contains out "schema1" && contains out "schema2-opt"
    && contains out "+sec6")

let test_analyze () =
  let f =
    write_temp ".imp"
      "mayalias a b; h: x := x + 1 y := y + a if x < 4 goto h"
  in
  let code, out = capture (Fmt.str "%s analyze %s" binary f) in
  checki "exit code" 0 code;
  checkb "cfg printed" true (contains out "control-flow graph");
  checkb "loop found" true (contains out "loop 0");
  checkb "alias classes" true (contains out "alias classes");
  checkb "switch placement" true (contains out "switch placement")

let test_dot_stages () =
  let f = write_temp ".imp" sum_program in
  List.iter
    (fun stage ->
      let code, out =
        capture (Fmt.str "%s dot %s --stage %s" binary f stage)
      in
      checki (stage ^ " exit code") 0 code;
      checkb (stage ^ " is dot") true (contains out "digraph"))
    [ "cfg"; "loopified"; "dfg"; "pdg" ]

let test_emit_check_exec () =
  let f = write_temp ".imp" sum_program in
  let dfg = Filename.temp_file "dflow_cli" ".dfg" in
  (* no [capture] here: its own redirection would override ours *)
  let code = Sys.command (Fmt.str "%s emit %s -s 2opt -O > %s 2>/dev/null" binary f dfg) in
  checki "emit exit" 0 code;
  let code, out = capture (Fmt.str "%s check %s" binary dfg) in
  checki "check exit" 0 code;
  checkb "well-formed" true (contains out "well-formed");
  let code, out = capture (Fmt.str "%s exec %s %s" binary dfg f) in
  checki "exec exit" 0 code;
  checkb "store" true (contains out "s = 45");
  checkb "reference" true (contains out "reference check: ok")

let test_simulate_with_recovery () =
  let f = write_temp ".imp" sum_program in
  let code, out =
    capture
      (Fmt.str
         "%s simulate %s -s 2opt -p 4 --fault-seed 7 --fault-rate 0.02 \
          --fault-classes drop,dup,delay,reorder --recover"
         binary f)
  in
  checki "exit code" 0 code;
  checkb "fault-tolerance section" true (contains out "== fault tolerance ==");
  checkb "transport counters shown" true (contains out "retransmits");
  checkb "recovery reported" true (contains out "recovered");
  checkb "reference checked" true (contains out "reference check  ok");
  (* an unknown fault class is a usage error that names the valid ones *)
  let code, out =
    capture
      (Fmt.str "%s simulate %s --fault-seed 1 --fault-classes bogus" binary f)
  in
  checki "unknown class exit code" 2 code;
  checkb "error lists valid classes" true (contains out "valid classes")

(* A flipped payload fails the transport's checksum and is resent like
   a drop, so --recover reaches the reference store with the default
   fault classes (which include flips) and with flips alone. *)
let test_recover_masks_flips () =
  List.iter
    (fun (classes, schema) ->
      let code, out =
        capture
          (Fmt.str
             "%s simulate ../examples/programs/stencil.imp -s %s -p 4 \
              --placement hash --fault-seed 1 --recover --fault-classes %s"
             binary schema classes)
      in
      let run = Fmt.str "classes %s, -s %s" classes schema in
      checki (run ^ ": exit code") 0 code;
      checkb (run ^ ": reference check ok") true
        (contains out "reference check  ok"))
    [
      ("all", "2optp"); ("all", "3"); ("all", "1");
      ("flip", "2optp"); ("flip", "3"); ("flip", "1");
    ]

let test_bad_input_fails () =
  let f = write_temp ".imp" "x := (1 +" in
  let code, _ = capture (Fmt.str "%s run %s" binary f) in
  checkb "nonzero exit" true (code <> 0);
  let g = write_temp ".dfg" "node 0 bogus" in
  let code, _ = capture (Fmt.str "%s check %s" binary g) in
  checkb "nonzero exit for bad dfg" true (code <> 0)

let test_schema_fig8 () =
  (* acyclic program: fig8 mode is fine and must agree with reference *)
  let f = write_temp ".imp" "x := 1 y := x + 1" in
  let code, out = capture (Fmt.str "%s run %s -s fig8 -v" binary f) in
  checki "exit" 0 code;
  checkb "ok" true (contains out "reference check  ok")

let test_serve_smoke () =
  (* a small batch through the real binary: one result line per job, in
     order, with a per-job error for the malformed line *)
  let jobs =
    write_temp ".jsonl"
      ({|{"op":"compile","source":"x := 1"}|} ^ "\n"
      ^ {|{"op":"run","source":"x := 1 y := x + 1","schema":"2opt"}|} ^ "\n"
      ^ "{not json\n" ^ {|{"op":"stats"}|} ^ "\n")
  in
  let code, out = capture (Fmt.str "%s serve < %s" binary jobs) in
  checki "exit code" 0 code;
  let lines = String.split_on_char '\n' (String.trim out) in
  checki "one line per job" 4 (List.length lines);
  checkb "compile ok" true (contains (List.nth lines 0) "\"ok\":true");
  checkb "run checked reference" true
    (contains (List.nth lines 1) "\"reference\":\"ok\"");
  checkb "malformed line is a per-job error" true
    (contains (List.nth lines 2) "\"ok\":false"
    && contains (List.nth lines 2) "\"id\":2");
  checkb "stats answered" true (contains (List.nth lines 3) "\"hit_rate\"")

let test_serve_bad_jobs () =
  (* --jobs below 1 is a usage error, same contract as --engine *)
  List.iter
    (fun n ->
      let code, out =
        capture (Fmt.str "echo '' | %s serve --jobs=%d" binary n)
      in
      checki (Fmt.str "jobs=%d exit code" n) 2 code;
      checkb "error names the flag" true (contains out "--jobs"))
    [ 0; -3 ];
  (* selfcheck shares the flag and the validation *)
  let code, out = capture (Fmt.str "%s selfcheck --count 1 --jobs 0" binary) in
  checki "selfcheck jobs=0 exit code" 2 code;
  checkb "error names the flag" true (contains out "--jobs")

let test_serve_jobs_byte_identical () =
  let jobs =
    write_temp ".jsonl"
      ({|{"op":"run","source":"i := 0 s := 0 while i < 6 do s := s + i i := i + 1 end","schema":"2p"}|}
     ^ "\n"
      ^ {|{"op":"simulate","source":"i := 0 s := 0 while i < 6 do s := s + i i := i + 1 end","schema":"2optp","pes":4,"fault-seed":7,"recover":true}|}
     ^ "\n")
  in
  let c1, out1 = capture (Fmt.str "%s serve --jobs 1 < %s" binary jobs) in
  let c4, out4 = capture (Fmt.str "%s serve --jobs 4 < %s" binary jobs) in
  checki "jobs 1 exit" 0 c1;
  checki "jobs 4 exit" 0 c4;
  Alcotest.(check string) "byte-identical output" out1 out4

let test_simulate_scale () =
  (* the scaling stack end to end: mesh topology, hierarchical
     placement, stealing on — with the report lines for each *)
  let f = write_temp ".imp" sum_program in
  let code, out =
    capture
      (Fmt.str
         "%s simulate %s -s 2opt --pes 16 --net mesh --placement hier --steal"
         binary f)
  in
  checki "exit code" 0 code;
  checkb "reference checked" true (contains out "reference check  ok");
  checkb "hierarchy reported" true (contains out "hierarchy");
  checkb "topology reported" true (contains out "mesh 4x4");
  checkb "hop traffic reported" true (contains out "link hops crossed")

let test_simulate_bad_pes () =
  let f = write_temp ".imp" sum_program in
  List.iter
    (fun n ->
      let code, out =
        capture (Fmt.str "%s simulate %s --pes=%d" binary f n)
      in
      checki (Fmt.str "pes=%d exit code" n) 2 code;
      checkb "error names the flag" true (contains out "--pes");
      checkb "error states the valid range" true (contains out "at least 1"))
    [ 0; -4 ]

let test_simulate_bad_net () =
  let f = write_temp ".imp" sum_program in
  let code, out = capture (Fmt.str "%s simulate %s --net bogus" binary f) in
  checki "exit code" 2 code;
  checkb "error lists the topologies" true
    (contains out "uniform | mesh | torus | cube")

let test_simulate_packed_conflict () =
  (* the packed engine is single-PE: simulate, the multiprocessor, has
     no --engine flag at all, so asking for one is cmdliner's usual
     unknown-option error *)
  let f = write_temp ".imp" sum_program in
  let code, out =
    capture (Fmt.str "%s simulate %s --engine packed" binary f)
  in
  checkb "simulate --engine exit code non-zero" true (code <> 0);
  checkb "error names the unknown option" true (contains out "unknown option");
  (* faults are a reference-engine feature: a packed run asking for
     them is refused, not quietly run on the reference machine *)
  let code, out =
    capture (Fmt.str "%s run %s --engine packed --fault-seed 2" binary f)
  in
  checki "run --fault-seed exit code" 2 code;
  checkb "error names the reference engine" true
    (contains out "--engine reference")

(* The job surface pinned byte for byte: one MD5 over the stdout and exit
   code of a fixed grid that sets every run and simulate flag at least
   once, on the five example programs.  Schema 1 and fig8 single-PE runs
   stay out: their sanitizer block is not part of the job contract. *)
let pin_grid =
  [
    "run -s 2optp -v";
    "run -s 2 -t value,reads -O --trace";
    "run -s 2p -p 2 --mem-latency 7 --engine packed";
    "run -s 3 --no-certify -v";
    "run -s 2optp --fault-seed 2 --fault-rate 0.05 --fault-classes stall,delay";
    "run -s 3c --engine reference -t reads -p 3";
    "simulate -s 2optp -p 4 --placement affinity";
    "simulate -s 2opt --pes 16 --placement hier --net mesh --steal";
    "simulate -s 2p -p 8 --placement hash --net torus --net-latency 3 \
     --net-bandwidth 2 --net-queue 4 --modules 2 --mem-latency 6";
    "simulate -s 3 -p 4 --placement rr --net cube --fault-seed 7 \
     --fault-rate 0.02 --fault-classes drop,dup,delay,reorder --recover";
    "simulate -s 2optp -p 4 --no-certify -t value -O --trace-out TRACE";
    "emit -s 2optp -O";
    "compare";
    "profile -s 2p --json --trace-out TRACE";
  ]

let examples =
  List.map
    (Filename.concat "../examples/programs")
    [ "bypass.imp"; "spaghetti.imp"; "stencil.imp"; "subroutine.imp"; "sum.imp" ]

let test_pinned_grid () =
  let trace = Filename.temp_file "dflow_pin" ".json" in
  let out = Filename.temp_file "dflow_pin" ".txt" in
  let buf = Buffer.create 65536 in
  List.iter
    (fun file ->
      List.iter
        (fun cmd ->
          let words =
            List.map
              (fun w -> if w = "TRACE" then trace else w)
              (String.split_on_char ' ' cmd)
          in
          let args = String.concat " " (List.hd words :: file :: List.tl words) in
          let code =
            Sys.command (Fmt.str "%s %s > %s 2>/dev/null" binary args out)
          in
          let ic = open_in_bin out in
          let s = really_input_string ic (in_channel_length ic) in
          close_in ic;
          Buffer.add_string buf (Fmt.str "%s\n%d\n%s" cmd code s))
        pin_grid)
    examples;
  Sys.remove out;
  if Sys.file_exists trace then Sys.remove trace;
  Alcotest.(check string)
    "grid digest" "5b785c810db4bc8d14b39f3ad3bd2115"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Both doors, one behaviour: every row is refused by the CLI with exit
   2 and by serve with a per-job error, with the one message the job
   decoder raises before anything is compiled or run.  [None] marks an
   option that only the CLI has. *)
module J = Machine.Json

let capture_split cmd =
  let out = Filename.temp_file "dflow_out" ".txt" in
  let err = Filename.temp_file "dflow_err" ".txt" in
  let code = Sys.command (Fmt.str "%s > %s 2> %s" cmd out err) in
  let read f =
    let ic = open_in_bin f in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove f;
    s
  in
  let o = read out in
  (code, o, read err)

let door_rows =
  let s x = J.String x and i n = J.Int n in
  [
    ("run -t bogus", Some ("run", [ ("transforms", s "bogus") ]), "--transforms", "istructures, all");
    ("run -s bogus", Some ("run", [ ("schema", s "bogus") ]), "--schema", "2optp, 3, 3s");
    ("simulate --placement bogus", Some ("simulate", [ ("placement", s "bogus") ]), "--placement", "hash | rr | affinity | hier");
    ("run --engine bogus", Some ("run", [ ("engine", s "bogus") ]), "--engine", "valid engines: reference, packed");
    ("simulate --net bogus", Some ("simulate", [ ("net", s "bogus") ]), "--net", "uniform | mesh | torus | cube");
    ("run --pes 0", Some ("run", [ ("pes", i 0) ]), "--pes", "at least 1");
    ("profile --pes 0", Some ("run", [ ("pes", i 0) ]), "--pes", "at least 1");
    ("compare --pes 0", Some ("run", [ ("pes", i 0) ]), "--pes", "at least 1");
    ("simulate --pes 0", Some ("simulate", [ ("pes", i 0) ]), "--pes", "at least 1");
    ("run --mem-latency 0", Some ("run", [ ("mem-latency", i 0) ]), "--mem-latency", "at least 1");
    ("simulate --mem-latency=-1", Some ("simulate", [ ("mem-latency", i (-1)) ]), "--mem-latency", "at least 1");
    ("run --fault-rate 5", Some ("run", [ ("fault-rate", i 5) ]), "--fault-rate", "within [0, 1]");
    ("run --fault-rate=-1", Some ("run", [ ("fault-rate", i (-1)) ]), "--fault-rate", "within [0, 1]");
    ("run --fault-classes bogus", Some ("run", [ ("fault-classes", s "bogus") ]), "--fault-classes", "valid classes");
    ("simulate --net-bandwidth 0", Some ("simulate", [ ("net-bandwidth", i 0) ]), "--net-bandwidth", "at least 1");
    ("simulate --modules 0", Some ("simulate", [ ("modules", i 0) ]), "--modules", "at least 1");
    ("simulate --modules=-1", Some ("simulate", [ ("modules", i (-1)) ]), "--modules", "at least 1");
    ( "run --engine packed --fault-seed 2",
      Some ("run", [ ("engine", s "packed"); ("fault-seed", i 2) ]),
      "--engine", "use --engine reference" );
    ("dot --stage bogus", None, "--stage", "cfg, loopified, dfg, pdg");
    ("selfcheck --count=-3", None, "--count", "at least 1");
    ("serve --jobs=0", None, "--jobs", "at least 1");
  ]

let test_both_doors () =
  let f = write_temp ".imp" sum_program in
  List.iter
    (fun (cli, json, flag, valid) ->
      let sub, rest =
        match String.index_opt cli ' ' with
        | Some k -> (String.sub cli 0 k, String.sub cli k (String.length cli - k))
        | None -> (cli, "")
      in
      let file = if sub = "selfcheck" || sub = "serve" then "" else f in
      let code, out, err =
        capture_split (Fmt.str "%s %s %s%s < /dev/null" binary sub file rest)
      in
      checki (cli ^ ": exit code") 2 code;
      checkb (cli ^ ": nothing ran") true (out = "");
      checkb (cli ^ ": names " ^ flag) true (contains err flag);
      checkb (cli ^ ": states the valid values") true (contains err valid);
      match json with
      | None -> ()
      | Some (op, fields) ->
          let req =
            J.Assoc ((("op", J.String op) :: ("source", J.String sum_program) :: fields))
          in
          let decoded =
            match
              Serve.Job.of_json
                (if op = "run" then Serve.Job.Run else Serve.Job.Simulate)
                req
            with
            | _ -> None
            | exception Serve.Job.Invalid m -> Some m
          in
          checkb (cli ^ ": the decoder refuses it") true (decoded <> None);
          let reply = J.of_string (List.hd (Serve.Server.run_batch ~jobs:1 [ J.to_string req ])) in
          checkb (cli ^ ": serve per-job error") true
            (J.member "ok" reply = Some (J.Bool false));
          let msg = Option.bind (J.member "error" reply) J.to_string_opt in
          checkb (cli ^ ": one message") true (msg = decoded);
          checkb (cli ^ ": the CLI prints it") true
            (err = Fmt.str "df_compile: %s\n" (Option.get msg)))
    door_rows;
  (* both doors accept the same transform words *)
  let code, _, _ = capture_split (Fmt.str "%s run %s -t all" binary f) in
  checki "run -t all" 0 code;
  let reply =
    Serve.Server.run_batch ~jobs:1
      [ J.to_string (J.Assoc [ ("op", J.String "run"); ("source", J.String sum_program); ("transforms", J.String "all") ]) ]
  in
  checkb "serve transforms all" true (contains (List.hd reply) "\"ok\":true");
  (* a FILE that does not parse or typecheck is a failed job, exit 1,
     with serve's per-job error *)
  List.iter
    (fun src ->
      let bad = write_temp ".imp" src in
      let code, _, err = capture_split (Fmt.str "%s run %s" binary bad) in
      checki (src ^ ": exit code") 1 code;
      let reply =
        J.of_string
          (List.hd
             (Serve.Server.run_batch ~jobs:1
                [ J.to_string (J.Assoc [ ("op", J.String "run"); ("source", J.String src) ]) ]))
      in
      let msg = Option.bind (J.member "error" reply) J.to_string_opt in
      checkb (src ^ ": serve's message") true
        (Some err = Option.map (Fmt.str "df_compile: %s\n") msg))
    [ "x := (1 +"; "x := true + 1" ]

(* Every simulate option reaches the machine through both doors: one
   serve job reports the cycles the CLI prints, and both check the
   store against the reference interpreter. *)
let test_simulate_parity () =
  let stencil = "../examples/programs/stencil.imp" in
  let source = In_channel.with_open_bin stencil In_channel.input_all in
  let base = "-s 2optp --pes 16 --placement hier" in
  List.iter
    (fun (flags, fields, expect) ->
      let code, out, _ =
        capture_split (Fmt.str "%s simulate %s %s %s" binary stencil base flags)
      in
      checki (flags ^ ": exit code") 0 code;
      let line =
        List.find
          (fun l -> String.length l > 7 && String.sub l 0 7 = "cycles ")
          (String.split_on_char '\n' out)
      in
      let cli = int_of_string (String.trim (String.sub line 7 (String.length line - 7))) in
      let reply =
        J.of_string
          (List.hd
             (Serve.Server.run_batch ~jobs:1
                [
                  J.to_string
                    (J.Assoc
                       ([
                          ("op", J.String "simulate");
                          ("source", J.String source);
                          ("schema", J.String "2optp");
                          ("pes", J.Int 16);
                          ("placement", J.String "hier");
                        ]
                       @ fields));
                ]))
      in
      let served = Option.bind (J.member "cycles" reply) J.to_int_opt in
      checkb (flags ^ ": same cycles") true (served = Some cli);
      Option.iter (fun n -> checki (flags ^ ": cycles") n cli) expect;
      checkb (flags ^ ": CLI store checked") true (contains out "reference check  ok");
      checkb (flags ^ ": serve store checked") true
        (J.member "reference" reply = Some (J.String "ok"));
      checkb (flags ^ ": same certificate verdict") true
        (contains out "certificate      none"
        = (J.member "certificate" reply = Some (J.String "none"))))
    [
      ("--net mesh", [ ("net", J.String "mesh") ], None);
      ("--steal", [ ("steal", J.Bool true) ], None);
      ("--net-bandwidth 1", [ ("net-bandwidth", J.Int 1) ], None);
      ("--net-queue 1 --net-bandwidth 1", [ ("net-queue", J.Int 1); ("net-bandwidth", J.Int 1) ], None);
      ("--modules 2", [ ("modules", J.Int 2) ], None);
      ("--no-certify", [ ("no-certify", J.Bool true) ], None);
      ("--net mesh --steal", [ ("net", J.String "mesh"); ("steal", J.Bool true) ], Some 2685);
    ]

let () =
  if not (Sys.file_exists binary) then begin
    print_endline "df_compile binary not found; skipping CLI tests";
    exit 0
  end;
  Alcotest.run "cli"
    [
      ( "subcommands",
        [
          Alcotest.test_case "run" `Quick test_run;
          Alcotest.test_case "run with transforms and trace" `Quick
            test_run_transforms_and_trace;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "analyze" `Quick test_analyze;
          Alcotest.test_case "dot stages" `Quick test_dot_stages;
          Alcotest.test_case "emit / check / exec" `Quick test_emit_check_exec;
          Alcotest.test_case "simulate with faults and recovery" `Quick
            test_simulate_with_recovery;
          Alcotest.test_case "--recover masks bit flips" `Quick
            test_recover_masks_flips;
          Alcotest.test_case "bad input fails" `Quick test_bad_input_fails;
          Alcotest.test_case "fig8 on acyclic program" `Quick test_schema_fig8;
          Alcotest.test_case "serve smoke" `Quick test_serve_smoke;
          Alcotest.test_case "serve rejects bad --jobs" `Quick
            test_serve_bad_jobs;
          Alcotest.test_case "serve byte-identical across jobs" `Quick
            test_serve_jobs_byte_identical;
          Alcotest.test_case "simulate at scale (mesh/hier/steal)" `Quick
            test_simulate_scale;
          Alcotest.test_case "simulate rejects bad --pes" `Quick
            test_simulate_bad_pes;
          Alcotest.test_case "simulate rejects bad --net" `Quick
            test_simulate_bad_net;
          Alcotest.test_case "packed engine rejects multiproc flags" `Quick
            test_simulate_packed_conflict;
          Alcotest.test_case "pinned job grid" `Quick test_pinned_grid;
          Alcotest.test_case "both doors, one behaviour" `Quick test_both_doors;
          Alcotest.test_case "simulate parity across doors" `Quick
            test_simulate_parity;
        ] );
    ]

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
        ] );
    ]

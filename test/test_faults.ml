(* Robustness tests for deterministic fault injection (Machine.Fault)
   and the structured diagnosis (Machine.Diagnosis).  The invariants
   under test: the fault plan is
   a pure function of the seed; every corruption class maps to a
   detection rather than a silently wrong store; timing faults (delay,
   port stall) perturb the schedule but never the result. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

module F = Machine.Fault
module D = Machine.Diagnosis

(* A cyclic Schema 2 workload: the loop makes contexts and the
   waiting-matching store do real work, so faults have room to bite. *)
let compiled =
  lazy
    (Dflow.Driver.compile
       (Dflow.Driver.Schema2 Dflow.Engine.Barrier)
       (Imp.Factory.sum_kernel ~n:10 ()))

let mprog () =
  let c = Lazy.force compiled in
  { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout }

let reference = lazy (Imp.Eval.run_program (Imp.Factory.sum_kernel ~n:10 ()))

let contains msg needle =
  let n = String.length needle and m = String.length msg in
  let rec go i = i + n <= m && (String.sub msg i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* The pure decision function                                         *)

let test_decision_deterministic () =
  let spec = F.spec ~rate:0.05 ~seed:11 () in
  let enum s = List.init 2000 (F.decision s) in
  checkb "same seed, same plan" true (enum spec = enum spec);
  checkb "different seed, different plan" true
    (enum spec <> enum (F.spec ~rate:0.05 ~seed:12 ()));
  checkb "rate zero never injects" true
    (List.for_all (( = ) F.Pass) (enum (F.spec ~rate:0.0 ~seed:11 ())))

let test_decision_respects_classes () =
  let only_drop = { F.no_classes with F.drop = true } in
  let spec = F.spec ~rate:0.2 ~classes:only_drop ~seed:3 () in
  let acted = ref 0 in
  for i = 0 to 1999 do
    match F.decision spec i with
    | F.Pass -> ()
    | F.Act F.Drop -> incr acted
    | F.Act f -> Alcotest.failf "class leak: %s" (F.fault_to_string f)
  done;
  checkb "a 20%% drop plan does drop" true (!acted > 0)

let test_classes_of_string () =
  let c = F.classes_of_string "drop,reorder" in
  checkb "drop parsed" true c.F.drop;
  checkb "reorder parsed" true c.F.reorder;
  checkb "others off" false
    (c.F.duplicate || c.F.bit_flip || c.F.delay || c.F.port_stall);
  checkb "all turns everything on" true (F.classes_of_string "all" = F.all_classes);
  checkb "aliases accepted" true
    ((F.classes_of_string "dup").F.duplicate
    && (F.classes_of_string "bitflip").F.bit_flip);
  match F.classes_of_string "drop,bogus" with
  | _ -> Alcotest.fail "unknown class must be rejected"
  | exception Failure msg ->
      checkb "error names the offender" true (contains msg "bogus");
      checkb "error lists the valid classes" true
        (contains msg "valid classes" && contains msg "reorder"
        && contains msg "drop")

(* ------------------------------------------------------------------ *)
(* Whole-run reproducibility                                          *)

let run_with spec =
  let plan = F.make spec in
  let r = Machine.Interp.run_report ~faults:plan (mprog ()) in
  (plan, r)

let test_same_seed_same_outcome () =
  let spec = F.spec ~rate:0.005 ~seed:5 () in
  let p1, r1 = run_with spec in
  let p2, r2 = run_with spec in
  checkb "identical fault events" true (F.events p1 = F.events p2);
  match (r1, r2) with
  | Ok a, Ok b ->
      checkb "identical store" true
        (Imp.Memory.equal a.Machine.Interp.memory b.Machine.Interp.memory);
      checki "identical makespan" a.Machine.Interp.cycles
        b.Machine.Interp.cycles;
      checkb "identical verdict" true
        (a.Machine.Interp.diagnosis.D.verdict
        = b.Machine.Interp.diagnosis.D.verdict)
  | Error a, Error b ->
      checkb "identical verdict" true (a.D.verdict = b.D.verdict)
  | _ -> Alcotest.fail "same seed produced different outcome shapes"

(* ------------------------------------------------------------------ *)
(* Per-class detection                                                *)

(* Find a seed whose plan actually injects on this workload (low rates
   and short runs can miss), then hand the run to the assertion.  The
   search is deterministic, so the chosen seed is stable across runs. *)
let rec find_injecting ?(seed = 1) ?(rate = 0.002) classes =
  if seed > 300 then Alcotest.fail "no seed below 300 injects this class"
  else
    let spec = F.spec ~rate ~classes ~max_faults:1 ~seed () in
    let plan, r = run_with spec in
    if F.events plan = [] then find_injecting ~seed:(seed + 1) ~rate classes
    else (spec, plan, r)

let diagnosis_of = function
  | Ok r -> r.Machine.Interp.diagnosis
  | Error d -> d

let test_drop_detected () =
  let _, plan, r =
    find_injecting { F.no_classes with F.drop = true }
  in
  let d = diagnosis_of r in
  checkb "a dropped token cannot end cleanly" true (d.D.verdict <> D.Clean);
  checkb "the fault log names the drop" true
    (List.exists (fun e -> e.F.ev_fault = F.Drop) (F.events plan));
  checkb "diagnosis carries the fault log" true (d.D.faults = F.events plan);
  (* a drop starves the graph: the diagnosis must show where *)
  match d.D.verdict with
  | D.Deadlock | D.Leftover _ ->
      checkb "stall diagnosis shows state" true
        (d.D.blocked <> [] || d.D.leftover_tokens > 0)
  | D.Diverged _ | D.Collision _ | D.Double_write _ | D.Corrupted _ -> ()
  | D.Clean -> Alcotest.fail "unreachable"

let test_duplicate_detected () =
  let _, _, r =
    find_injecting { F.no_classes with F.duplicate = true }
  in
  let d = diagnosis_of r in
  checkb "a duplicated token cannot end cleanly" true (d.D.verdict <> D.Clean)

let test_bit_flip_attributable () =
  let _, plan, r =
    find_injecting { F.no_classes with F.bit_flip = true }
  in
  let d = diagnosis_of r in
  (* the machine cannot detect value corruption, but it must never be
     silent: the injection is on record, so a store mismatch downstream
     is attributable *)
  checkb "flip is on record" true
    (List.exists
       (fun e -> match e.F.ev_fault with F.Bit_flip _ -> true | _ -> false)
       (F.events plan));
  checkb "diagnosis is not clean with faults logged" true
    (not (D.is_clean d));
  (match r with
  | Ok res ->
      if not (Imp.Memory.equal res.Machine.Interp.memory (Lazy.force reference))
      then checkb "wrong store implies non-empty fault log" true (d.D.faults <> [])
  | Error _ -> ());
  (* flipping the same bit twice restores the value *)
  let v = Imp.Value.Int 12345 in
  checkb "flip is an involution" true (F.flip_value 7 (F.flip_value 7 v) = v);
  checkb "flip negates bools" true
    (F.flip_value 0 (Imp.Value.Bool true) = Imp.Value.Bool false)

let test_delay_harmless () =
  let _, plan, r =
    find_injecting { F.no_classes with F.delay = true }
  in
  checkb "delay was injected" true
    (List.exists
       (fun e -> match e.F.ev_fault with F.Delay _ -> true | _ -> false)
       (F.events plan));
  match r with
  | Ok res ->
      checkb "delays end cleanly" true
        (res.Machine.Interp.diagnosis.D.verdict = D.Clean);
      checkb "delays preserve the store" true
        (Imp.Memory.equal res.Machine.Interp.memory (Lazy.force reference))
  | Error d ->
      Alcotest.failf "delay broke determinacy: %s"
        (D.verdict_to_string d.D.verdict)

let test_port_stall_harmless () =
  let _, plan, r =
    find_injecting { F.no_classes with F.port_stall = true }
  in
  checkb "stall was injected" true
    (List.exists
       (fun e ->
         match e.F.ev_fault with F.Port_stall _ -> true | _ -> false)
       (F.events plan));
  match r with
  | Ok res ->
      checkb "stalls end cleanly" true
        (res.Machine.Interp.diagnosis.D.verdict = D.Clean);
      checkb "stalls preserve the store" true
        (Imp.Memory.equal res.Machine.Interp.memory (Lazy.force reference))
  | Error d ->
      Alcotest.failf "port stall broke determinacy: %s"
        (D.verdict_to_string d.D.verdict)

(* ------------------------------------------------------------------ *)
(* run_exn failure details (the enriched messages)                    *)

let test_run_exn_reports_diagnosis () =
  let spec, _, _ = find_injecting { F.no_classes with F.drop = true } in
  match Machine.Interp.run_exn ~faults:(F.make spec) (mprog ()) with
  | _ -> Alcotest.fail "expected a failure under token drop"
  | exception Failure msg ->
      checkb "message carries the verdict" true
        (contains msg "deadlock" || contains msg "tokens left");
      checkb "message carries the diagnosis dump" true
        (contains msg "verdict:")
  | exception Machine.Interp.Divergence msg ->
      checkb "message carries the diagnosis dump" true (contains msg "verdict:")

(* ------------------------------------------------------------------ *)
(* What the checkers report, pinned                                   *)

let examples () =
  let dir =
    List.find Sys.file_exists [ "../examples/programs"; "examples/programs" ]
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".imp")
  |> List.sort compare
  |> List.map (fun f ->
         In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all)

let compile_example schema src =
  let spec =
    match Serve.Job.spec_of_string schema with
    | Ok spec -> spec
    | Error e -> failwith e
  in
  let c = Dflow.Driver.compile spec (Imp.Parser.program_of_string src) in
  { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout }

let diagnosis = function
  | Ok r -> r.Machine.Interp.diagnosis
  | Error d -> d

(* The sanitizer and certificate lists, rendered in report order, of (a)
   the five examples under the two unsafe translations on both engines,
   which must agree, and (b) 45 faulty reference runs: the examples ×
   schemas 1, 2optp, 3 × fault seeds 1–3 dropping, duplicating and
   flipping tokens at rate 0.02.  Collision detection is off, so the
   colliding tokens reach the checkers.  One digest pins every line; a
   checker that reports a violation more, less, or in another order
   fails it. *)
let test_checker_reports_pinned () =
  let config = { Machine.Config.default with Machine.Config.detect_collisions = false } in
  let out = Buffer.create 65536 and sanitizer = ref 0 and permission = ref 0 in
  let report (d : D.t) =
    let lines =
      List.map Machine.Sanitize.violation_to_string d.D.sanitizer
      @ ("--" :: List.map Machine.Permission.violation_to_string d.D.permission)
    in
    List.iter (fun l -> Buffer.add_string out (l ^ "\n")) lines;
    lines
  in
  List.iter
    (fun src ->
      List.iter
        (fun schema ->
          let prog = compile_example schema src in
          let run engine =
            diagnosis
              (Machine.Interp.run_report
                 ~config:{ config with Machine.Config.engine }
                 prog)
          in
          let reference = report (run Machine.Config.Reference) in
          Alcotest.(check (list string))
            ("both engines report the same, " ^ schema)
            reference
            (report (run Machine.Config.Packed)))
        [ "fig8"; "3bad" ])
    (examples ());
  let classes = F.classes_of_string "drop,dup,flip" in
  List.iter
    (fun src ->
      List.iter
        (fun schema ->
          let prog = compile_example schema src in
          List.iter
            (fun seed ->
              let faults = F.make (F.spec ~rate:0.02 ~classes ~seed ()) in
              let d =
                diagnosis (Machine.Interp.run_report ~config ~faults prog)
              in
              ignore (report d : string list);
              sanitizer := !sanitizer + List.length d.D.sanitizer;
              permission := !permission + List.length d.D.permission)
            [ 1; 2; 3 ])
        [ "1"; "2optp"; "3" ])
    (examples ());
  checki "faulty runs: sanitizer violations" 68 !sanitizer;
  checki "faulty runs: permission violations" 107 !permission;
  Alcotest.(check string)
    "digest of every rendered list" "045ff78c47da89134932aa6dcc042833"
    (Digest.to_hex (Digest.string (Buffer.contents out)))

(* The whole rendered diagnosis of the same runs: the examples under
   fig8 and 3bad on each engine, and the 45 faulty reference runs.  Its
   digest pins every line a post-mortem prints — verdict, cycles,
   leftover count, peak matching, the blocked frontier, deferred reads,
   the waiting tokens per context (equal counts in
   {!Machine.Diagnosis.order_by_count} order) and the fault log besides
   the two checkers' lists — so a change to the matching store or the
   run loop that moves any of it fails here. *)
let test_diagnoses_pinned () =
  let config = { Machine.Config.default with Machine.Config.detect_collisions = false } in
  let out = Buffer.create 262144 in
  let render label (d : D.t) =
    Buffer.add_string out ("=== " ^ label ^ "\n");
    Buffer.add_string out (D.to_string d)
  in
  List.iteri
    (fun i src ->
      List.iter
        (fun schema ->
          let prog = compile_example schema src in
          List.iter
            (fun (name, engine) ->
              render
                (Fmt.str "example %d %s %s" i schema name)
                (diagnosis
                   (Machine.Interp.run_report
                      ~config:{ config with Machine.Config.engine }
                      prog)))
            [ ("reference", Machine.Config.Reference);
              ("packed", Machine.Config.Packed) ])
        [ "fig8"; "3bad" ])
    (examples ());
  let classes = F.classes_of_string "drop,dup,flip" in
  List.iteri
    (fun i src ->
      List.iter
        (fun schema ->
          let prog = compile_example schema src in
          List.iter
            (fun seed ->
              let faults = F.make (F.spec ~rate:0.02 ~classes ~seed ()) in
              render
                (Fmt.str "example %d %s seed %d" i schema seed)
                (diagnosis (Machine.Interp.run_report ~config ~faults prog)))
            [ 1; 2; 3 ])
        [ "1"; "2optp"; "3" ])
    (examples ());
  Alcotest.(check string)
    "digest of every rendered diagnosis" "365d007c33025c63e7840d6bcb3a7e5e"
    (Digest.to_hex (Digest.string (Buffer.contents out)))

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [
          Alcotest.test_case "decisions deterministic" `Quick
            test_decision_deterministic;
          Alcotest.test_case "decisions respect classes" `Quick
            test_decision_respects_classes;
          Alcotest.test_case "classes_of_string rejects unknowns" `Quick
            test_classes_of_string;
          Alcotest.test_case "same seed, same outcome" `Quick
            test_same_seed_same_outcome;
        ] );
      ( "detection",
        [
          Alcotest.test_case "drop starves and is diagnosed" `Quick
            test_drop_detected;
          Alcotest.test_case "duplicate trips a check" `Quick
            test_duplicate_detected;
          Alcotest.test_case "bit flip is attributable" `Quick
            test_bit_flip_attributable;
          Alcotest.test_case "delay is harmless" `Quick test_delay_harmless;
          Alcotest.test_case "port stall is harmless" `Quick
            test_port_stall_harmless;
          Alcotest.test_case "run_exn reports diagnosis" `Quick
            test_run_exn_reports_diagnosis;
          Alcotest.test_case "checker reports pinned" `Quick
            test_checker_reports_pinned;
          Alcotest.test_case "diagnoses pinned" `Quick test_diagnoses_pinned;
        ] );
    ]

(* The packed-engine tier: the compiled explicit-token-store core
   (lib/machine/packed.ml) held to the reference interpreter.  The
   headline is the differential property — over random programs,
   rotating translation schemas and single-PE configurations, packed
   and reference runs must produce bit-identical final stores,
   identical certificate verdicts, the same cycle count, peaks and op
   breakdown, and the same firing log: every firing's node, context,
   cycle and producer, the per-cycle curves and the critical chain.
   The engines run one machine with one timing model, so any divergence
   is an engine bug, not a timing artefact. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

module B = Dfg.Graph.Builder
module N = Dfg.Node
module Cfg_ = Machine.Config

let packed = { Cfg_.default with Cfg_.engine = Cfg_.Packed }

let programs_dir =
  List.find_opt Sys.file_exists
    [ "../examples/programs"; "examples/programs" ]

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let example_programs () =
  match programs_dir with
  | None -> Alcotest.fail "cannot locate examples/programs"
  | Some dir ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".imp")
      |> List.sort compare
      |> List.map (fun f ->
             ( Filename.chop_extension f,
               Imp.Parser.program_of_string
                 (read_file (Filename.concat dir f)) ))

let compile_best (p : Imp.Ast.program) : Dflow.Driver.compiled =
  match
    Dflow.Driver.compile (Dflow.Driver.Schema2_opt Dflow.Engine.Pipelined) p
  with
  | c -> c
  | exception
      (Dflow.Driver.Aliasing_unsupported _ | Cfg.Intervals.Irreducible _) ->
      Dflow.Driver.compile Dflow.Driver.Schema1 p

let prog_of (c : Dflow.Driver.compiled) =
  { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout }

(* ------------------------------------------------------------------ *)
(* compile_graph layout units                                         *)

let test_compile_layout () =
  let c = compile_best (Imp.Factory.sum_kernel ~n:4 ()) in
  let g = c.Dflow.Driver.graph in
  let code = Machine.Packed.compile_graph g in
  checki "one instruction per node" (Dfg.Graph.num_nodes g)
    (Machine.Packed.instructions code);
  (* frame slots = sum of matching arities, merges excluded (they never
     rendezvous) *)
  let expect = ref 0 in
  for v = 0 to Dfg.Graph.num_nodes g - 1 do
    match Dfg.Graph.kind g v with
    | N.Merge -> ()
    | k -> expect := !expect + N.in_arity k
  done;
  checki "frame slots cover every matching port" !expect
    (Machine.Packed.frame_slots code)

(* ------------------------------------------------------------------ *)
(* The example suite, reference vs packed                             *)

(* A run with a firing log: the log as rows (node, context, cycle, PE,
   producer) with its three curves, and its critical path and chain *)
let run_logged ~config prog =
  let log = Machine.Trace.create () in
  let r = Machine.Interp.run ~config ~log prog in
  let module T = Machine.Trace in
  ( r,
    ( List.init (T.length log) (fun i ->
          (T.node log i, T.ctx log i, T.cycle log i, T.pe log i, T.pred log i)),
      (T.parallelism_curve log, T.in_flight_curve log, T.matching_curve log),
      (T.critical_path log, T.critical_chain log) ) )

(* the scalars both engines keep as running values *)
let scalars (r : Machine.Interp.result) =
  ( (r.Machine.Interp.firings, r.Machine.Interp.memory_ops, r.Machine.Interp.cycles),
    (r.Machine.Interp.peak_parallelism, r.Machine.Interp.peak_in_flight,
     r.Machine.Interp.peak_matching),
    (r.Machine.Interp.dummy_deliveries, r.Machine.Interp.value_deliveries),
    r.Machine.Interp.firings_by_kind )

(* What must agree between the engines on any run of the same graph:
   the final store bit for bit, the firing multiset size, completion,
   leftover count, the certificate verdict, the timing — cycle count
   and peak parallelism — the peak counts of tokens in flight and of
   waiting-matching entries, the delivery counts, the op breakdown in
   its order, and the whole firing log with its curves and chain.  A log
   changes nothing else.  The engine is a wall-clock choice, not a
   different machine. *)
let engines_agree name (prog : Machine.Interp.program) ~config =
  let reference, rlog = run_logged ~config prog in
  let pconfig = { config with Cfg_.engine = Cfg_.Packed } in
  let pk, plog = run_logged ~config:pconfig prog in
  let rows (r, _, _) = r and curves (_, c, _) = c and chain (_, _, c) = c in
  checkb (name ^ ": same firing log") true (rows rlog = rows plog);
  checkb (name ^ ": same curves") true (curves rlog = curves plog);
  checkb (name ^ ": same critical path and chain") true (chain rlog = chain plog);
  checkb (name ^ ": same peak in flight, deliveries and op breakdown") true
    (scalars reference = scalars pk);
  checkb (name ^ ": a log changes no result") true
    (Machine.Interp.run ~config prog = reference
    && Machine.Interp.run ~config:pconfig prog = pk);
  checkb
    (name ^ ": final stores bit-identical")
    true
    (Imp.Memory.equal reference.Machine.Interp.memory
       pk.Machine.Interp.memory);
  checki (name ^ ": same firing count") reference.Machine.Interp.firings
    pk.Machine.Interp.firings;
  checki (name ^ ": same memory ops") reference.Machine.Interp.memory_ops
    pk.Machine.Interp.memory_ops;
  checki (name ^ ": same cycles") reference.Machine.Interp.cycles
    pk.Machine.Interp.cycles;
  checki
    (name ^ ": same peak parallelism")
    reference.Machine.Interp.peak_parallelism
    pk.Machine.Interp.peak_parallelism;
  checki
    (name ^ ": same peak matching")
    reference.Machine.Interp.peak_matching pk.Machine.Interp.peak_matching;
  checkb (name ^ ": same completion") reference.Machine.Interp.completed
    pk.Machine.Interp.completed;
  checki (name ^ ": same leftovers")
    reference.Machine.Interp.leftover_tokens
    pk.Machine.Interp.leftover_tokens;
  checkb
    (name ^ ": same certificate verdict")
    true
    (reference.Machine.Interp.diagnosis.Machine.Diagnosis.certified
    = pk.Machine.Interp.diagnosis.Machine.Diagnosis.certified);
  checkb
    (name ^ ": both certify clean")
    true
    (reference.Machine.Interp.diagnosis.Machine.Diagnosis.permission
     = pk.Machine.Interp.diagnosis.Machine.Diagnosis.permission)

let test_examples_differential () =
  List.iter
    (fun (name, p) ->
      let c = compile_best p in
      let prog = prog_of c in
      (* idealised, PE-bounded, memory-port-bound, and long-latency
         configurations: a 37-cycle memory makes both engines' wheels
         span far more than the default latencies *)
      engines_agree name prog ~config:Cfg_.default;
      engines_agree (name ^ "/p4") prog
        ~config:{ Cfg_.default with Cfg_.pes = Some 4 };
      engines_agree (name ^ "/memports") prog
        ~config:
          { Cfg_.default with Cfg_.pes = Some 4; Cfg_.memory_ports = Some 1 };
      engines_agree (name ^ "/p2 memory 37") prog
        ~config:
          {
            Cfg_.default with
            Cfg_.pes = Some 2;
            Cfg_.latencies = { Cfg_.default_latencies with Cfg_.memory = 37 };
          })
    (example_programs ());
  (* I-structure loads and stores, with reads parked before their writes
     and woken by them: Schema 2 pipelined over the array-sum kernel *)
  let kernel =
    prog_of
      (Dflow.Driver.compile
         ~transforms:
           {
             Dflow.Driver.no_transforms with
             Dflow.Driver.istructure = true;
             parallel_reads = true;
           }
         (Dflow.Driver.Schema2 Dflow.Engine.Pipelined)
         (Imp.Factory.array_sum_kernel ~n:8 ()))
  in
  List.iter
    (fun (memory, cycles) ->
      let config =
        { Cfg_.default with
          Cfg_.latencies = { Cfg_.default_latencies with Cfg_.memory } }
      in
      let name = Fmt.str "array_sum_kernel istructures memory %d" memory in
      engines_agree name kernel ~config;
      let r = Machine.Interp.run ~config kernel in
      checki (name ^ ": cycles") cycles r.Machine.Interp.cycles;
      checki (name ^ ": firings") 422 r.Machine.Interp.firings)
    [ (Cfg_.default_latencies.Cfg_.memory, 366); (37, 2610) ]

(* A program whose op breakdown has equal counts (const and loop-entry
   both fire 10 times under -s 2optp): both engines list them in one
   order *)
let test_equal_counts_one_order () =
  let p =
    Imp.Parser.program_of_string
      {|array a0[4]; c0 := 0;
        while c0 < 1 do
          if 5 >= 6 * (a0[0] - (-1)) then
            v3 := v1; v1 := (-(a0[0] * a0[2] % 2));
            a0[v0 / v0 % (-a0[0])] := a0[(-4)] + 4 % a0[1] + ((-1) - v3 - v0 % v3)
          end;
          c0 := c0 + 1
        end;
        a0[v3 - a0[2] + (-a0[1])] := (-v2)|}
  in
  let c =
    Dflow.Driver.compile (Dflow.Driver.Schema2_opt Dflow.Engine.Pipelined) p
  in
  let r = Machine.Interp.run (prog_of c) in
  let count fam = List.assoc fam r.Machine.Interp.firings_by_kind in
  checki "const and loop-entry tie" (count "const") (count "loop-entry");
  engines_agree "equal counts" (prog_of c) ~config:Cfg_.default

let test_examples_match_eval () =
  (* the packed engine agrees with the sequential evaluator on every
     example, independently of the reference interpreter *)
  List.iter
    (fun (name, p) ->
      let reference = Imp.Eval.run_program ~fuel:1_000_000 p in
      let c = compile_best p in
      let r = Machine.Interp.run_exn ~config:packed (prog_of c) in
      checkb (name ^ ": packed matches Imp.Eval") true
        (Imp.Memory.equal reference r.Machine.Interp.memory))
    (example_programs ())

(* ------------------------------------------------------------------ *)
(* Token-store edge cases                                             *)

let layout_xy () =
  Imp.Layout.of_program (Imp.Parser.program_of_string "x := 0 y := 0")

(* Store the value arriving on [src] into variable [x], then feed
   [dst]. *)
let store_then (b : B.t) (x : string) (src : int * int) (dst : int * int) =
  let st = B.add b (N.Store { var = x; indexed = false; mem = N.Plain }) in
  B.connect b ~dummy:true src (st, 0);
  B.connect b src (st, 1);
  B.connect b ~dummy:true (st, 0) dst

(* The collision graph from the reference machine's unit tier: a merge
   fed twice in one context emits two tokens down one arc, which meet
   at the rendezvous slot of an add whose other operand hides behind a
   slow load. *)
let collision_graph () =
  let b = B.create () in
  let start = B.add b (N.Start 3) in
  let m = B.add b N.Merge in
  let add = B.add b (N.Binop Imp.Ast.Add) in
  let ld = B.add b (N.Load { var = "x"; indexed = false; mem = N.Plain }) in
  let stop = B.add b (N.End 2) in
  B.connect b ~dummy:true (start, 0) (m, 0);
  B.connect b ~dummy:true (start, 1) (m, 0);
  B.connect b (m, 0) (add, 0);
  B.connect b ~dummy:true (start, 2) (ld, 0);
  B.connect b (ld, 0) (add, 1);
  B.connect b ~dummy:true (ld, 1) (stop, 0);
  store_then b "y" (add, 0) (stop, 1);
  B.finish b

let test_presence_collision_detected () =
  (* presence bit already set at delivery: the packed engine must abort
     with the same structured Collision verdict as the reference *)
  let prog = { Machine.Interp.graph = collision_graph (); layout = layout_xy () } in
  match Machine.Interp.run_report ~config:packed prog with
  | Ok _ -> Alcotest.fail "expected a collision abort"
  | Error d -> (
      match d.Machine.Diagnosis.verdict with
      | Machine.Diagnosis.Collision _ -> ()
      | v ->
          Alcotest.failf "expected Collision, got %s"
            (Machine.Diagnosis.verdict_to_string v))

let test_presence_double_set_sanitized () =
  (* detection off: the second token overwrites the presence-bit slot
     and the downstream node fires twice in one context — the sanitizer
     must report Double_fire, identically under both engines *)
  let prog = { Machine.Interp.graph = collision_graph (); layout = layout_xy () } in
  let has_double_fire (r : Machine.Interp.result) =
    List.exists
      (function Machine.Sanitize.Double_fire _ -> true | _ -> false)
      r.Machine.Interp.diagnosis.Machine.Diagnosis.sanitizer
  in
  let reference =
    Machine.Interp.run
      ~config:{ Cfg_.default with Cfg_.detect_collisions = false }
      prog
  in
  let pk =
    Machine.Interp.run
      ~config:{ packed with Cfg_.detect_collisions = false }
      prog
  in
  checkb "reference sanitizer caught the double fire" true
    (has_double_fire reference);
  checkb "packed sanitizer caught the double fire" true (has_double_fire pk);
  checkb "stores still agree" true
    (Imp.Memory.equal reference.Machine.Interp.memory pk.Machine.Interp.memory)

let test_empty_program_both_engines () =
  (* a zero-statement program still has Start/End control structure;
     both engines must run it cleanly *)
  List.iter
    (fun spec ->
      let c = Dflow.Driver.compile spec (Imp.Parser.program_of_string "skip") in
      let prog = prog_of c in
      let reference = Machine.Interp.run prog in
      let pk = Machine.Interp.run ~config:packed prog in
      checkb "reference clean" true reference.Machine.Interp.completed;
      checkb "packed clean" true pk.Machine.Interp.completed;
      checki "no leftovers" 0 pk.Machine.Interp.leftover_tokens;
      checkb "stores agree" true
        (Imp.Memory.equal reference.Machine.Interp.memory
           pk.Machine.Interp.memory))
    [ Dflow.Driver.Schema1; Dflow.Driver.Schema2_opt Dflow.Engine.Barrier ]

(* A run that stalls with a token parked: the add gets port 0 from Start,
   but its port 1 hangs off a switch steered false, so the run quiesces
   with one leftover token in the add's frame. *)
let stalled_graph () =
  let b = B.create () in
  let start = B.add b (N.Start 4) in
  let f = B.add b (N.Const (Imp.Value.Bool false)) in
  let sw = B.add b N.Switch in
  let add = B.add b (N.Binop Imp.Ast.Add) in
  let stop = B.add b (N.End 2) in
  B.connect b ~dummy:true (start, 0) (f, 0);
  B.connect b ~dummy:true (start, 1) (sw, 0);
  B.connect b (f, 0) (sw, 1);
  B.connect b ~dummy:true (start, 2) (add, 0);
  B.connect b ~dummy:true (sw, 0) (add, 1);
  B.connect b ~dummy:true (sw, 1) (stop, 0);
  B.connect b ~dummy:true (start, 3) (stop, 1);
  B.finish b

let test_reused_code_forgets_parked_tokens () =
  (* compiled code recycles its frames across runs: a stalled run's
     parked token must not reappear in the next run of the same code *)
  let code = Machine.Packed.compile_graph (stalled_graph ()) in
  let outcome () =
    match Machine.Packed.run_report ~layout:(layout_xy ()) code with
    | Error d -> (d.Machine.Diagnosis.verdict, -1)
    | Ok r ->
        ( r.Machine.Packed.diagnosis.Machine.Diagnosis.verdict,
          r.Machine.Packed.leftover_tokens )
  in
  let show (v, n) =
    Fmt.str "%s (%d leftover)" (Machine.Diagnosis.verdict_to_string v) n
  in
  let first = show (outcome ()) in
  Alcotest.(check string) "first run stalls with one parked token"
    (show (Machine.Diagnosis.Leftover 1, 1))
    first;
  List.iter
    (fun run ->
      Alcotest.(check string) (Fmt.str "run %d of the same code" run) first
        (show (outcome ())))
    [ 2; 3 ]

let test_divergence_detected () =
  let b = B.create () in
  let start = B.add b (N.Start 1) in
  let entry = B.add b (N.Loop_entry { loop = 0; arity = 1 }) in
  let t = B.add b (N.Const (Imp.Value.Bool true)) in
  let sw = B.add b N.Switch in
  let exit_ = B.add b (N.Loop_exit { loop = 0; arity = 1 }) in
  let stop = B.add b (N.End 1) in
  B.connect b ~dummy:true (start, 0) (entry, 0);
  B.connect b ~dummy:true (entry, 0) (t, 0);
  B.connect b ~dummy:true (entry, 0) (sw, 0);
  B.connect b (t, 0) (sw, 1);
  B.connect b ~dummy:true (sw, 0) (entry, 1);
  B.connect b ~dummy:true (sw, 1) (exit_, 0);
  B.connect b ~dummy:true (exit_, 0) (stop, 0);
  let prog = { Machine.Interp.graph = B.finish b; layout = layout_xy () } in
  let config = { packed with Cfg_.max_cycles = 500 } in
  match Machine.Interp.run_report ~config prog with
  | Ok _ -> Alcotest.fail "expected divergence"
  | Error d -> (
      match d.Machine.Diagnosis.verdict with
      | Machine.Diagnosis.Diverged 500 -> ()
      | v ->
          Alcotest.failf "expected Diverged 500, got %s"
            (Machine.Diagnosis.verdict_to_string v))

(* ------------------------------------------------------------------ *)
(* The qcheck differential property: the oracle is the spec           *)

let gen_cfg =
  {
    Workloads.Random_gen.default_config with
    num_vars = 4;
    num_arrays = 1;
    array_extent = 4;
    max_depth = 2;
    max_len = 3;
    loop_bound = 3;
    allow_alias = true;
  }

let arb_program =
  QCheck.make ~print:Imp.Pretty.program_to_string
    (Workloads.Random_gen.structured ~config:gen_cfg)

(* rotate deterministically through every schema the driver certifies,
   falling back to aliasing-sound / universally applicable ones *)
let rotating_specs =
  Dflow.Driver.
    [
      Schema1;
      Schema2 Dflow.Engine.Barrier;
      Schema2 Dflow.Engine.Pipelined;
      Schema2_opt Dflow.Engine.Barrier;
      Schema3 (Singleton, Dflow.Engine.Barrier);
      Schema3 (Classes, Dflow.Engine.Barrier);
      Schema3 (Components, Dflow.Engine.Barrier);
    ]

let compile_rotating (p : Imp.Ast.program) : Dflow.Driver.compiled =
  let i =
    Hashtbl.hash (Imp.Pretty.program_to_string p)
    mod List.length rotating_specs
  in
  match Dflow.Driver.compile (List.nth rotating_specs i) p with
  | c -> c
  | exception Dflow.Driver.Aliasing_unsupported _ ->
      Dflow.Driver.compile
        (Dflow.Driver.Schema3 (Dflow.Driver.Classes, Dflow.Engine.Barrier))
        p
  | exception Cfg.Intervals.Irreducible _ ->
      Dflow.Driver.compile Dflow.Driver.Schema1 p

(* unbounded and p=1: the stores, verdicts and firing counts agree,
   and so do the timing, the peaks, the delivery counts, the op
   breakdown and the firing log.  Each program runs certified and with
   its certificate stripped, so both of the packed engine's paths, with
   permission bags and without, answer to the same reference *)
let prop_packed_differential (p : Imp.Ast.program) =
  let c = compile_rotating p in
  let certified = prog_of c in
  let stripped =
    { certified with
      Machine.Interp.graph = { c.Dflow.Driver.graph with Dfg.Graph.cert = None } }
  in
  List.for_all
    (fun (prog, pes) ->
      let config = { Cfg_.default with Cfg_.pes } in
      let reference, rlog = run_logged ~config prog in
      let pk, plog =
        run_logged ~config:{ config with Cfg_.engine = Cfg_.Packed } prog
      in
      Imp.Memory.equal reference.Machine.Interp.memory pk.Machine.Interp.memory
      && reference.Machine.Interp.diagnosis.Machine.Diagnosis.certified
         = pk.Machine.Interp.diagnosis.Machine.Diagnosis.certified
      && scalars reference = scalars pk
      && rlog = plog)
    [
      (certified, None); (certified, Some 1); (stripped, None); (stripped, Some 1);
    ]

let qcheck_differential =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0xE75 |])
    (QCheck.Test.make
       ~name:
         "packed ≡ reference (random programs, rotating schemas, unbounded \
          and p=1, same cycles)"
       ~count:100 arb_program prop_packed_differential)

(* ------------------------------------------------------------------ *)
(* Allocation budget                                                  *)

(* Minor-heap words allocated per firing by a served run job: the five
   examples under schemas 1, 2p, 2optp and 3, run as [serve] runs them
   (through [Serve.Job.run], a Memo hit, certified, sanitizer on).
   Allocation repeats exactly from run to run, so the bound is a count,
   not a timing.  At this writing the reference engine allocates 63.2
   words per firing (232.5 when its matching store hashed (node,
   context) keys and each firing built five lists) and the packed
   engine 27.1; each bound leaves about a third of headroom over its
   count, so per-firing lists coming back fail here. *)
let served_words_per_firing engine =
  let dir = Option.get programs_dir in
  let jobs =
    List.concat_map
      (fun f ->
        let source = read_file (Filename.concat dir (f ^ ".imp")) in
        List.map
          (fun schema ->
            Serve.Job.decode Serve.Job.Run ~source (function
              | "schema" -> Some (Serve.Job.Text schema)
              | "engine" -> Some (Serve.Job.Text engine)
              | _ -> None))
          [ "1"; "2p"; "2optp"; "3" ])
      [ "bypass"; "spaghetti"; "stencil"; "subroutine"; "sum" ]
  in
  let run job =
    match Serve.Job.run job with
    | _, Ok r -> r.Machine.Interp.firings
    | _, Error d -> Alcotest.fail (Machine.Diagnosis.to_string d)
  in
  List.iter (fun j -> ignore (run j : int)) jobs;
  let before = Gc.minor_words () in
  let firings = List.fold_left (fun acc j -> acc + run j) 0 jobs in
  (Gc.minor_words () -. before) /. float_of_int firings

let test_allocation_budget () =
  let check engine bound =
    let w = served_words_per_firing engine in
    Printf.printf "%s engine: %.1f words per served firing (bound %.0f)\n"
      engine w bound;
    if w > bound then
      Alcotest.failf "%s engine: %.1f words per served firing, bound %.0f"
        engine w bound
  in
  check "reference" 85.;
  check "packed" 36.

let () =
  Alcotest.run "packed"
    [
      ( "compile",
        [ Alcotest.test_case "instruction layout" `Quick test_compile_layout ]
      );
      ( "differential",
        [
          Alcotest.test_case "example suite, single-PE configs" `Quick
            test_examples_differential;
          Alcotest.test_case "example suite matches Imp.Eval" `Quick
            test_examples_match_eval;
          Alcotest.test_case "equal op counts, one order" `Quick
            test_equal_counts_one_order;
          qcheck_differential;
        ] );
      ( "token-store",
        [
          Alcotest.test_case "presence collision detected" `Quick
            test_presence_collision_detected;
          Alcotest.test_case "presence double-set -> Double_fire" `Quick
            test_presence_double_set_sanitized;
          Alcotest.test_case "empty program runs cleanly" `Quick
            test_empty_program_both_engines;
          Alcotest.test_case "divergence detected" `Quick
            test_divergence_detected;
          Alcotest.test_case "reused code forgets parked tokens" `Quick
            test_reused_code_forgets_parked_tokens;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "words per served firing" `Quick
            test_allocation_budget;
        ] );
    ]

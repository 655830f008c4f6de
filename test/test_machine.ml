(* Unit tests of the dataflow machine: operator firing rules (Figure 2),
   context tagging, split-phase memory, I-structures, collision and
   divergence detection, and PE-bounded scheduling. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

module B = Dfg.Graph.Builder
module N = Dfg.Node

let layout_with_x () =
  Imp.Layout.of_program (Imp.Parser.program_of_string "x := 0 y := 0")

let run ?config g =
  Machine.Interp.run ?config { Machine.Interp.graph = g; layout = layout_with_x () }

let run_exn ?config g =
  Machine.Interp.run_exn ?config
    { Machine.Interp.graph = g; layout = layout_with_x () }

(* the two single-PE engines, at the default configuration *)
let engines =
  [
    ("reference", Machine.Config.default);
    ( "packed",
      { Machine.Config.default with Machine.Config.engine = Machine.Config.Packed } );
  ]

(* Store the value arriving on [src] into variable [x], then feed [dst]. *)
let store_then (b : B.t) (x : string) (src : int * int) (dst : int * int) =
  let st = B.add b (N.Store { var = x; indexed = false; mem = N.Plain }) in
  B.connect b ~dummy:true src (st, 0);
  B.connect b src (st, 1);
  B.connect b ~dummy:true (st, 0) dst

(* ------------------------------------------------------------------ *)
(* Contexts                                                           *)

let test_context_ops () =
  let c = Machine.Context.toplevel in
  let c1 = Machine.Context.enter c in
  checki "depth" 1 (Machine.Context.depth c1);
  let c2 = Machine.Context.next (Machine.Context.next c1) in
  Alcotest.(check (list int)) "iteration 2" [ 2 ] c2;
  Alcotest.(check (list int)) "leave" [] (Machine.Context.leave c2);
  let nested = Machine.Context.enter c2 in
  Alcotest.(check (list int)) "nested" [ 0; 2 ] nested

let test_context_toplevel_errors () =
  (match Machine.Context.next [] with
  | _ -> Alcotest.fail "expected invalid_arg"
  | exception Invalid_argument _ -> ());
  match Machine.Context.leave [] with
  | _ -> Alcotest.fail "expected invalid_arg"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Basic operators                                                    *)

let test_const_binop_store () =
  (* start -> const 20, const 22; add; store x; end *)
  let b = B.create () in
  let start = B.add b (N.Start 1) in
  let c1 = B.add b (N.Const (Imp.Value.Int 20)) in
  let c2 = B.add b (N.Const (Imp.Value.Int 22)) in
  let add = B.add b (N.Binop Imp.Ast.Add) in
  let stop = B.add b (N.End 1) in
  B.connect b ~dummy:true (start, 0) (c1, 0);
  B.connect b ~dummy:true (start, 0) (c2, 0);
  B.connect b (c1, 0) (add, 0);
  B.connect b (c2, 0) (add, 1);
  store_then b "x" (add, 0) (stop, 0);
  let r = run_exn (B.finish b) in
  checki "x" 42 (Imp.Memory.read r.Machine.Interp.memory "x" 0);
  checkb "completed" true r.Machine.Interp.completed

let switch_graph dir =
  let b = B.create () in
  let start = B.add b (N.Start 1) in
  let data = B.add b (N.Const (Imp.Value.Int 7)) in
  let pred = B.add b (N.Const (Imp.Value.Bool dir)) in
  let sw = B.add b N.Switch in
  let stop = B.add b (N.End 1) in
  B.connect b ~dummy:true (start, 0) (data, 0);
  B.connect b ~dummy:true (start, 0) (pred, 0);
  B.connect b (data, 0) (sw, 0);
  B.connect b (pred, 0) (sw, 1);
  (* true branch stores into x, false branch into y *)
  store_then b "x" (sw, 0) (stop, 0);
  let sty = B.add b (N.Store { var = "y"; indexed = false; mem = N.Plain }) in
  B.connect b ~dummy:true (sw, 1) (sty, 0);
  B.connect b (sw, 1) (sty, 1);
  B.finish b

let test_switch_routing () =
  (* the true direction stores x := 7, y untouched *)
  let r = run (switch_graph true) in
  checki "x" 7 (Imp.Memory.read r.Machine.Interp.memory "x" 0);
  checki "y" 0 (Imp.Memory.read r.Machine.Interp.memory "y" 0);
  checkb "completed" true r.Machine.Interp.completed;
  (* the false direction stores y := 7; End never fires (x-branch dead) *)
  let r = run (switch_graph false) in
  checki "y" 7 (Imp.Memory.read r.Machine.Interp.memory "y" 0);
  checkb "not completed (end starved)" false r.Machine.Interp.completed

let test_merge_forwards () =
  let b = B.create () in
  let start = B.add b (N.Start 1) in
  let c = B.add b (N.Const (Imp.Value.Int 9)) in
  let m = B.add b N.Merge in
  let stop = B.add b (N.End 1) in
  B.connect b ~dummy:true (start, 0) (c, 0);
  B.connect b (c, 0) (m, 0);
  store_then b "x" (m, 0) (stop, 0);
  let r = run_exn (B.finish b) in
  checki "x" 9 (Imp.Memory.read r.Machine.Interp.memory "x" 0)

let test_synch_waits_for_all () =
  (* synch of two tokens arriving at different times (one through a slow
     memory op): output only after both *)
  let b = B.create () in
  let start = B.add b (N.Start 2) in
  let ld = B.add b (N.Load { var = "x"; indexed = false; mem = N.Plain }) in
  let sy = B.add b (N.Synch 2) in
  let stop = B.add b (N.End 1) in
  B.connect b ~dummy:true (start, 0) (ld, 0);
  B.connect b ~dummy:true (ld, 1) (sy, 0);
  B.connect b ~dummy:true (start, 1) (sy, 1);
  B.connect b ~dummy:true (sy, 0) (stop, 0);
  let r = run_exn (B.finish b) in
  checkb "completed" true r.Machine.Interp.completed;
  (* cycles: start(1) + load(4) + synch(1) + end: > 4 *)
  checkb "waited for the load" true (r.Machine.Interp.cycles >= 6)

(* ------------------------------------------------------------------ *)
(* Loop control and contexts                                          *)

(* A self-contained counting loop: a value token circulates through a
   loop-entry gate, is incremented each iteration, and leaves through a
   loop-exit when it reaches [limit]. *)
let counting_loop limit =
  let b = B.create () in
  let start = B.add b (N.Start 1) in
  let entry = B.add b (N.Loop_entry { loop = 0; arity = 1 }) in
  let one = B.add b (N.Const (Imp.Value.Int 1)) in
  let add = B.add b (N.Binop Imp.Ast.Add) in
  let lim = B.add b (N.Const (Imp.Value.Int limit)) in
  let cmp = B.add b (N.Binop Imp.Ast.Lt) in
  let sw = B.add b N.Switch in
  let exit_ = B.add b (N.Loop_exit { loop = 0; arity = 1 }) in
  let stop = B.add b (N.End 1) in
  (* initial token: the value 0, from a const triggered by start *)
  let zero = B.add b (N.Const (Imp.Value.Int 0)) in
  B.connect b ~dummy:true (start, 0) (zero, 0);
  B.connect b (zero, 0) (entry, 0);
  (* body: v' = v + 1 *)
  B.connect b ~dummy:true (entry, 0) (one, 0);
  B.connect b (entry, 0) (add, 0);
  B.connect b (one, 0) (add, 1);
  (* test: v' < limit *)
  B.connect b ~dummy:true (add, 0) (lim, 0);
  B.connect b (add, 0) (cmp, 0);
  B.connect b (lim, 0) (cmp, 1);
  B.connect b (add, 0) (sw, 0);
  B.connect b (cmp, 0) (sw, 1);
  (* back edge / exit *)
  B.connect b (sw, 0) (entry, 1);
  B.connect b (sw, 1) (exit_, 0);
  store_then b "x" (exit_, 0) (stop, 0);
  B.finish b

let test_loop_gates_count () =
  let r = run_exn (counting_loop 5) in
  checki "counted to 5" 5 (Imp.Memory.read r.Machine.Interp.memory "x" 0)

let test_loop_contexts_isolate_iterations () =
  (* Each iteration's adds/consts run in their own context: the firing
     count is proportional to iterations and nothing collides. *)
  let r = run_exn (counting_loop 8) in
  checkb "enough firings" true (r.Machine.Interp.firings > 8 * 4)

let test_collision_detection () =
  (* two same-context tokens meet at the rendezvous slot of a dyadic
     operator whose other operand is still in flight (behind a slow
     load): the single-token-per-arc discipline is violated *)
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
  (match run (B.finish b) with
  | _ -> Alcotest.fail "expected Token_collision"
  | exception Machine.Interp.Token_collision _ -> ())

let test_collision_detection_off () =
  (* same graph with detection disabled: the second token overwrites the
     slot; execution proceeds (with a silently lost token) *)
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
  let config = { Machine.Config.default with Machine.Config.detect_collisions = false } in
  let r = run ~config (B.finish b) in
  checkb "completed" true r.Machine.Interp.completed

let test_divergence_detection () =
  (* an always-true loop: exceeds max_cycles *)
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
  let config = { Machine.Config.default with Machine.Config.max_cycles = 500 } in
  match run ~config (B.finish b) with
  | _ -> Alcotest.fail "expected Divergence"
  | exception Machine.Interp.Divergence _ -> ()

(* ------------------------------------------------------------------ *)
(* Memory                                                             *)

let test_split_phase_latency () =
  (* a load takes [memory] cycles end to end *)
  let b = B.create () in
  let start = B.add b (N.Start 1) in
  let ld = B.add b (N.Load { var = "x"; indexed = false; mem = N.Plain }) in
  let stop = B.add b (N.End 2) in
  B.connect b ~dummy:true (start, 0) (ld, 0);
  B.connect b (ld, 0) (stop, 0);
  B.connect b ~dummy:true (ld, 1) (stop, 1);
  let config =
    { Machine.Config.default with
      Machine.Config.latencies = { alu = 1; memory = 10; routing = 1 } }
  in
  let r = run_exn ~config (B.finish b) in
  checkb "latency respected" true (r.Machine.Interp.cycles >= 11)

let test_istructure_deferred_read () =
  (* read issued before the write: the read defers and completes with the
     written value *)
  let b = B.create () in
  let start = B.add b (N.Start 2) in
  let rd = B.add b (N.Load { var = "x"; indexed = false; mem = N.I_structure }) in
  let v = B.add b (N.Const (Imp.Value.Int 33)) in
  let slow = B.add b (N.Binop Imp.Ast.Add) in
  let v0 = B.add b (N.Const (Imp.Value.Int 0)) in
  let wr = B.add b (N.Store { var = "x"; indexed = false; mem = N.I_structure }) in
  let stop = B.add b (N.End 1) in
  (* read side: issue immediately *)
  B.connect b ~dummy:true (start, 0) (rd, 0);
  (* write side: delayed behind an add *)
  B.connect b ~dummy:true (start, 1) (v, 0);
  B.connect b ~dummy:true (start, 1) (v0, 0);
  B.connect b (v, 0) (slow, 0);
  B.connect b (v0, 0) (slow, 1);
  B.connect b ~dummy:true (start, 1) (wr, 0);
  B.connect b (slow, 0) (wr, 1);
  (* the read's value lands in y; program ends on the store of y *)
  store_then b "y" (rd, 0) (stop, 0);
  let g = B.finish b in
  (* both engines park the read and complete it from the store, in one
     timing *)
  List.iter
    (fun (name, config) ->
      let r = run_exn ~config g in
      checki (name ^ ": deferred read saw the write") 33
        (Imp.Memory.read r.Machine.Interp.memory "y" 0);
      checki (name ^ ": cycles") 12 r.Machine.Interp.cycles)
    engines

let test_istructure_double_write () =
  let b = B.create () in
  let start = B.add b (N.Start 2) in
  let c1 = B.add b (N.Const (Imp.Value.Int 1)) in
  let c2 = B.add b (N.Const (Imp.Value.Int 2)) in
  let w1 = B.add b (N.Store { var = "x"; indexed = false; mem = N.I_structure }) in
  let w2 = B.add b (N.Store { var = "x"; indexed = false; mem = N.I_structure }) in
  let stop = B.add b (N.End 2) in
  B.connect b ~dummy:true (start, 0) (c1, 0);
  B.connect b ~dummy:true (start, 1) (c2, 0);
  B.connect b ~dummy:true (start, 0) (w1, 0);
  B.connect b ~dummy:true (start, 1) (w2, 0);
  B.connect b (c1, 0) (w1, 1);
  B.connect b (c2, 0) (w2, 1);
  B.connect b ~dummy:true (w1, 0) (stop, 0);
  B.connect b ~dummy:true (w2, 0) (stop, 1);
  let g = B.finish b in
  (match run g with
  | _ -> Alcotest.fail "expected Double_write"
  | exception Machine.Interp.Double_write _ -> ());
  (* both engines stop on the second write with one diagnosis *)
  let diagnosis config =
    match
      Machine.Interp.run_report ~config
        { Machine.Interp.graph = g; layout = layout_with_x () }
    with
    | Error ({ Machine.Diagnosis.verdict = Machine.Diagnosis.Double_write _; _ }
             as d) ->
        Machine.Diagnosis.to_string d
    | _ -> Alcotest.fail "expected a Double_write diagnosis"
  in
  Alcotest.(check string) "engines agree on the double write"
    (diagnosis (List.assoc "reference" engines))
    (diagnosis (List.assoc "packed" engines))

(* ------------------------------------------------------------------ *)
(* Scheduling                                                         *)

let wide_graph k =
  (* k independent const->store chains *)
  let b = B.create () in
  let start = B.add b (N.Start k) in
  let stop = B.add b (N.End k) in
  let p = Imp.Parser.program_of_string
      (String.concat " " (List.init k (fun i -> Fmt.str "v%d := 0" i)))
  in
  let layout = Imp.Layout.of_program p in
  for i = 0 to k - 1 do
    let c = B.add b (N.Const (Imp.Value.Int i)) in
    let st =
      B.add b (N.Store { var = Fmt.str "v%d" i; indexed = false; mem = N.Plain })
    in
    B.connect b ~dummy:true (start, i) (c, 0);
    B.connect b ~dummy:true (start, i) (st, 0);
    B.connect b (c, 0) (st, 1);
    B.connect b ~dummy:true (st, 0) (stop, i)
  done;
  (B.finish b, layout)

let test_pe_bound_respected () =
  let g, layout = wide_graph 12 in
  let prog = { Machine.Interp.graph = g; layout } in
  let r1 = Machine.Interp.run_exn ~config:(Machine.Config.bounded 1) prog in
  checki "peak parallelism = 1" 1 r1.Machine.Interp.peak_parallelism;
  let r4 = Machine.Interp.run_exn ~config:(Machine.Config.bounded 4) prog in
  checkb "peak <= 4" true (r4.Machine.Interp.peak_parallelism <= 4);
  let rinf = Machine.Interp.run_exn prog in
  checkb "unbounded exploits width" true
    (rinf.Machine.Interp.peak_parallelism >= 12);
  checkb "more PEs, fewer cycles" true
    (rinf.Machine.Interp.cycles <= r4.Machine.Interp.cycles
    && r4.Machine.Interp.cycles <= r1.Machine.Interp.cycles)

let test_matching_store_stats () =
  let p = Imp.Factory.fib_kernel ~n:8 () in
  let c = Dflow.Driver.compile (Dflow.Driver.Schema2 Dflow.Engine.Barrier) p in
  let r =
    Machine.Interp.run_exn
      { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout }
  in
  checkb "matching store used" true (r.Machine.Interp.peak_matching > 0);
  checkb "tokens in flight" true (r.Machine.Interp.peak_in_flight > 0);
  (* bounding the matching store by graph size x live contexts would be
     loose; just check it is sane (below total firings) *)
  checkb "peak below firings" true
    (r.Machine.Interp.peak_matching < r.Machine.Interp.firings)

let test_memory_ports () =
  (* 12 independent stores: one memory port serializes them; results and
     total work are unchanged *)
  let g, layout = wide_graph 12 in
  let prog = { Machine.Interp.graph = g; layout } in
  let r_free = Machine.Interp.run_exn prog in
  let config = { Machine.Config.default with Machine.Config.memory_ports = Some 1 } in
  let r_one = Machine.Interp.run_exn ~config prog in
  checkb "bandwidth-bound is slower" true
    (r_one.Machine.Interp.cycles > r_free.Machine.Interp.cycles);
  checki "same work" r_free.Machine.Interp.firings r_one.Machine.Interp.firings;
  checkb "same store" true
    (Imp.Memory.equal r_free.Machine.Interp.memory r_one.Machine.Interp.memory)

let test_profile_sums_to_firings () =
  let g, layout = wide_graph 6 in
  let log = Machine.Trace.create () in
  let r = Machine.Interp.run ~log { Machine.Interp.graph = g; layout } in
  checki "profile total" r.Machine.Interp.firings
    (Array.fold_left ( + ) 0 (Machine.Trace.parallelism_curve log))

(* ------------------------------------------------------------------ *)
(* Determinacy under every machine configuration                      *)

let test_configuration_determinacy () =
  (* results depend only on the program, never on machine shape: sweep
     PEs x memory ports x latencies over random programs *)
  let rand = Random.State.make [| 31337 |] in
  for _ = 1 to 10 do
    let p = Workloads.Random_gen.structured rand in
    if not (Analysis.Alias.has_aliasing (Analysis.Alias.of_program p)) then begin
      let c =
        Dflow.Driver.compile (Dflow.Driver.Schema2 Dflow.Engine.Pipelined) p
      in
      let prog =
        { Machine.Interp.graph = c.Dflow.Driver.graph;
          layout = c.Dflow.Driver.layout }
      in
      let expected = Imp.Eval.run_program ~fuel:1_000_000 p in
      List.iter
        (fun config ->
          let r = Machine.Interp.run_exn ~config prog in
          checkb "store invariant under machine shape" true
            (Imp.Memory.equal expected r.Machine.Interp.memory))
        [
          Machine.Config.default;
          Machine.Config.ideal;
          Machine.Config.bounded 1;
          Machine.Config.bounded 3;
          { Machine.Config.default with Machine.Config.memory_ports = Some 1 };
          { Machine.Config.default with
            Machine.Config.latencies = { alu = 7; memory = 19; routing = 2 } };
        ]
    end
  done

let () =
  Alcotest.run "machine"
    [
      ( "contexts",
        [
          Alcotest.test_case "operations" `Quick test_context_ops;
          Alcotest.test_case "top-level errors" `Quick test_context_toplevel_errors;
        ] );
      ( "operators",
        [
          Alcotest.test_case "const/binop/store" `Quick test_const_binop_store;
          Alcotest.test_case "switch routing" `Quick test_switch_routing;
          Alcotest.test_case "merge forwards" `Quick test_merge_forwards;
          Alcotest.test_case "synch waits for all" `Quick test_synch_waits_for_all;
        ] );
      ( "loop control",
        [
          Alcotest.test_case "counting loop" `Quick test_loop_gates_count;
          Alcotest.test_case "context isolation" `Quick
            test_loop_contexts_isolate_iterations;
          Alcotest.test_case "collision detection" `Quick test_collision_detection;
          Alcotest.test_case "collision detection off" `Quick
            test_collision_detection_off;
          Alcotest.test_case "divergence detection" `Quick
            test_divergence_detection;
        ] );
      ( "memory",
        [
          Alcotest.test_case "split-phase latency" `Quick test_split_phase_latency;
          Alcotest.test_case "I-structure deferred read" `Quick
            test_istructure_deferred_read;
          Alcotest.test_case "I-structure double write" `Quick
            test_istructure_double_write;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "PE bound respected" `Quick test_pe_bound_respected;
          Alcotest.test_case "profile sums to firings" `Quick
            test_profile_sums_to_firings;
          Alcotest.test_case "memory ports" `Quick test_memory_ports;
          Alcotest.test_case "determinacy across configurations" `Quick
            test_configuration_determinacy;
          Alcotest.test_case "matching store statistics" `Quick
            test_matching_store_stats;
        ] );
    ]

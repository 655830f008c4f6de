(* Experiment harness: regenerates every figure of the paper as an
   executable experiment (see DESIGN.md, experiment index E1-E14, and
   EXPERIMENTS.md for recorded results).

   The paper has no numeric tables; its figures are worked constructions
   with qualitative claims attached.  Each experiment below reproduces
   the construction, prints the measured static and dynamic metrics, and
   states the claim being checked.  Absolute cycle counts are properties
   of our ETS simulator (DESIGN.md, substitutions), but every comparison
   -- who is more parallel, what gets eliminated, where the tradeoffs lie
   -- is the paper's.

   Run with:  dune exec bench/main.exe            (all experiments)
              dune exec bench/main.exe -- E7 E10  (a selection)
              dune exec bench/main.exe -- quick   (skip the timing runs)

   The machine matrix (E20-E27) and its floors, declared in
   bench_schema.ml:
              dune exec bench/main.exe -- --json BENCH_machine.json
              dune exec bench/main.exe -- --check BENCH_machine.json
              dune exec bench/main.exe -- --check BENCH_machine.json \
                --json fresh.json     (check, then keep the fresh matrix)
*)

module S = Bench_schema

let section id title =
  Fmt.pr "@.============================================================@.";
  Fmt.pr "%s  %s@." id title;
  Fmt.pr "============================================================@."

let claim what = Fmt.pr "claim: %s@.@." what

(* --- shared helpers -------------------------------------------------- *)

(* All compilation in the harness routes through the content-addressed
   cache: each (program, schema, transforms) pair is compiled and
   checked exactly once per process however many experiments mention
   it. *)
let compile ?transforms spec p = Dflow.Memo.compile ?transforms spec p

let prog_of (c : Dflow.Driver.compiled) =
  { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout }

let execute ?(config = Machine.Config.default) c =
  Machine.Interp.run_exn ~config (prog_of c)

let check_reference p (r : Machine.Interp.result) =
  let expected = Imp.Eval.run_program ~fuel:10_000_000 p in
  if not (Imp.Memory.equal expected r.Machine.Interp.memory) then
    failwith "experiment produced a store differing from the reference!"

let run_row ?config ?transforms name spec p =
  let c = compile ?transforms spec p in
  let r = execute ?config c in
  check_reference p r;
  let st = Dfg.Stats.of_graph c.Dflow.Driver.graph in
  Fmt.pr "  %-34s %7d %7d %8d %8.2f %5d %5d %6d@." name
    r.Machine.Interp.cycles r.Machine.Interp.firings
    r.Machine.Interp.memory_ops
    (Machine.Interp.avg_parallelism r)
    st.Dfg.Stats.switches st.Dfg.Stats.merges st.Dfg.Stats.synch_inputs;
  (r, st)

let header () =
  Fmt.pr "  %-34s %7s %7s %8s %8s %5s %5s %6s@." "configuration" "cycles"
    "ops" "mem-ops" "avg-par" "sw" "mrg" "syn-in"

let s1 = Dflow.Driver.Schema1
let s2b = Dflow.Driver.Schema2 Dflow.Engine.Barrier
let s2p = Dflow.Driver.Schema2 Dflow.Engine.Pipelined
let s2ob = Dflow.Driver.Schema2_opt Dflow.Engine.Barrier
let s2op = Dflow.Driver.Schema2_opt Dflow.Engine.Pipelined

(* ===================================================================== *)
(* E1 -- Figure 1: the running example's control-flow graph              *)

let e1 () =
  section "E1" "Figure 1: running-example control-flow graph";
  claim
    "the statement-level CFG has the paper's shape: start/end, one join \
     (the label l), two assignments, one fork; start is itself a fork via \
     the conventional start->end edge";
  let p = Imp.Factory.running_example () in
  let g = Cfg.Builder.of_program p in
  Cfg.Validate.check g;
  Fmt.pr "%a@." Cfg.Core.pp g;
  let count p_ = List.length (List.filter p_ (Cfg.Core.nodes g)) in
  Fmt.pr "nodes %d  edges %d  assigns %d  forks %d  joins %d@."
    (Cfg.Core.num_nodes g) (Cfg.Core.num_edges g)
    (count (fun n -> match Cfg.Core.kind g n with Cfg.Core.Assign _ -> true | _ -> false))
    (count (fun n -> match Cfg.Core.kind g n with Cfg.Core.Fork _ -> true | _ -> false))
    (count (fun n -> Cfg.Core.kind g n = Cfg.Core.Join));
  Fmt.pr "(DOT renderings: dune exec bin/df_compile.exe -- dot FILE --stage cfg)@."

(* ===================================================================== *)
(* E2 -- Figure 2: operator semantics                                    *)

let e2 () =
  section "E2" "Figure 2: switch / merge / synch operator semantics";
  claim
    "switch routes its data token by the predicate; merge forwards any \
     arrival; synch waits for all inputs (verified exhaustively in \
     test/test_machine.ml; here: one observable run each)";
  let module B = Dfg.Graph.Builder in
  let module N = Dfg.Node in
  let layout = Imp.Layout.of_program (Imp.Parser.program_of_string "r := 0") in
  let run g = Machine.Interp.run { Machine.Interp.graph = g; layout } in
  List.iter
    (fun dir ->
      let b = B.create () in
      let start = B.add b (N.Start 1) in
      let data = B.add b (N.Const (Imp.Value.Int 7)) in
      let pred = B.add b (N.Const (Imp.Value.Bool dir)) in
      let sw = B.add b N.Switch in
      let st = B.add b (N.Store { var = "r"; indexed = false; mem = N.Plain }) in
      let st2 = B.add b (N.Store { var = "r"; indexed = false; mem = N.Plain }) in
      let stop = B.add b (N.End 1) in
      B.connect b ~dummy:true (start, 0) (data, 0);
      B.connect b ~dummy:true (start, 0) (pred, 0);
      B.connect b (data, 0) (sw, 0);
      B.connect b (pred, 0) (sw, 1);
      B.connect b ~dummy:true (sw, 0) (st, 0);
      B.connect b (sw, 0) (st, 1);
      B.connect b ~dummy:true (sw, 1) (st2, 0);
      B.connect b (sw, 1) (st2, 1);
      B.connect b ~dummy:true (st, 0) (stop, 0);
      let r = run (B.finish b) in
      Fmt.pr "  switch on %-5b -> %s consumed the token (end fired: %b)@." dir
        (if dir then "true-output store" else "false-output store")
        r.Machine.Interp.completed)
    [ true; false ];
  Fmt.pr "  merge and synch: see the machine_tour example and machine tests@."

(* ===================================================================== *)
(* E3 -- Figures 3-5: Schema 1                                           *)

let e3 () =
  section "E3" "Figures 3-5: Schema 1, sequential semantics via one token";
  claim
    "statements execute one at a time (the single access token is the \
     program counter); only expression-level parallelism survives, so \
     average parallelism stays near or below 1 and cycles track the \
     sequential operation count";
  header ();
  List.iter
    (fun (name, p) -> ignore (run_row name s1 p))
    [
      ("running example (fig 1)", Imp.Factory.running_example ());
      ("independent straight line", Imp.Factory.independent_straightline ());
      ("dependent chain", Imp.Factory.dependent_chain ());
      ("gcd kernel", Imp.Factory.gcd_kernel ());
    ];
  let p = Imp.Factory.independent_straightline ~k:10 () in
  let r = execute (compile s1 p) in
  Fmt.pr "  peak parallelism under schema 1: %d (statements never overlap)@."
    r.Machine.Interp.peak_parallelism;
  (* parallelism profiles: firings per cycle, rendered as a bar chart *)
  let sparkline (profile : int array) =
    let glyphs = [| " "; "."; ":"; "|"; "#" |] in
    let buf = Buffer.create (Array.length profile) in
    Array.iter
      (fun v ->
        let i = min 4 v in
        Buffer.add_string buf glyphs.(i))
      profile;
    Buffer.contents buf
  in
  Fmt.pr "@.  parallelism profile (one column per cycle; ' '=0 '.'=1 ':'=2           '|'=3 '#'=4+):@.";
  List.iter
    (fun (name, spec) ->
      let log = Machine.Trace.create () in
      check_reference p
        (Machine.Interp.run ~config:Machine.Config.ideal ~log
           (prog_of (compile spec p)));
      Fmt.pr "  %-12s %s@." name
        (sparkline (Machine.Trace.parallelism_curve log)))
    [ ("schema1", s1); ("schema2", s2b); ("schema2-opt", s2ob) ]

(* ===================================================================== *)
(* E4 -- Figures 6-7: Schema 2                                           *)

let e4 () =
  section "E4" "Figures 6-7: Schema 2, one access token per variable";
  claim
    "independent memory operations overlap: on straight-line code over \
     disjoint variables Schema 2 shortens the critical path by roughly \
     the number of independent statements, and cannot help a dependence \
     chain";
  header ();
  let wide = Imp.Factory.independent_straightline ~k:8 () in
  let chain = Imp.Factory.dependent_chain ~k:8 () in
  let r1w, _ = run_row "schema1 / 8 independent" s1 wide in
  let r2w, _ = run_row "schema2 / 8 independent" s2b wide in
  let r1c, _ = run_row "schema1 / 8-deep chain" s1 chain in
  let r2c, _ = run_row "schema2 / 8-deep chain" s2b chain in
  Fmt.pr "  speedup on independent code: %.2fx;  on the chain: %.2fx@."
    (float_of_int r1w.Machine.Interp.cycles /. float_of_int r2w.Machine.Interp.cycles)
    (float_of_int r1c.Machine.Interp.cycles /. float_of_int r2c.Machine.Interp.cycles)

(* ===================================================================== *)
(* E5 -- Figure 8: loops need loop control                               *)

let e5 () =
  section "E5" "Figure 8: Schema 2 on a cycle without loop control";
  claim
    "without loop-entry/exit operators the graph is not a meaningful \
     dataflow computation: two same-tag tokens meet on one arc (detected \
     by the machine as a token collision); inserting loop control fixes \
     it under identical latencies";
  let p =
    Imp.Parser.program_of_string
      {| l:
         y := ((((x + 1) * 3 + x) * 3 + x) * 3 + x) * 3 + x
         x := x + 1
         if x < 5 goto l |}
  in
  let slow_alu =
    { Machine.Config.default with
      Machine.Config.latencies = { alu = 8; memory = 1; routing = 1 } }
  in
  let c = compile Dflow.Driver.Schema2_unsafe_no_loop_control p in
  (match
     Machine.Interp.run ~config:slow_alu
       { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout }
   with
  | _ -> Fmt.pr "  UNEXPECTED: no collision detected@."
  | exception Machine.Interp.Token_collision w ->
      Fmt.pr "  without loop control: Token_collision at %s@." w);
  List.iter
    (fun (name, spec) ->
      let r = execute ~config:slow_alu (compile spec p) in
      check_reference p r;
      Fmt.pr "  with %-22s clean run, %d cycles, x=%d y=%d@." name
        r.Machine.Interp.cycles
        (Imp.Memory.read r.Machine.Interp.memory "x" 0)
        (Imp.Memory.read r.Machine.Interp.memory "y" 0))
    [ ("barrier loop control:", s2b); ("pipelined loop control:", s2p) ]

(* ===================================================================== *)
(* E6 -- Figure 9: redundant switches restrict parallelism               *)

let e6 () =
  section "E6" "Figure 9: eliminating a redundant switch unblocks access_x";
  claim
    "in the Figure 9 program x is untouched by the conditional; Schema 2 \
     still routes access_x through a switch, serializing the second x \
     assignment behind the predicate; the optimized construction lets it \
     bypass, strictly reducing switches";
  let p = Imp.Factory.bypass_example () in
  header ();
  let _, st2 = run_row "schema2 (switch for x at fork)" s2b p in
  let _, sto = run_row "schema2-opt (x bypasses)" s2ob p in
  Fmt.pr "  switches: %d -> %d;  nested variant: " st2.Dfg.Stats.switches
    sto.Dfg.Stats.switches;
  let pn = Imp.Factory.nested_bypass_example () in
  let cn2 = compile s2b pn and cno = compile s2ob pn in
  Fmt.pr "%d -> %d (both inner and outer eliminated)@."
    (Dfg.Stats.of_graph cn2.Dflow.Driver.graph).Dfg.Stats.switches
    (Dfg.Stats.of_graph cno.Dflow.Driver.graph).Dfg.Stats.switches

(* ===================================================================== *)
(* E7 -- Figure 10: switch placement = iterated control dependence       *)

let e7 () =
  section "E7" "Figure 10 / Theorem 1: worklist placement = CD+ = between";
  claim
    "the worklist algorithm computes exactly the definitional relation \
     (checked on random unstructured CFGs here and in the property \
     tests)";
  let rand = Random.State.make [| 2026 |] in
  let mismatches = ref 0 and graphs = ref 0 and forks = ref 0 in
  for _ = 1 to 120 do
    let g = Workloads.Random_gen.random_cfg rand in
    incr graphs;
    let vars =
      List.sort_uniq compare
        (List.concat_map (Cfg.Core.referenced_vars g) (Cfg.Core.nodes g))
    in
    if vars <> [] then begin
      let fast = Analysis.Switch_place.compute g ~vars in
      let slow = Analysis.Switch_place.compute_bruteforce g ~vars in
      List.iter
        (fun f ->
          if Cfg.Core.is_fork g f then begin
            incr forks;
            List.iter
              (fun x ->
                if
                  Analysis.Switch_place.needs_switch fast f x
                  <> Analysis.Switch_place.needs_switch slow f x
                then incr mismatches)
              vars
          end)
        (Cfg.Core.nodes g)
    end
  done;
  Fmt.pr "  %d random CFGs, %d forks checked, %d mismatches@." !graphs !forks
    !mismatches;
  if !mismatches > 0 then failwith "Theorem 1 violated!"

(* ===================================================================== *)
(* E8 -- Figure 11: the source-vector construction                       *)

let e8 () =
  section "E8" "Figure 11: source vectors wire a switch-minimal graph";
  claim
    "across all example programs the optimized construction produces \
     graphs with no more switches/merges than Schema 2, identical final \
     stores, and comparable or shorter critical paths";
  Fmt.pr "  %-28s %9s %9s %9s %9s %9s@." "program" "sw(2)" "sw(opt)" "mrg(2)"
    "mrg(opt)" "cyc-ratio";
  List.iter
    (fun (name, mk) ->
      let p = mk () in
      if not (Analysis.Alias.has_aliasing (Analysis.Alias.of_program p)) then
        match (compile s2b p, compile s2ob p) with
        | c2, co ->
            let st2 = Dfg.Stats.of_graph c2.Dflow.Driver.graph in
            let sto = Dfg.Stats.of_graph co.Dflow.Driver.graph in
            let r2 = execute c2 and ro = execute co in
            check_reference p ro;
            assert (sto.Dfg.Stats.switches <= st2.Dfg.Stats.switches);
            Fmt.pr "  %-28s %9d %9d %9d %9d %9.2f@." name st2.Dfg.Stats.switches
              sto.Dfg.Stats.switches st2.Dfg.Stats.merges sto.Dfg.Stats.merges
              (float_of_int ro.Machine.Interp.cycles
              /. float_of_int r2.Machine.Interp.cycles)
        | exception Cfg.Intervals.Irreducible _ ->
            Fmt.pr "  %-28s (irreducible)@." name)
    Imp.Factory.all

(* ===================================================================== *)
(* E9 -- Figures 12-13: aliasing and covers                              *)

let e9 () =
  section "E9" "Figures 12-13: Schema 3, covers of the alias structure";
  claim
    "the FORTRAN example's alias structure (x~z, y~z, x!~y) admits \
     covers trading parallelism for synchronisation: singleton maximizes \
     overlap, components minimize token collection; all covers preserve \
     the sequential store";
  let p = Imp.Factory.fortran_alias_example () in
  let alias = Analysis.Alias.of_program p in
  Fmt.pr "  @[<v 2>alias classes:@ %a@]@." Analysis.Alias.pp alias;
  header ();
  List.iter
    (fun (name, choice) ->
      ignore
        (run_row name (Dflow.Driver.Schema3 (choice, Dflow.Engine.Barrier)) p))
    [
      ("schema3 / singleton cover", Dflow.Driver.Singleton);
      ("schema3 / class cover", Dflow.Driver.Classes);
      ("schema3 / component cover", Dflow.Driver.Components);
    ];
  ignore (run_row "schema1 (fully sequential)" s1 p);
  (* dynamic tradeoff: chain alias structure p~q~r~s where p-work and
     s-work are independent; the singleton cover overlaps them (their
     access sets are disjoint), the component cover serializes them *)
  let chain_prog =
    Imp.Parser.program_of_string
      {| mayalias p q  mayalias q r  mayalias r s
         p := p + 1 p := p * 2 p := p + 3 p := p * 2 p := p + 5
         s := s + 1 s := s * 2 s := s + 3 s := s * 2 s := s + 5 |}
  in
  Fmt.pr "  chain-alias program (independent p-work and s-work):@.";
  List.iter
    (fun (name, choice) ->
      ignore
        (run_row name
           (Dflow.Driver.Schema3 (choice, Dflow.Engine.Barrier))
           chain_prog))
    [
      ("  singleton (p,s overlap)", Dflow.Driver.Singleton);
      ("  classes", Dflow.Driver.Classes);
      ("  components (serialized)", Dflow.Driver.Components);
    ];
  let chain =
    Analysis.Alias.of_pairs [ "p"; "q"; "r"; "s" ] ~equiv:[]
      ~may_alias:[ ("p", "q"); ("q", "r"); ("r", "s") ]
  in
  let vars = [ "p"; "q"; "r"; "s" ] in
  Fmt.pr "  chain p~q~r~s:  %-12s %9s %9s@." "cover" "sync-cost" "spurious";
  List.iter
    (fun (name, c) ->
      Fmt.pr "                  %-12s %9d %9d@." name
        (Analysis.Cover.synchronization_cost chain c vars)
        (Analysis.Cover.spurious_serialization chain c))
    [
      ("singleton", Analysis.Cover.singleton chain);
      ("classes", Analysis.Cover.classes chain);
      ("components", Analysis.Cover.components chain);
    ]

(* ===================================================================== *)
(* E10 -- Figure 14: array store parallelization                         *)

let e10 () =
  section "E10" "Figure 14: overlapping independent array stores";
  claim
    "subscript analysis proves the loop's stores hit distinct elements; \
     duplicating the access token into the next iteration and collecting \
     completions overlaps the stores, turning per-iteration memory \
     latency into pipelined throughput; I-structures additionally \
     overlap producer and consumer loops";
  let p = Imp.Factory.array_store_loop ~n:16 () in
  let slow_mem =
    { Machine.Config.default with
      Machine.Config.latencies = { alu = 1; memory = 24; routing = 1 } }
  in
  let base =
    { Dflow.Driver.no_transforms with
      Dflow.Driver.value_passing = true; parallel_reads = true }
  in
  header ();
  ignore (run_row ~config:slow_mem "schema2-pipelined" s2p p);
  ignore (run_row ~config:slow_mem ~transforms:base "  + value passing" s2p p);
  ignore
    (run_row ~config:slow_mem
       ~transforms:{ base with Dflow.Driver.array_parallel = true }
       "  + fig14 overlap" s2p p);
  let pc = Imp.Factory.array_sum_kernel ~n:12 () in
  Fmt.pr "  producer/consumer kernel:@.";
  ignore (run_row ~config:slow_mem ~transforms:base "  value passing only" s2p pc);
  ignore
    (run_row ~config:slow_mem
       ~transforms:{ base with Dflow.Driver.array_parallel = true }
       "  + fig14 overlap" s2p pc);
  ignore
    (run_row ~config:slow_mem
       ~transforms:{ base with Dflow.Driver.istructure = true }
       "  + I-structure memory" s2p pc)

(* ===================================================================== *)
(* E11 -- Section 6.1: elimination of memory operations                  *)

let e11 () =
  section "E11" "Section 6.1: values ride the tokens; memory ops vanish";
  claim
    "for unaliased scalars every interior load and store disappears \
     (only the final write-back remains), and the critical path drops \
     toward the data-dependence height";
  Fmt.pr "  %-24s %9s %9s %9s %9s %11s %11s@." "kernel" "mem(2opt)"
    "mem(val)" "cyc(2opt)" "cyc(val)" "tokens(2op)" "tokens(val)";
  List.iter
    (fun (name, p) ->
      let c = compile s2op p in
      let r = execute c in
      let cv =
        compile
          ~transforms:
            { Dflow.Driver.no_transforms with Dflow.Driver.value_passing = true }
          s2op p
      in
      let rv = execute cv in
      check_reference p rv;
      let traffic (x : Machine.Interp.result) =
        x.Machine.Interp.dummy_deliveries + x.Machine.Interp.value_deliveries
      in
      Fmt.pr "  %-24s %9d %9d %9d %9d %11d %11d@." name
        r.Machine.Interp.memory_ops rv.Machine.Interp.memory_ops
        r.Machine.Interp.cycles rv.Machine.Interp.cycles (traffic r)
        (traffic rv))
    [
      ("sum", Imp.Factory.sum_kernel ~n:10 ());
      ("fib", Imp.Factory.fib_kernel ~n:10 ());
      ("gcd", Imp.Factory.gcd_kernel ());
      ("running example", Imp.Factory.running_example ());
    ]

(* ===================================================================== *)
(* E12 -- Section 6.2: read parallelization                              *)

let e12 () =
  section "E12" "Section 6.2: maximal read runs execute in parallel";
  claim
    "a run of loads on one access token costs one memory latency instead \
     of one per load; reads of potentially aliased names parallelize \
     too (only writes need ordering)";
  let p =
    Imp.Parser.program_of_string
      {| array a[8]
         a[0] := 3 a[1] := 1 a[2] := 4 a[3] := 1 a[4] := 5 a[5] := 9
         s := a[0] + a[1] + a[2] + a[3] + a[4] + a[5] |}
  in
  let aliased =
    Imp.Parser.program_of_string
      {| mayalias x y
         mayalias y z
         x := 1 y := 2 z := 3
         s := x + y + z + x + y + z |}
  in
  let t = { Dflow.Driver.no_transforms with Dflow.Driver.parallel_reads = true } in
  header ();
  ignore (run_row "6-read statement, serial" s2b p);
  ignore (run_row ~transforms:t "6-read statement, parallel" s2b p);
  ignore (run_row "schema1 serial reads" s1 p);
  ignore (run_row ~transforms:t "schema1 parallel reads" s1 p);
  let s3 = Dflow.Driver.Schema3 (Dflow.Driver.Components, Dflow.Engine.Barrier) in
  ignore (run_row "aliased reads, serial" s3 aliased);
  ignore (run_row ~transforms:t "aliased reads, parallel" s3 aliased)

(* ===================================================================== *)
(* E13 -- Section 3: the O(E * V) size bound                             *)

let e13 () =
  section "E13" "Section 3: Schema 2 graph size is O(E x V)";
  claim
    "arcs grow linearly in E*V for Schema 2 (each CFG edge carries one \
     arc per variable); the optimized construction grows more slowly \
     because unused tokens bypass whole regions";
  Fmt.pr "  %-6s %6s %6s %10s %12s %14s@." "vars" "E" "ExV" "arcs(2)"
    "arcs(2)/ExV" "arcs(opt)";
  List.iter
    (fun k ->
      let body =
        String.concat "\n"
          (List.init k (fun i ->
               Fmt.str "if v%d < 5 then v%d := v%d + 1 else v%d := v%d - 1 end"
                 i i i i i))
      in
      let p = Imp.Parser.program_of_string body in
      let c2 = compile s2b p in
      let co = compile s2ob p in
      let e = Cfg.Core.num_edges c2.Dflow.Driver.cfg in
      let ev = e * k in
      Fmt.pr "  %-6d %6d %6d %10d %12.2f %14d@." k e ev
        (Dfg.Graph.num_arcs c2.Dflow.Driver.graph)
        (float_of_int (Dfg.Graph.num_arcs c2.Dflow.Driver.graph)
        /. float_of_int ev)
        (Dfg.Graph.num_arcs co.Dflow.Driver.graph))
    [ 2; 4; 8; 16; 24 ]

(* ===================================================================== *)
(* E14 -- ablations: loop control strategy and PE scaling                *)

let e14 () =
  section "E14" "Ablations: loop-control strategy; processing elements";
  claim
    "pipelined per-variable gateways dominate the barrier black box on \
     loops with unbalanced statement latencies; bounded PEs recover the \
     von Neumann regime (schema 1 is insensitive to PE count, schema \
     2-opt scales)";
  (* the slow statement alternates between iterations: the barrier pays
     the slow side every iteration; pipelined gateways let a's even-
     iteration work overlap b's odd-iteration work *)
  let p =
    Imp.Parser.program_of_string
      {| i := 0
         while i < 12 do
           if i % 2 == 0 then
             a := a + i * i * i * i * i * i
           else
             b := b + i * i * i * i * i * i
           end
           i := i + 1
         end |}
  in
  let slow_alu =
    { Machine.Config.default with
      Machine.Config.latencies = { alu = 6; memory = 2; routing = 1 } }
  in
  Fmt.pr "  loop control with an alternating bottleneck (alu = 6 cycles):@.";
  header ();
  ignore (run_row ~config:slow_alu "schema2 barrier" s2b p);
  ignore (run_row ~config:slow_alu "schema2 pipelined" s2p p);
  ignore (run_row ~config:slow_alu "schema2-opt barrier" s2ob p);
  ignore (run_row ~config:slow_alu "schema2-opt pipelined" s2op p);
  let wide = Imp.Factory.independent_straightline ~k:12 () in
  Fmt.pr "@.  PE sweep on 12 independent statements (cycles):@.";
  Fmt.pr "  %-14s" "PEs";
  List.iter
    (fun pes ->
      Fmt.pr " %7s" (match pes with None -> "inf" | Some p -> string_of_int p))
    [ Some 1; Some 2; Some 4; Some 8; None ];
  Fmt.pr "@.";
  List.iter
    (fun (name, spec) ->
      Fmt.pr "  %-14s" name;
      List.iter
        (fun pes ->
          let config = { Machine.Config.default with Machine.Config.pes } in
          let r = execute ~config (compile spec wide) in
          Fmt.pr " %7d" r.Machine.Interp.cycles)
        [ Some 1; Some 2; Some 4; Some 8; None ];
      Fmt.pr "@.")
    [ ("schema1", s1); ("schema2", s2b); ("schema2-opt", s2ob) ];
  (* memory bandwidth sweep: Schema 2's exposed parallelism is memory
     traffic; ports throttle it, and Section 6.1 value passing gives the
     parallelism back without touching memory at all *)
  Fmt.pr "@.  memory-port sweep on the same workload (cycles):@.";
  Fmt.pr "  %-24s" "memory ports";
  List.iter
    (fun mp -> Fmt.pr " %7s" (match mp with None -> "inf" | Some m -> string_of_int m))
    [ Some 1; Some 2; Some 4; None ];
  Fmt.pr "@.";
  List.iter
    (fun (name, spec, transforms) ->
      Fmt.pr "  %-24s" name;
      List.iter
        (fun memory_ports ->
          let config = { Machine.Config.default with Machine.Config.memory_ports } in
          let r = execute ~config (compile ~transforms spec wide) in
          Fmt.pr " %7d" r.Machine.Interp.cycles)
        [ Some 1; Some 2; Some 4; None ];
      Fmt.pr "@.")
    [
      ("schema2", s2b, Dflow.Driver.no_transforms);
      ( "schema2 + value passing",
        s2b,
        { Dflow.Driver.no_transforms with Dflow.Driver.value_passing = true } );
    ]

(* ===================================================================== *)
(* E15 -- machine resources: waiting-matching store and token overlap    *)

let e15 () =
  section "E15" "Machine resources: waiting-matching occupancy (frames)";
  claim
    "the explicit token store replaces associative waiting-matching with      frame slots; the peak number of live rendezvous entries (and of      overlapping iteration contexts) is the frame capacity a Monsoon-like      machine must provision -- pipelined loop control buys speed with      more concurrent frames";
  let p =
    Imp.Parser.program_of_string
      {| i := 0
         while i < 12 do
           a := a + i * i * i
           b := b + 1
           i := i + 1
         end |}
  in
  Fmt.pr "  %-28s %8s %12s %12s %10s@." "schema" "cycles" "peak-match"
    "peak-flight" "ctx-olap";
  List.iter
    (fun (name, spec, transforms) ->
      let c = compile ~transforms spec p in
      let log = Machine.Trace.create () in
      let r = Machine.Interp.run ~log (prog_of c) in
      assert (r.Machine.Interp.completed && r.Machine.Interp.leftover_tokens = 0);
      check_reference p r;
      Fmt.pr "  %-28s %8d %12d %12d %10d@." name r.Machine.Interp.cycles
        r.Machine.Interp.peak_matching r.Machine.Interp.peak_in_flight
        (Machine.Trace.max_context_overlap log))
    [
      ("schema1", s1, Dflow.Driver.no_transforms);
      ("schema2 barrier", s2b, Dflow.Driver.no_transforms);
      ("schema2 pipelined", s2p, Dflow.Driver.no_transforms);
      ("schema2-opt pipelined", s2op, Dflow.Driver.no_transforms);
      ( "schema2-opt pipelined +6.1",
        s2op,
        { Dflow.Driver.no_transforms with Dflow.Driver.value_passing = true } );
    ]

(* ===================================================================== *)
(* E16 -- separate compilation of procedures (Section 5's origin story)  *)

let e16 () =
  section "E16" "Separate compilation: one Schema 3 graph, every call site";
  claim
    "the alias structure of a procedure derives from its call sites      (SUBROUTINE F(X,Y,Z) at F(A,B,A) and F(C,D,D): X~Z, Y~Z, never      X~Y); the body compiled once against that structure executes      correctly under every call site's storage binding, while Schema 2      (no alias structure) computes a wrong store under real aliasing";
  let src =
    {| proc f(fx, fy, fz)
         fx := 1
         fy := 2
         fz := fz + fx + fy
         fx := fy + fz
       end
       call f(a, b, a)
       call f(c, d, d)
       call f(u, v, w) |}
  in
  let p = Imp.Parser.program_of_string src in
  Fmt.pr "  derived pairs: %a@."
    Fmt.(list ~sep:comma (pair ~sep:(any "~") string string))
    (Imp.Proc.param_aliases p "f");
  let once = Imp.Proc.standalone p "f" in
  let compiled =
    compile (Dflow.Driver.Schema3 (Dflow.Driver.Singleton, Dflow.Engine.Barrier)) once
  in
  List.iter
    (fun args ->
      let inst = Imp.Proc.instantiate p "f" args in
      let layout = Imp.Layout.of_program inst in
      let expected = Imp.Eval.run_program inst in
      let r =
        Machine.Interp.run_exn
          { Machine.Interp.graph = compiled.Dflow.Driver.graph; layout }
      in
      Fmt.pr "  f(%-7s) one graph, this layout: %s (%d cycles)@."
        (String.concat "," args)
        (if Imp.Memory.equal expected r.Machine.Interp.memory then "ok"
         else "WRONG")
        r.Machine.Interp.cycles;
      assert (Imp.Memory.equal expected r.Machine.Interp.memory))
    (Imp.Proc.call_sites p "f");
  (* the Schema 2 counterexample *)
  let src2 =
    {| proc g(gx, gz)
         gx := ((((7 * 3) + 2) * 5) + 1) * 9
         b := gz
       end
       call g(a, a) |}
  in
  let p2 = Imp.Parser.program_of_string src2 in
  let once2 = { (Imp.Proc.standalone p2 "g") with Imp.Ast.may_alias = [] } in
  let wrong = compile (Dflow.Driver.Schema2 Dflow.Engine.Barrier) once2 in
  let inst2 = Imp.Proc.instantiate p2 "g" [ "a"; "a" ] in
  let layout2 = Imp.Layout.of_program inst2 in
  let expected2 = Imp.Eval.run_program inst2 in
  (match
     Machine.Interp.run
       { Machine.Interp.graph = wrong.Dflow.Driver.graph; layout = layout2 }
   with
  | r ->
      Fmt.pr "  schema2 on hidden aliasing: %s@."
        (if
           r.Machine.Interp.completed
           && Imp.Memory.equal expected2 r.Machine.Interp.memory
         then "accidentally right (unsound anyway)"
         else "wrong store, as the paper predicts")
  | exception Machine.Interp.Token_collision _ ->
      Fmt.pr "  schema2 on hidden aliasing: token collision@.")

(* ===================================================================== *)
(* E17 -- kernel suite: every example program under the main pipeline    *)

let e17 () =
  section "E17" "Kernel suite: all example programs, all main configurations";
  claim
    "across the whole kernel suite the ordering schema1 >= schema2-pipelined      >= schema2-opt-pipelined >= +section-6 holds for cycle counts, and      every configuration reproduces the sequential store";
  Fmt.pr "  %-28s %8s %8s %8s %8s %9s@." "kernel" "s1" "s2p" "s2op"
    "s2p+sec6" "speedup";
  List.iter
    (fun (name, mk) ->
      let p = mk () in
      if not (Analysis.Alias.has_aliasing (Analysis.Alias.of_program p)) then
        match compile s1 p with
        | exception Cfg.Intervals.Irreducible _ ->
            Fmt.pr "  %-28s (irreducible)@." name
        | c1 -> (
            match
              ( execute c1,
                execute (compile s2p p),
                execute (compile s2op p),
                execute
                  (compile
                     ~transforms:
                       { Dflow.Driver.no_transforms with
                         Dflow.Driver.value_passing = true;
                         parallel_reads = true;
                         array_parallel = true }
                     s2p p) )
            with
            | r1, r2, ro, rs ->
                check_reference p rs;
                Fmt.pr "  %-28s %8d %8d %8d %8d %8.1fx@." name
                  r1.Machine.Interp.cycles r2.Machine.Interp.cycles
                  ro.Machine.Interp.cycles rs.Machine.Interp.cycles
                  (float_of_int r1.Machine.Interp.cycles
                  /. float_of_int rs.Machine.Interp.cycles)
            | exception Cfg.Intervals.Irreducible _ ->
                Fmt.pr "  %-28s (irreducible)@." name))
    Imp.Factory.all

(* ===================================================================== *)
(* E18 -- optimizing on the dataflow IR                                  *)

let e18 () =
  section "E18" "The dataflow graph as an optimizing-compiler IR";
  claim
    "classical optimizations (constant folding, CSE, dead-node      elimination) run directly on the dataflow graph and reduce executed      operations without touching the memory-ordering structure -- the      paper's closing thesis about executable intermediate      representations";
  Fmt.pr "  %-24s %9s %9s %9s %9s@." "kernel" "ops" "ops(-O)" "cycles"
    "cycles(-O)";
  let extra =
    [
      ( "polynomial (redundant)",
        fun () ->
          Imp.Parser.program_of_string
            {| y := (x*x*x + 2*x*x + 7) * (x*x + 1) + (x*x*x + 2*x*x + 7) |} );
      ( "address arithmetic",
        fun () ->
          Imp.Parser.program_of_string
            {| array a[16]
               r := a[i * 4 + j] + a[i * 4 + j + 1] + a[i * 4 + j + 4] |} );
      ( "constant expressions",
        fun () ->
          Imp.Parser.program_of_string
            "x := 2 * 3 + 4 * 5 y := 2 * 3 - 1 z := x + 2 * 3" );
    ]
  in
  List.iter
    (fun (name, mk) ->
      let p = mk () in
      if not (Analysis.Alias.has_aliasing (Analysis.Alias.of_program p)) then
        match compile s2op p with
        | exception Cfg.Intervals.Irreducible _ -> ()
        | c ->
            let g = c.Dflow.Driver.graph in
            let g' = Dfg.Opt.run (Dfg.Simplify.run g) in
            Dfg.Check.check g';
            let run graph =
              Machine.Interp.run_exn
                { Machine.Interp.graph = graph; layout = c.Dflow.Driver.layout }
            in
            let r = run g and r' = run g' in
            check_reference p r';
            Fmt.pr "  %-24s %9d %9d %9d %9d@." name r.Machine.Interp.firings
              r'.Machine.Interp.firings r.Machine.Interp.cycles
              r'.Machine.Interp.cycles)
    (extra @ Imp.Factory.all)

(* ===================================================================== *)
(* Timing micro-benchmarks (bechamel)                                    *)

let bechamel_benches () =
  section "TIMING" "compiler-pass timings (bechamel, OLS ns/run)";
  let open Bechamel in
  let prog k =
    let body =
      String.concat "\n"
        (List.init k (fun i ->
             Fmt.str
               "c%d := 0 while c%d < 4 do if v%d < 5 then v%d := v%d + 1 end \
                c%d := c%d + 1 end"
               i i i i i i i))
    in
    Imp.Parser.program_of_string body
  in
  let p16 = prog 16 in
  let g16 = Cfg.Builder.of_program p16 in
  let lp16 = Cfg.Loopify.transform g16 in
  let vars16 = Imp.Ast.program_vars p16 in
  let src16 = Imp.Pretty.program_to_string p16 in
  let c16 = compile s2ob p16 in
  let tests =
    Test.make_grouped ~name:"passes"
      [
        Test.make ~name:"parse (16 loops)"
          (Staged.stage (fun () -> ignore (Imp.Parser.program_of_string src16)));
        Test.make ~name:"cfg build"
          (Staged.stage (fun () -> ignore (Cfg.Builder.of_program p16)));
        Test.make ~name:"interval analysis + loopify"
          (Staged.stage (fun () -> ignore (Cfg.Loopify.transform g16)));
        Test.make ~name:"postdominators"
          (Staged.stage (fun () -> ignore (Analysis.Dom.postdominators_of g16)));
        Test.make ~name:"switch placement (fig 10)"
          (Staged.stage (fun () ->
               ignore (Analysis.Switch_place.compute g16 ~vars:vars16)));
        Test.make ~name:"schema2 translation"
          (Staged.stage (fun () ->
               ignore (Dflow.Engine.schema2 lp16 ~vars:vars16)));
        Test.make ~name:"schema2-opt translation (fig 11)"
          (Staged.stage (fun () ->
               ignore (Dflow.Optimized.translate lp16 ~vars:vars16)));
        Test.make ~name:"ssa construction"
          (Staged.stage (fun () -> ignore (Ssa.Construct.construct g16)));
        Test.make ~name:"machine execution (schema2-opt)"
          (Staged.stage (fun () ->
               ignore
                 (Machine.Interp.run
                    {
                      Machine.Interp.graph = c16.Dflow.Driver.graph;
                      layout = c16.Dflow.Driver.layout;
                    })));
      ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.4) () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.sort compare
  in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Fmt.pr "  %-48s %12.0f ns/run@." name est
      | _ -> Fmt.pr "  %-48s (no estimate)@." name)
    rows

(* ===================================================================== *)
(* E20 -- BENCH_machine.json: the program x schema machine matrix        *)

(* The five columns of the matrix.  "schema2-opt" runs pipelined: it is
   the best sound no-aliasing configuration, which is what the Section 4
   optimization is for; "value-passing" adds the Section 6.1 transform on
   top of it, the configuration with the fewest memory round trips. *)
let bench_schemas =
  [
    ("schema1", s1, Dflow.Driver.no_transforms);
    ("schema2-barrier", s2b, Dflow.Driver.no_transforms);
    ("schema2-pipelined", s2p, Dflow.Driver.no_transforms);
    ("schema2-opt", s2op, Dflow.Driver.no_transforms);
    ( "value-passing",
      s2op,
      { Dflow.Driver.no_transforms with Dflow.Driver.value_passing = true } );
  ]

(* The scalability sweep (E21) runs on the schemas whose token supply can
   actually feed multiple PEs -- the barrier variant serialises loop
   iterations by construction, so sweeping it would only restate E6. *)
let mp_schemas = [ "schema1"; "schema2-pipelined"; "schema2-opt"; "value-passing" ]
let mp_pe_counts = [ 1; 2; 4; 8; 16 ]
let mp_placements = [ Machine.Placement.Hash; Machine.Placement.Affinity ]

(* The scaling sweep (E26) extends the same PE axis to hundreds of PEs
   -- one list, shared with E21 and the cross-matrix sweep above, so the
   two experiments can never drift apart on the common prefix. *)
let scale_pe_counts = mp_pe_counts @ [ 32; 64; 128; 256 ]
let scale_schema = "schema2-opt"
let scale_program = "stencil"

(* (net, placement, steal): the seed's uniform wire with the
   structure-blind hash as the baseline, then the full scaling stack --
   mesh interconnect + hierarchical placement -- with stealing isolated
   as its own curve. *)
let scale_configs =
  [
    ("uniform", Machine.Placement.Hash, false);
    ("mesh", Machine.Placement.Hier, false);
    ("mesh", Machine.Placement.Hier, true);
  ]

let scale_sweep ~reference (c : Dflow.Driver.compiled) =
  let prog =
    { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout }
  in
  let tree = c.Dflow.Driver.ltree in
  List.concat_map
    (fun (net_name, placement, steal) ->
      let kind =
        match Sched.Topology.kind_of_string net_name with
        | Ok k -> k
        | Error msg -> failwith msg
      in
      let base = ref 0 in
      List.map
        (fun pes ->
          let topo =
            match kind with
            | Sched.Topology.Uniform -> None
            | k -> Some (Sched.Topology.make k ~pes)
          in
          let steal_spec = if steal then Some Sched.Steal.default else None in
          let r =
            Machine.Multiproc.run_exn ~tree ?topo ?steal:steal_spec ~placement
              ~pes prog
          in
          let det =
            r.Machine.Multiproc.completed
            && r.Machine.Multiproc.leftover_tokens = 0
            && Imp.Memory.equal reference r.Machine.Multiproc.memory
          in
          if pes = 1 then base := r.Machine.Multiproc.cycles;
          let cycles = r.Machine.Multiproc.cycles in
          {
            S.sc_pes = pes;
            sc_net = net_name;
            sc_placement = Machine.Placement.policy_to_string placement;
            sc_steal = steal;
            sc_cycles = cycles;
            sc_firings = r.Machine.Multiproc.firings;
            sc_fpc =
              float_of_int r.Machine.Multiproc.firings
              /. float_of_int (max 1 cycles);
            sc_speedup = float_of_int !base /. float_of_int (max 1 cycles);
            sc_net_messages = r.Machine.Multiproc.net_messages;
            sc_net_hops = r.Machine.Multiproc.net_hops;
            sc_steals = r.Machine.Multiproc.steals;
            sc_determinate = det;
          })
        scale_pe_counts)
    scale_configs

let bench_random_seeds = [ 11; 23; 47 ]

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let find_programs_dir () =
  List.find_opt Sys.file_exists
    [
      "examples/programs";
      "../examples/programs";
      "../../examples/programs";
      "../../../examples/programs";
    ]

(* The multiprocessor sweep for one compiled cell: every PE count x
   placement on the default network, each run differentially checked
   against the reference store.  [note] receives every cell for the
   cross-matrix summary scalars. *)
let mp_sweep ~reference (c : Dflow.Driver.compiled) =
  let prog =
    { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout }
  in
  List.concat_map
    (fun placement ->
      List.map
        (fun pes ->
          match Machine.Multiproc.run ~placement ~pes prog with
            | Ok r ->
                let det =
                  r.Machine.Multiproc.completed
                  && r.Machine.Multiproc.leftover_tokens = 0
                  && Imp.Memory.equal reference r.Machine.Multiproc.memory
                in
                let util = r.Machine.Multiproc.utilisation in
                {
                  S.mp_pes = pes;
                  mp_placement = Machine.Placement.policy_to_string placement;
                  mp_cycles = r.Machine.Multiproc.cycles;
                  mp_net_messages = r.Machine.Multiproc.net_messages;
                  mp_cut_traffic = r.Machine.Multiproc.cut_traffic;
                  mp_backpressure = r.Machine.Multiproc.backpressure;
                  mp_avg_utilisation =
                    (if Array.length util = 0 then 0.0
                     else
                       Array.fold_left ( +. ) 0.0 util
                       /. float_of_int (Array.length util));
                  mp_determinate = det;
                }
            | Error _ ->
                {
                  S.mp_pes = pes;
                  mp_placement = Machine.Placement.policy_to_string placement;
                  mp_cycles = 0;
                  mp_net_messages = 0;
                  mp_cut_traffic = 0.0;
                  mp_backpressure = 0;
                  mp_avg_utilisation = 0.0;
                  mp_determinate = false;
                })
        mp_pe_counts)
    mp_placements

(* The fault-tolerance sweep (E22): the best sound configuration
   (schema2-opt) at p=4 under seeded link faults and one seeded PE
   fail-stop, recovered by reliable transport + checkpoint/replay,
   across a range of checkpoint intervals.  The cost is measured
   against the fault-free run of the same cell.  Seed 7 matches the
   golden snapshots, so the death schedule is the audited one. *)
let recovery_intervals = [ 10; 25; 50; 100 ]
let recovery_fault_seed = 7
let recovery_schema = "schema2-opt"

(* the checkpoint interval of E22's fault-rate sweep *)
let recovery_default_interval = 25

let recovery_sweep ~reference (c : Dflow.Driver.compiled) =
  let prog =
    { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout }
  in
  let pes = 4 and placement = Machine.Placement.Affinity in
  let baseline = Machine.Multiproc.run_exn ~placement ~pes prog in
  let base = baseline.Machine.Multiproc.cycles in
  List.map
    (fun interval ->
      let faults =
        Machine.Fault.make
          (Machine.Fault.spec ~rate:0.01 ~classes:Machine.Fault.link_classes
             ~seed:recovery_fault_seed ())
      in
      let recovery =
        Machine.Recovery.spec ~interval
          ~deaths:
            (Machine.Recovery.seeded_deaths ~seed:recovery_fault_seed ~pes
               ~window:60)
          ()
      in
      match Machine.Multiproc.run ~placement ~pes ~faults ~recovery prog with
        | Ok r ->
            let recovered =
              r.Machine.Multiproc.completed
              && r.Machine.Multiproc.leftover_tokens = 0
              && Imp.Memory.equal reference r.Machine.Multiproc.memory
            in
            let m =
              match r.Machine.Multiproc.recovery with
              | Some m -> m
              | None -> Machine.Recovery.metrics_create ()
            in
            {
              S.rc_pes = pes;
              rc_placement = Machine.Placement.policy_to_string placement;
              rc_interval = interval;
              rc_cycles = r.Machine.Multiproc.cycles;
              rc_baseline_cycles = base;
              rc_overhead =
                (float_of_int r.Machine.Multiproc.cycles
                /. float_of_int (max 1 base))
                -. 1.0;
              rc_deaths = m.Machine.Recovery.m_deaths;
              rc_rollbacks = m.Machine.Recovery.m_rollbacks;
              rc_checkpoints = m.Machine.Recovery.m_checkpoints;
              rc_lost_cycles = m.Machine.Recovery.m_lost_cycles;
              rc_replayed_firings = m.Machine.Recovery.m_replayed_firings;
              rc_retransmits =
                (match r.Machine.Multiproc.transport with
                | Some s -> s.Machine.Network.r_retransmits
                | None -> 0);
              rc_recovered = recovered;
            }
        | Error _ ->
            {
              S.rc_pes = pes;
              rc_placement = Machine.Placement.policy_to_string placement;
              rc_interval = interval;
              rc_cycles = 0;
              rc_baseline_cycles = base;
              rc_overhead = 0.0;
              rc_deaths = 0;
              rc_rollbacks = 0;
              rc_checkpoints = 0;
              rc_lost_cycles = 0;
              rc_replayed_firings = 0;
              rc_retransmits = 0;
              rc_recovered = false;
            })
    recovery_intervals

(* The certificate-overhead sweep (E23): every certified cell runs
   twice per PE count — fractional-permission certificate attached,
   then stripped — and records the cycle ratio.  Certification is pure
   bookkeeping on token payloads, invisible to the scheduler, so the
   measured overhead is exactly 0.0; the cells keep that claim audited
   instead of asserted, and the E23 floor catches any future change
   that couples certification into timing. *)
let certificate_pe_counts = [ 1; 4 ]

let certificate_sweep (c : Dflow.Driver.compiled) =
  let g = c.Dflow.Driver.graph in
  match g.Dfg.Graph.cert with
  | None -> None (* uncertified translation: nothing to measure *)
  | Some _ ->
      let run_at ?(g = g) pes =
        let prog = { Machine.Interp.graph = g; layout = c.Dflow.Driver.layout } in
        if pes = 1 then
          let r = Machine.Interp.run prog in
          ( r.Machine.Interp.cycles,
            r.Machine.Interp.completed,
            r.Machine.Interp.diagnosis )
        else
          match
            Machine.Multiproc.run ~placement:Machine.Placement.Affinity ~pes
              prog
          with
          | Ok r ->
              ( r.Machine.Multiproc.cycles,
                r.Machine.Multiproc.completed,
                r.Machine.Multiproc.diagnosis )
          | Error d -> (0, false, d)
      in
      let cells =
        List.map
          (fun pes ->
            let cycles, completed, diag = run_at pes in
            let stripped, _, _ = run_at ~g:{ g with Dfg.Graph.cert = None } pes in
            let elements, checks =
              match diag.Machine.Diagnosis.certified with
              | Some ec -> ec
              | None -> (0, 0)
            in
            {
              S.cc_pes = pes;
              cc_elements = elements;
              cc_checks = checks;
              cc_cycles = cycles;
              cc_stripped_cycles = stripped;
              cc_overhead =
                (float_of_int cycles /. float_of_int (max 1 stripped)) -. 1.0;
              cc_clean = completed && diag.Machine.Diagnosis.permission = [];
            })
          certificate_pe_counts
      in
      Some cells

(* The engine-throughput sweep (E24): the same compiled graph executed
   end to end under the reference interpreter and the packed engine, in
   service mode (sanitizer off, certificate stripped — identically for
   both engines), timed best-of-N wall clock.  The differential bar
   stays up: the packed run must reproduce the reference engine's final
   store and firing count bit for bit, or the cell fails validation.
   The E24 floor holds the packed engine to a speedup on the stencil
   kernel — the whole point of compiling the graph to flat arrays. *)
let throughput_schema = "schema2-opt"
let throughput_runs_reference = 40
let throughput_runs_packed = 200

(* The batch-service sweep (E25): the whole example-program oracle grid
   submitted as one batch of per-combo selfcheck jobs through the
   [df_compile serve] protocol, executed on a warm memoization cache at
   jobs = 1 and jobs = [S.serve_jobs].  The two outputs must be
   byte-identical (the deterministic-pool guarantee) and every job must
   succeed; the E25 floors hold the warm-cache hit rate, the multi-domain
   speedup and the batch rate. *)

(* The availability sweep (E27): a fixed batch of compile-and-run jobs
   pushed serially through the supervised shard pool at several chaos
   rates.  Everything recorded is a deterministic function of the chaos
   plan — a pure hash of (seed, submission number, payload) — so the
   cells carry no timings and are byte-stable across machines.  The
   serial pass computing the expected reply bytes runs FIRST: it warms
   the memoization cache, which forked shards inherit, keeping per-job
   cost orders of magnitude under the deadline so the outcome counts
   cannot depend on machine speed.  The E27 floors read the committed
   operating point (rate 0.05, 4 shards), where at least one shard
   restart must be observed so the supervisor was really exercised, and
   the fault-free cell; at every rate each successful reply must be
   byte-identical to the serial path. *)
let availability_chaos_seed = 7
let availability_shards = 4
let availability_deadline_ms = 1000
let availability_jobs = 160
let availability_rates = [ 0.0; 0.05; 0.1 ]

(* distinct sources so memoization cannot collapse the batch to one
   compile, and an explicit id so the serial and sharded paths stamp
   replies identically *)
let availability_job i =
  Machine.Json.to_string
    (Machine.Json.Assoc
       [
         ("id", Machine.Json.Int i);
         ("op", Machine.Json.String "run");
         ( "source",
           Machine.Json.String
             (Fmt.str "x := %d y := x + %d z := y * y" i (1 + (i mod 7))) );
         ("schema", Machine.Json.String "2opt");
       ])

let availability_sweep () =
  let lines = List.init availability_jobs availability_job in
  let expected =
    Array.of_list
      (List.mapi
         (fun i l -> Machine.Json.to_string (Serve.Server.handle_line i l))
         lines)
  in
  List.map
    (fun rate ->
      let chaos =
        if rate > 0.0 then
          Some
            {
              Service.Supervisor.c_seed = availability_chaos_seed;
              c_rate = rate;
              c_stall_ms = (2 * availability_deadline_ms) + 500;
            }
        else None
      in
      let sup =
        Service.Supervisor.start
          ~config:
            {
              Service.Supervisor.default_config with
              shards = availability_shards;
              deadline_ms = availability_deadline_ms;
              chaos;
            }
          (fun id line ->
            Machine.Json.to_string (Serve.Server.handle_line id line))
      in
      let ok = ref 0 and crash = ref 0 and dead = ref 0 and over = ref 0 in
      let divergences = ref 0 in
      List.iteri
        (fun i line ->
          match Service.Supervisor.submit sup ~id:i line with
          | Service.Supervisor.Ok_line l ->
              incr ok;
              if l <> expected.(i) then incr divergences
          | Service.Supervisor.Shard_crash -> incr crash
          | Service.Supervisor.Deadline -> incr dead
          | Service.Supervisor.Overloaded | Service.Supervisor.Draining ->
              incr over)
        lines;
      let stats = Service.Supervisor.stats sup in
      Service.Supervisor.drain sup;
      {
        S.av_chaos_rate = rate;
        av_shards = availability_shards;
        av_deadline_ms = availability_deadline_ms;
        av_jobs = availability_jobs;
        av_ok = !ok;
        av_shard_crash = !crash;
        av_deadline = !dead;
        av_overloaded = !over;
        av_restarts = stats.Service.Supervisor.s_restarts;
        av_divergences = !divergences;
        av_success_rate = float_of_int !ok /. float_of_int availability_jobs;
      })
    availability_rates

(* best-of-N: the minimum observed wall time is the least-noise estimate
   of the true cost (noise is strictly additive) *)
let time_best ~runs f =
  ignore (f ());
  let best = ref infinity in
  for _ = 1 to runs do
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

let throughput_sweep (c : Dflow.Driver.compiled) =
  let g = { c.Dflow.Driver.graph with Dfg.Graph.cert = None } in
  let layout = c.Dflow.Driver.layout in
  let prog = { Machine.Interp.graph = g; layout } in
  let rref = Machine.Interp.run_exn prog in
  let code = Machine.Packed.compile_graph g in
  let cells =
    match Machine.Packed.run_report ~sanitize:false ~layout code with
    | Error _ ->
        [
          {
            S.tp_engine = "packed";
            tp_firings = 0;
            tp_runs = 0;
            tp_seconds = 0.0;
            tp_firings_per_sec = 0.0;
            tp_speedup = 0.0;
            tp_identical = false;
          };
        ]
    | Ok rpk ->
        let identical =
          rpk.Machine.Packed.completed
          && rpk.Machine.Packed.firings = rref.Machine.Interp.firings
          && Imp.Memory.equal rref.Machine.Interp.memory
               rpk.Machine.Packed.memory
        in
        let t_ref =
          time_best ~runs:throughput_runs_reference (fun () ->
              Machine.Interp.run_exn prog)
        in
        let t_pk =
          time_best ~runs:throughput_runs_packed (fun () ->
              Machine.Packed.run_report ~sanitize:false ~layout code)
        in
        let cell engine firings secs speedup identical =
          {
            S.tp_engine = engine;
            tp_firings = firings;
            tp_runs =
              (if engine = "packed" then throughput_runs_packed
               else throughput_runs_reference);
            tp_seconds = secs;
            tp_firings_per_sec = float_of_int firings /. secs;
            tp_speedup = speedup;
            tp_identical = identical;
          }
        in
        [
          cell "reference" rref.Machine.Interp.firings t_ref 1.0 true;
          cell "packed" rpk.Machine.Packed.firings t_pk (t_ref /. t_pk)
            identical;
        ]
  in
  cells

(* One cell: compile, run traced, check against the reference
   interpreter, and — for the example programs ([sweeps]) — run the
   sweeps its schema carries.  Cells a schema cannot express are real
   results — the record says why instead of vanishing from the matrix. *)
let bench_cell ~sweeps ~program:(pname, p) ~schema:(sname, spec, transforms) =
  let bare status =
    {
      S.program = pname;
      schema = sname;
      status;
      metrics = None;
      multiproc = None;
      recovery = None;
      certificate = None;
      throughput = None;
    }
  in
  match compile ~transforms spec p with
  | exception Cfg.Intervals.Irreducible _ -> bare "irreducible"
  | exception Dflow.Driver.Aliasing_unsupported _ -> bare "unsupported-aliasing"
  | c ->
      let log = Machine.Trace.create () in
      let r = Machine.Interp.run ~log (prog_of c) in
      if not r.Machine.Interp.completed then bare "stalled"
      else
        let reference = Imp.Eval.run_program ~fuel:10_000_000 p in
        let sweep on f = if sweeps && on then Some (f ()) else None in
        let multiproc =
          sweep (List.mem sname mp_schemas) (fun () -> mp_sweep ~reference c)
        in
        let recovery =
          sweep (sname = recovery_schema) (fun () -> recovery_sweep ~reference c)
        in
        let certificate = if sweeps then certificate_sweep c else None in
        let throughput =
          sweep (sname = throughput_schema) (fun () -> throughput_sweep c)
        in
        {
          (bare "ok") with
          metrics =
            Some
              {
                S.stats = Dfg.Stats.of_graph c.Dflow.Driver.graph;
                result = r;
                log;
                reference_ok =
                  Imp.Memory.equal reference r.Machine.Interp.memory;
              };
          multiproc;
          recovery;
          certificate;
          throughput;
        }

(* The cross-matrix scalars of the multiprocessor sweep: the best p=1 /
   p=8 cycle ratio of any (example, schema) cell, each side the better
   placement, and the affinity / hash message ratio at p=4. *)
let mp_summary (records : S.record list) =
  let best cells pes =
    List.fold_left
      (fun acc (c : S.mp_cell) ->
        if c.S.mp_pes = pes then min acc c.S.mp_cycles else acc)
      max_int cells
  in
  let sweeps = List.filter_map (fun r -> r.S.multiproc) records in
  let speedup_p8 =
    List.fold_left
      (fun acc cells ->
        let c1 = best cells 1 and c8 = best cells 8 in
        if c8 > 0 && c8 < max_int && c1 < max_int then
          max acc (float_of_int c1 /. float_of_int c8)
        else acc)
      0.0 sweeps
  in
  let cells = List.concat sweeps in
  let messages placement =
    List.fold_left
      (fun acc (c : S.mp_cell) ->
        if c.S.mp_pes = 4 && c.S.mp_placement = placement then
          acc + c.S.mp_net_messages
        else acc)
      0 cells
  in
  {
    S.speedup_p8;
    cut_traffic_ratio =
      float_of_int (messages "affinity")
      /. float_of_int (max 1 (messages "hash"));
    multiproc_determinate =
      List.for_all (fun (c : S.mp_cell) -> c.S.mp_determinate) cells;
  }

(* The batch-service sweep (E25): one serve-protocol job per (example
   program, oracle combo), the grid the `selfcheck` command walks —
   first a warm pass to fill the memoization cache, then the identical
   batch timed at jobs = 1 and jobs = [S.serve_jobs] on the warm cache.
   Byte-equality of the two outputs is the determinism claim; the
   counter delta across the timed runs is the warm hit rate. *)
let service_sweep examples availability =
  let batch =
    List.concat_map
      (fun (_, p) ->
        let src = Imp.Pretty.program_to_string p in
        List.map
          (fun (c : Dflow.Oracle.combo) ->
            Machine.Json.to_string
              (Machine.Json.Assoc
                 [
                   ("op", Machine.Json.String "selfcheck-combo");
                   ("source", Machine.Json.String src);
                   ("combo", Machine.Json.String c.Dflow.Oracle.c_name);
                 ]))
          (Dflow.Oracle.combos_for p))
      examples
  in
  let n = List.length batch in
  let timed jobs =
    let t0 = Unix.gettimeofday () in
    let out = Serve.Server.run_batch ~jobs batch in
    (out, Unix.gettimeofday () -. t0)
  in
  ignore (Serve.Server.run_batch ~jobs:S.serve_jobs batch);
  let before = Dflow.Memo.stats () in
  let out1, secs1 = timed 1 in
  let outp, secsp = timed S.serve_jobs in
  let delta = Service.Cache.diff ~after:(Dflow.Memo.stats ()) ~before in
  (* a batch with failing jobs measures the wrong thing *)
  List.iter
    (fun line ->
      if
        Machine.Json.member "ok" (Machine.Json.of_string line)
        <> Some (Machine.Json.Bool true)
      then begin
        Fmt.epr "bench: serve batch job failed: %s@." line;
        exit 1
      end)
    out1;
  let cell jobs secs =
    {
      S.sv_jobs = jobs;
      sv_batch = n;
      sv_seconds = secs;
      sv_jobs_per_sec = float_of_int n /. secs;
      sv_speedup = secs1 /. secs;
    }
  in
  {
    S.batch = n;
    cache_hits = delta.Service.Cache.hits;
    cache_misses = delta.Service.Cache.misses;
    cache_evictions = delta.Service.Cache.evictions;
    hit_rate = Service.Cache.hit_rate delta;
    deterministic = out1 = outp;
    timed = [ cell 1 secs1; cell S.serve_jobs secsp ];
    chaos_seed = availability_chaos_seed;
    availability;
  }

(* The whole BENCH document: every example program and the seeded
   random programs under every matrix schema, the sweeps on the
   examples, the service and availability sweeps, and the scaling
   sweep. *)
let matrix () =
  let examples =
    match find_programs_dir () with
    | None ->
        Fmt.epr "bench: cannot find examples/programs from %s@."
          (Sys.getcwd ());
        exit 2
    | Some d ->
        Sys.readdir d |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".imp")
        |> List.sort compare
        |> List.map (fun f ->
               ( Filename.chop_extension f,
                 Imp.Parser.program_of_string (read_file (Filename.concat d f))
               ))
  in
  let randoms =
    List.map
      (fun seed ->
        ( Fmt.str "random-%03d" seed,
          Workloads.Random_gen.structured (Random.State.make [| seed |]) ))
      bench_random_seeds
  in
  let records =
    List.concat_map
      (fun ((pname, _) as program) ->
        let sweeps = List.mem_assoc pname examples in
        List.map
          (fun schema -> bench_cell ~sweeps ~program ~schema)
          bench_schemas)
      (examples @ randoms)
  in
  (* the availability sweep (E27) forks worker shards, and the OCaml 5
     runtime refuses Unix.fork once any domain has ever been spawned —
     so it runs BEFORE the timed batches bring up their Pool domains *)
  let availability = availability_sweep () in
  let service = service_sweep examples availability in
  let scale_cells =
    let p = List.assoc scale_program examples in
    let reference = Imp.Eval.run_program ~fuel:10_000_000 p in
    scale_sweep ~reference (compile s2op p)
  in
  {
    S.summary = mp_summary records;
    service;
    scale = { S.scale_program; scale_schema; scale_cells };
    records;
  }

(* [--json OUT] writes the matrix after it passes the schema and every
   floor; [--check FILE] also checks FILE itself and compares the two on
   every untimed field.  With both, OUT is written once the check
   passes.  Exit 1 on any failure. *)
let bench_json ?check ?out () =
  let committed =
    match check with
    | None -> None
    | Some file -> (
        match read_file file with
        | exception Sys_error msg ->
            Fmt.epr "bench: %s@." msg;
            exit 2
        | text -> (
            try Some (file, Machine.Json.of_string text)
            with Machine.Json.Parse_error msg ->
              Fmt.epr "bench: %s: %s@." file msg;
              exit 1))
  in
  let text = Machine.Json.to_string_pretty (S.encode S.document (matrix ())) in
  let doc = Machine.Json.of_string text in
  let results =
    S.check ~cores:(Service.Pool.default_jobs ()) doc
    @
    match committed with
    | None -> []
    | Some (file, c) ->
        (* the recording host's core count is unknown, so FILE is held
           only to the floors that need no particular host *)
        List.filter_map
          (function
            | Ok _ -> None | Error e -> Some (Error (file ^ ": " ^ e)))
          (S.check ~cores:1 c)
        @ List.map
            (fun e -> Error (file ^ ": " ^ e))
            (S.drift ~expected:c doc)
  in
  List.iter
    (function
      | Ok msg -> Fmt.pr "%s@." msg | Error msg -> Fmt.epr "bench: %s@." msg)
    results;
  if List.exists Result.is_error results then exit 1;
  Option.iter
    (Fmt.pr "%s matches the regenerated matrix on every untimed field@.")
    check;
  Option.iter
    (fun out ->
      let oc = open_out out in
      output_string oc text;
      close_out oc;
      Fmt.pr "wrote %s@." out)
    out

(* ===================================================================== *)
(* E21 -- multiprocessor scalability                                     *)

let e21 () =
  section "E21" "Multiprocessor scalability: schema x placement x PE count";
  claim
    "on the multi-PE machine the optimized loop control (schema 2-opt) and \
     value passing keep scaling with PE count where schema 1's single \
     access token flattens, and the affinity placement cuts cross-PE \
     traffic versus the hash baseline -- the fine-grain multiprocessor \
     argument the ETS design is for";
  match find_programs_dir () with
  | None -> Fmt.epr "  (skipped: examples/programs not found)@."
  | Some dir ->
      let p =
        Imp.Parser.program_of_string
          (read_file (Filename.concat dir "stencil.imp"))
      in
      let reference = Imp.Eval.run_program ~fuel:10_000_000 p in
      let pes_list = mp_pe_counts in
      Fmt.pr "  stencil, affinity placement, default network@.";
      Fmt.pr "  %-18s %8s %8s %8s %8s %8s %10s@." "schema" "p=1" "p=2" "p=4"
        "p=8" "p=16" "speedup@8";
      List.iter
        (fun (sname, spec, transforms) ->
          if List.mem sname mp_schemas then
            match compile ~transforms spec p with
            | exception Cfg.Intervals.Irreducible _
            | exception Dflow.Driver.Aliasing_unsupported _ ->
                Fmt.pr "  %-18s (not expressible)@." sname
            | c ->
                let prog =
                  {
                    Machine.Interp.graph = c.Dflow.Driver.graph;
                    layout = c.Dflow.Driver.layout;
                  }
                in
                let cycles =
                  List.map
                    (fun pes ->
                      let r =
                        Machine.Multiproc.run_exn
                          ~placement:Machine.Placement.Affinity ~pes prog
                      in
                      if
                        not
                          (Imp.Memory.equal reference r.Machine.Multiproc.memory)
                      then failwith "E21: multiprocessor store diverged!";
                      r.Machine.Multiproc.cycles)
                    pes_list
                in
                let c1 = List.nth cycles 0 and c8 = List.nth cycles 3 in
                Fmt.pr "  %-18s %8d %8d %8d %8d %8d %9.2fx@." sname
                  (List.nth cycles 0) (List.nth cycles 1) (List.nth cycles 2)
                  (List.nth cycles 3) (List.nth cycles 4)
                  (float_of_int c1 /. float_of_int (max 1 c8)))
        bench_schemas;
      Fmt.pr "@.  placement quality at p=4 (stencil, schema2-opt)@.";
      Fmt.pr "  %-12s %9s %9s %12s %12s@." "placement" "cut-arcs" "messages"
        "cut-traffic" "backpressure";
      let c = compile s2op p in
      let prog =
        {
          Machine.Interp.graph = c.Dflow.Driver.graph;
          layout = c.Dflow.Driver.layout;
        }
      in
      List.iter
        (fun placement ->
          let r = Machine.Multiproc.run_exn ~placement ~pes:4 prog in
          if not (Imp.Memory.equal reference r.Machine.Multiproc.memory) then
            failwith "E21: multiprocessor store diverged!";
          let st = r.Machine.Multiproc.placement_stats in
          Fmt.pr "  %-12s %9d %9d %11.1f%% %12d@."
            (Machine.Placement.policy_to_string placement)
            st.Machine.Placement.cut_arcs r.Machine.Multiproc.net_messages
            (100.0 *. r.Machine.Multiproc.cut_traffic)
            r.Machine.Multiproc.backpressure)
        [ Machine.Placement.Hash; Machine.Placement.Round_robin;
          Machine.Placement.Affinity ]

(* ===================================================================== *)
(* E22 -- fault tolerance: recovery overhead vs checkpoint interval      *)

let e22 () =
  section "E22" "Fault tolerance: recovery cost vs checkpoint cadence";
  claim
    "under seeded link faults and one PE fail-stop the machine recovers \
     the exact reference store (determinacy makes replay safe); the \
     makespan overhead trades checkpoint frequency against replay \
     distance -- tight intervals lose little progress per rollback, \
     loose ones checkpoint rarely but replay more";
  match find_programs_dir () with
  | None -> Fmt.epr "  (skipped: examples/programs not found)@."
  | Some dir ->
      let p =
        Imp.Parser.program_of_string
          (read_file (Filename.concat dir "stencil.imp"))
      in
      let reference = Imp.Eval.run_program ~fuel:10_000_000 p in
      let c = compile s2op p in
      Fmt.pr "  stencil, schema2-opt, p=4 affinity, seed %d (rate 0.01 link \
              faults + 1 fail-stop)@." recovery_fault_seed;
      Fmt.pr "  %-10s %8s %9s %8s %6s %6s %6s %8s %8s %6s@." "interval"
        "cycles" "overhead" "ckpts" "death" "rollbk" "lost" "replayed"
        "retrans" "store";
      let cells = recovery_sweep ~reference c in
      List.iter
        (fun (cell : S.recovery_cell) ->
          Fmt.pr "  %-10d %8d %8.1f%% %8d %6d %6d %6d %8d %8d %6s@."
            cell.S.rc_interval cell.S.rc_cycles
            (100.0 *. cell.S.rc_overhead)
            cell.S.rc_checkpoints
            cell.S.rc_deaths cell.S.rc_rollbacks
            cell.S.rc_lost_cycles
            cell.S.rc_replayed_firings
            cell.S.rc_retransmits
            (if cell.S.rc_recovered then "ok" else "WRONG"))
        cells;
      (match cells with
      | first :: _ ->
          Fmt.pr "  fault-free baseline: %d cycles@."
            first.S.rc_baseline_cycles
      | [] -> ());
      if
        List.exists
          (fun (c : S.recovery_cell) ->
            not c.S.rc_recovered)
          cells
      then failwith "E22: a faulty run failed to recover the reference store!";
      (* the other axis: fault rate at the default checkpoint cadence *)
      let prog =
        {
          Machine.Interp.graph = c.Dflow.Driver.graph;
          layout = c.Dflow.Driver.layout;
        }
      in
      let pes = 4 and placement = Machine.Placement.Affinity in
      let base =
        (Machine.Multiproc.run_exn ~placement ~pes prog).Machine.Multiproc.cycles
      in
      Fmt.pr "@.  fault-rate sweep at checkpoint interval %d:@."
        recovery_default_interval;
      Fmt.pr "  %-10s %8s %9s %10s %8s %6s@." "rate" "cycles" "overhead"
        "wire-flts" "retrans" "store";
      List.iter
        (fun rate ->
          let faults =
            Machine.Fault.make
              (Machine.Fault.spec ~rate ~classes:Machine.Fault.link_classes
                 ~seed:recovery_fault_seed ())
          in
          let recovery =
            Machine.Recovery.spec ~interval:recovery_default_interval
              ~deaths:
                (Machine.Recovery.seeded_deaths ~seed:recovery_fault_seed ~pes
                   ~window:60)
              ()
          in
          match Machine.Multiproc.run ~placement ~pes ~faults ~recovery prog with
          | Ok r ->
              let recovered =
                r.Machine.Multiproc.completed
                && r.Machine.Multiproc.leftover_tokens = 0
                && Imp.Memory.equal reference r.Machine.Multiproc.memory
              in
              let wire, retrans =
                match r.Machine.Multiproc.transport with
                | Some s ->
                    (s.Machine.Network.r_wire_faults,
                     s.Machine.Network.r_retransmits)
                | None -> (0, 0)
              in
              if not recovered then
                failwith "E22: a faulty run failed to recover!";
              Fmt.pr "  %-10.3f %8d %8.1f%% %10d %8d %6s@." rate
                r.Machine.Multiproc.cycles
                (100.0
                *. ((float_of_int r.Machine.Multiproc.cycles
                    /. float_of_int (max 1 base))
                   -. 1.0))
                wire retrans "ok"
          | Error d ->
              Fmt.epr "  rate %.3f: hard failure:@.%a@." rate
                Machine.Diagnosis.pp d;
              failwith "E22: a faulty run failed hard")
        [ 0.0; 0.005; 0.01; 0.02; 0.05 ]

(* ===================================================================== *)

(* ===================================================================== *)
(* E26 -- scaling to hundreds of PEs                                     *)

let e26 () =
  section "E26"
    "Scaling to hundreds of PEs: topology x hierarchical placement x \
     stealing";
  claim
    "with a per-hop interconnect cost the structure-blind baseline stops \
     scaling once messages cross the whole machine; carving the PE grid \
     along the program's loop hierarchy keeps traffic inside contiguous \
     sub-grids, and work stealing re-fills PEs the static placement left \
     idle -- all without perturbing a single store bit (the determinacy \
     argument is placement-independent)";
  match find_programs_dir () with
  | None -> Fmt.epr "  (skipped: examples/programs not found)@."
  | Some dir ->
      let p =
        Imp.Parser.program_of_string
          (read_file (Filename.concat dir (scale_program ^ ".imp")))
      in
      let reference = Imp.Eval.run_program ~fuel:10_000_000 p in
      let cells = scale_sweep ~reference (compile s2op p) in
      List.iter
        (fun (net_name, placement, steal) ->
          Fmt.pr "@.  %s, %s, %s placement, %s network%s@." scale_program
            scale_schema
            (Machine.Placement.policy_to_string placement)
            net_name
            (if steal then ", stealing on" else "");
          Fmt.pr "  %6s %8s %8s %9s %9s %9s %8s %7s %6s@." "pes" "cycles"
            "fir/cyc" "speedup" "messages" "hops" "avg-dist" "steals" "store";
          List.iter
            (fun (c : S.scale_cell) ->
              if
                c.S.sc_net = net_name
                && c.S.sc_placement
                   = Machine.Placement.policy_to_string placement
                && c.S.sc_steal = steal
              then
                Fmt.pr "  %6d %8d %8.2f %8.2fx %9d %9d %8.2f %7d %6s@."
                  c.S.sc_pes c.S.sc_cycles
                  c.S.sc_fpc c.S.sc_speedup
                  c.S.sc_net_messages
                  c.S.sc_net_hops
                  (float_of_int c.S.sc_net_hops
                  /. float_of_int (max 1 c.S.sc_net_messages))
                  c.S.sc_steals
                  (if c.S.sc_determinate then "ok" else "WRONG"))
            cells)
        scale_configs;
      if List.exists (fun (c : S.scale_cell) -> not c.S.sc_determinate) cells
      then failwith "E26: a scaled run perturbed the store!"

(* ===================================================================== *)
(* E27 -- availability under chaos                                        *)

let e27 () =
  section "E27"
    "Availability under chaos: supervised shards x seeded fault rate";
  claim
    "a compile job that crashes, stalls, or truncates takes down one \
     worker shard, never the service: the supervisor converts every fault \
     into a structured per-job error, respawns the shard under capped \
     backoff, and -- because execution is determinate -- every reply that \
     does come back is byte-identical to the serial fault-free path, at \
     any chaos rate";
  let cells = availability_sweep () in
  Fmt.pr "@.  %d jobs, %d shards, %dms deadline, chaos seed %d@."
    availability_jobs availability_shards availability_deadline_ms
    availability_chaos_seed;
  Fmt.pr "  %6s %6s %6s %9s %7s %9s %9s@." "chaos" "ok" "crash" "deadline"
    "restart" "diverged" "success";
  List.iter
    (fun (c : S.availability_cell) ->
      Fmt.pr "  %6.2f %6d %6d %9d %7d %9d %8.3f@." c.S.av_chaos_rate c.S.av_ok
        c.S.av_shard_crash c.S.av_deadline c.S.av_restarts c.S.av_divergences
        c.S.av_success_rate)
    cells

let experiments =
  [
    ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
    ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11);
    ("E12", e12); ("E13", e13); ("E14", e14); ("E15", e15); ("E16", e16);
    ("E17", e17); ("E18", e18); ("E21", e21); ("E22", e22); ("E26", e26);
    ("E27", e27);
  ]

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "--json"; out ] -> bench_json ~out ()
  | [ "--check"; file ] -> bench_json ~check:file ()
  | [ "--check"; file; "--json"; out ] | [ "--json"; out; "--check"; file ] ->
      bench_json ~check:file ~out ()
  | args when List.mem "--json" args || List.mem "--check" args ->
      Fmt.epr
        "bench: usage: main.exe --json OUT | --check FILE [--json OUT] | \
         [quick] [E<n> ...]@.";
      exit 2
  | args ->
      let quick = List.mem "quick" args in
      let selected = List.filter (fun a -> a <> "quick") args in
      let to_run =
        if selected = [] then experiments
        else List.filter (fun (id, _) -> List.mem id selected) experiments
      in
      List.iter (fun (_, f) -> f ()) to_run;
      if (not quick) && selected = [] then bechamel_benches ();
      Fmt.pr
        "@.all experiments completed; every executed store was checked \
         against the reference interpreter.@."

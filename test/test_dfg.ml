(* Tests for the dataflow-graph IR: builder validation, well-formedness
   checking, statistics, DOT rendering, and the execution tracer. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

module B = Dfg.Graph.Builder
module N = Dfg.Node

let tiny_graph () =
  (* start -> const -> store x -> end *)
  let b = B.create () in
  let start = B.add b (N.Start 1) in
  let c = B.add b (N.Const (Imp.Value.Int 5)) in
  let st = B.add b (N.Store { var = "x"; indexed = false; mem = N.Plain }) in
  let stop = B.add b (N.End 1) in
  B.connect b ~dummy:true (start, 0) (c, 0);
  B.connect b ~dummy:true (start, 0) (st, 0);
  B.connect b (c, 0) (st, 1);
  B.connect b ~dummy:true (st, 0) (stop, 0);
  B.finish b

(* ------------------------------------------------------------------ *)
(* Builder                                                            *)

let test_builder_roundtrip () =
  let g = tiny_graph () in
  checki "nodes" 4 (Dfg.Graph.num_nodes g);
  checki "arcs" 4 (Dfg.Graph.num_arcs g);
  checki "start" 0 g.Dfg.Graph.start;
  checki "stop" 3 g.Dfg.Graph.stop

let expect_ill_formed build =
  match build () with
  | _ -> Alcotest.fail "expected Ill_formed"
  | exception B.Ill_formed _ -> ()

let test_builder_unfed_input () =
  expect_ill_formed (fun () ->
      let b = B.create () in
      let _start = B.add b (N.Start 1) in
      let _stop = B.add b (N.End 1) in
      (* End's input port is never fed *)
      B.finish b)

let test_builder_double_fed_input () =
  expect_ill_formed (fun () ->
      let b = B.create () in
      let start = B.add b (N.Start 2) in
      let stop = B.add b (N.End 1) in
      B.connect b (start, 0) (stop, 0);
      B.connect b (start, 1) (stop, 0);
      (* two arcs into a non-merge input *)
      B.finish b)

let test_builder_port_out_of_range () =
  expect_ill_formed (fun () ->
      let b = B.create () in
      let start = B.add b (N.Start 1) in
      let stop = B.add b (N.End 1) in
      B.connect b (start, 5) (stop, 0);
      B.finish b)

let test_builder_two_starts () =
  expect_ill_formed (fun () ->
      let b = B.create () in
      let s1 = B.add b (N.Start 1) in
      let s2 = B.add b (N.Start 1) in
      let stop = B.add b (N.End 2) in
      B.connect b (s1, 0) (stop, 0);
      B.connect b (s2, 0) (stop, 1);
      B.finish b)

let test_merge_accepts_many () =
  let b = B.create () in
  let start = B.add b (N.Start 3) in
  let m = B.add b N.Merge in
  let stop = B.add b (N.End 1) in
  B.connect b (start, 0) (m, 0);
  B.connect b (start, 1) (m, 0);
  B.connect b (start, 2) (m, 0);
  B.connect b (m, 0) (stop, 0);
  let g = B.finish b in
  checki "three arcs into the merge" 3
    (List.length (Dfg.Graph.incoming g m 0))

(* ------------------------------------------------------------------ *)
(* Check                                                              *)

let test_check_accepts_tiny () = Dfg.Check.check (tiny_graph ())

let test_check_unconnected_output () =
  (* a const whose output goes nowhere *)
  let b = B.create () in
  let start = B.add b (N.Start 2) in
  let c = B.add b (N.Const (Imp.Value.Int 1)) in
  let stop = B.add b (N.End 1) in
  B.connect b ~dummy:true (start, 0) (c, 0);
  B.connect b ~dummy:true (start, 1) (stop, 0);
  let g = B.finish b in
  (match Dfg.Check.check g with
  | _ -> Alcotest.fail "expected Invalid"
  | exception Dfg.Check.Invalid _ -> ())

let test_check_value_fed_access () =
  (* memory op whose access input is fed by a value arc *)
  let b = B.create () in
  let start = B.add b (N.Start 1) in
  let ld = B.add b (N.Load { var = "x"; indexed = false; mem = N.Plain }) in
  let stop = B.add b (N.End 2) in
  B.connect b (start, 0) (ld, 0);
  (* not dummy! *)
  B.connect b (ld, 0) (stop, 0);
  B.connect b ~dummy:true (ld, 1) (stop, 1);
  let g = B.finish b in
  (match Dfg.Check.check g with
  | _ -> Alcotest.fail "expected Invalid"
  | exception Dfg.Check.Invalid _ -> ())

let test_check_switch_dead_branch_ok () =
  (* a switch with an unconnected false output is legal *)
  let b = B.create () in
  let start = B.add b (N.Start 2) in
  let sw = B.add b N.Switch in
  let stop = B.add b (N.End 1) in
  B.connect b ~dummy:true (start, 0) (sw, 0);
  B.connect b (start, 1) (sw, 1);
  B.connect b ~dummy:true (sw, 0) (stop, 0);
  Dfg.Check.check (B.finish b)

(* ------------------------------------------------------------------ *)
(* Stats and arities                                                  *)

let test_stats_tiny () =
  let st = Dfg.Stats.of_graph (tiny_graph ()) in
  checki "stores" 1 st.Dfg.Stats.stores;
  checki "alu (const)" 1 st.Dfg.Stats.alu;
  checki "dummy arcs" 3 st.Dfg.Stats.dummy_arcs

let test_arities () =
  checki "load plain" 1 (N.in_arity (N.Load { var = "x"; indexed = false; mem = N.Plain }));
  checki "load indexed" 2 (N.in_arity (N.Load { var = "x"; indexed = true; mem = N.Plain }));
  checki "store indexed" 3 (N.in_arity (N.Store { var = "x"; indexed = true; mem = N.Plain }));
  checki "switch in" 2 (N.in_arity N.Switch);
  checki "switch out" 2 (N.out_arity N.Switch);
  checki "entry in" 6 (N.in_arity (N.Loop_entry { loop = 0; arity = 3 }));
  checki "entry out" 3 (N.out_arity (N.Loop_entry { loop = 0; arity = 3 }));
  checki "sink out" 0 (N.out_arity N.Sink);
  checki "synch in" 4 (N.in_arity (N.Synch 4))

(* tiny substring helper to avoid extra deps *)
let contains_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let test_dot () =
  let s = Dfg.Dot.to_string (tiny_graph ()) in
  checkb "digraph" true (String.sub s 0 7 = "digraph");
  checkb "has dashed dummy arcs" true (contains_sub s "style=dashed")

(* ------------------------------------------------------------------ *)
(* Textual format                                                     *)

let test_text_roundtrip_tiny () =
  let g = tiny_graph () in
  let s = Dfg.Text.print g in
  let g' = Dfg.Text.parse s in
  Alcotest.(check string) "round trip" s (Dfg.Text.print g')

let test_text_roundtrip_compiled () =
  (* every node kind the translator emits survives the round trip, and
     the reloaded graph executes identically *)
  List.iter
    (fun (name, mk) ->
      let p = mk () in
      if not (Analysis.Alias.has_aliasing (Analysis.Alias.of_program p)) then
        match
          Dflow.Driver.compile
            ~transforms:Dflow.Driver.all_transforms
            (Dflow.Driver.Schema2 Dflow.Engine.Pipelined)
            p
        with
        | c -> (
            let s = Dfg.Text.print c.Dflow.Driver.graph in
            match Dfg.Text.parse s with
            | g' ->
                Alcotest.(check string) (name ^ " text round trip") s
                  (Dfg.Text.print g');
                let r =
                  Machine.Interp.run_exn
                    { Machine.Interp.graph = g'; layout = c.Dflow.Driver.layout }
                in
                checkb (name ^ " reloaded graph runs") true
                  (Imp.Memory.equal
                     (Imp.Eval.run_program ~fuel:1_000_000 p)
                     r.Machine.Interp.memory)
            | exception exn ->
                Alcotest.failf "%s failed to reparse: %s" name
                  (Printexc.to_string exn))
        | exception Cfg.Intervals.Irreducible _ -> ())
    Imp.Factory.all

let test_text_random_roundtrip () =
  let rand = Random.State.make [| 808 |] in
  for _ = 1 to 20 do
    let p = Workloads.Random_gen.structured rand in
    if not (Analysis.Alias.has_aliasing (Analysis.Alias.of_program p)) then begin
      let c =
        Dflow.Driver.compile (Dflow.Driver.Schema2_opt Dflow.Engine.Pipelined) p
      in
      let s = Dfg.Text.print c.Dflow.Driver.graph in
      Alcotest.(check string) "round trip" s (Dfg.Text.print (Dfg.Text.parse s))
    end
  done

let test_text_rejects_garbage () =
  let bad s =
    match Dfg.Text.parse s with
    | _ -> Alcotest.failf "expected rejection of %S" s
    | exception Dfg.Text.Parse_error _ -> ()
    | exception B.Ill_formed _ -> ()
  in
  bad "node 0 frobnicate";
  bad "node 1 start/1";
  (* non-dense ids *)
  bad "arc 0.0 -> 1.0";
  (* arcs without nodes *)
  bad "node 0 start/1\nnode 1 end/1\narc 0.0 => 1.0"

let test_text_kind_table () =
  (* every kind round-trips through its textual form *)
  List.iter
    (fun k ->
      Alcotest.(check string)
        (Dfg.Text.kind_to_text k)
        (Dfg.Text.kind_to_text k)
        (Dfg.Text.kind_to_text (Dfg.Text.kind_of_text (Dfg.Text.kind_to_text k))))
    [
      N.Start 3;
      N.End 2;
      N.Const (Imp.Value.Int (-4));
      N.Const (Imp.Value.Bool true);
      N.Binop Imp.Ast.Mod;
      N.Unop Imp.Ast.Not;
      N.Id;
      N.Sink;
      N.Load { var = "x"; indexed = true; mem = N.Plain };
      N.Store { var = "a"; indexed = true; mem = N.I_structure };
      N.Switch;
      N.Merge;
      N.Synch 5;
      N.Loop_entry { loop = 2; arity = 3 };
      N.Loop_exit { loop = 2; arity = 3 };
    ]

(* ------------------------------------------------------------------ *)
(* Simplify                                                           *)

let test_simplify_splices_ids () =
  (* value passing introduces Id fan-out points; simplify removes them
     without changing results *)
  let p = Imp.Factory.fib_kernel ~n:8 () in
  let c =
    Dflow.Driver.compile
      ~transforms:{ Dflow.Driver.no_transforms with Dflow.Driver.value_passing = true }
      (Dflow.Driver.Schema2 Dflow.Engine.Pipelined)
      p
  in
  let ids g = Dfg.Graph.count g (function N.Id -> true | _ -> false) in
  checkb "ids present before" true (ids c.Dflow.Driver.graph > 0);
  let g' = Dfg.Simplify.run c.Dflow.Driver.graph in
  Dfg.Check.check g';
  checki "no ids after" 0 (ids g');
  let run g =
    Machine.Interp.run_exn
      { Machine.Interp.graph = g; layout = c.Dflow.Driver.layout }
  in
  let r = run c.Dflow.Driver.graph and r' = run g' in
  checkb "same store" true
    (Imp.Memory.equal r.Machine.Interp.memory r'.Machine.Interp.memory);
  checkb "not slower" true (r'.Machine.Interp.cycles <= r.Machine.Interp.cycles)

let test_simplify_idempotent () =
  let p = Imp.Factory.sum_kernel ~n:5 () in
  let c =
    Dflow.Driver.compile
      ~transforms:Dflow.Driver.all_transforms
      (Dflow.Driver.Schema2 Dflow.Engine.Barrier)
      p
  in
  let g1 = Dfg.Simplify.run c.Dflow.Driver.graph in
  let g2 = Dfg.Simplify.run g1 in
  checki "stable node count" (Dfg.Graph.num_nodes g1) (Dfg.Graph.num_nodes g2);
  checki "stable arc count" (Dfg.Graph.num_arcs g1) (Dfg.Graph.num_arcs g2)

let test_simplify_random_differential () =
  let rand = Random.State.make [| 5150 |] in
  for _ = 1 to 20 do
    let p = Workloads.Random_gen.structured rand in
    if not (Analysis.Alias.has_aliasing (Analysis.Alias.of_program p)) then begin
      let c =
        Dflow.Driver.compile
          ~transforms:Dflow.Driver.all_transforms
          (Dflow.Driver.Schema2 Dflow.Engine.Pipelined)
          p
      in
      let g' = Dfg.Simplify.run c.Dflow.Driver.graph in
      Dfg.Check.check g';
      let r' =
        Machine.Interp.run_exn
          { Machine.Interp.graph = g'; layout = c.Dflow.Driver.layout }
      in
      let expected = Imp.Eval.run_program ~fuel:1_000_000 p in
      checkb "simplified graph matches reference" true
        (Imp.Memory.equal expected r'.Machine.Interp.memory)
    end
  done

(* ------------------------------------------------------------------ *)
(* Optimizer                                                          *)

let alu g = (Dfg.Stats.of_graph g).Dfg.Stats.alu

let opt_differential ?(transforms = Dflow.Driver.no_transforms) spec p =
  let c = Dflow.Driver.compile ~transforms spec p in
  let g' = Dfg.Opt.run c.Dflow.Driver.graph in
  Dfg.Check.check g';
  let r =
    Machine.Interp.run_exn
      { Machine.Interp.graph = g'; layout = c.Dflow.Driver.layout }
  in
  (c.Dflow.Driver.graph, g', r)

let test_opt_constant_folding () =
  let p = Imp.Parser.program_of_string "x := 2 + 3 * 4 y := x" in
  let g0, g1, r =
    opt_differential (Dflow.Driver.Schema2 Dflow.Engine.Barrier) p
  in
  checkb "fewer ALU ops" true (alu g1 < alu g0);
  checki "x" 14 (Imp.Memory.read r.Machine.Interp.memory "x" 0);
  checki "y" 14 (Imp.Memory.read r.Machine.Interp.memory "y" 0)

let test_opt_cse () =
  (* a + b computed twice from the same loads *)
  let p = Imp.Parser.program_of_string "c := (a + b) * (a + b)" in
  let g0, g1, r =
    opt_differential (Dflow.Driver.Schema2 Dflow.Engine.Barrier) p
  in
  checkb "one add eliminated" true (alu g1 < alu g0);
  checki "c" 0 (Imp.Memory.read r.Machine.Interp.memory "c" 0)

let test_opt_idempotent () =
  let p = Imp.Factory.gcd_kernel () in
  let c = Dflow.Driver.compile (Dflow.Driver.Schema2 Dflow.Engine.Barrier) p in
  let g1 = Dfg.Opt.run c.Dflow.Driver.graph in
  let g2 = Dfg.Opt.run g1 in
  checki "fixpoint" (Dfg.Graph.num_nodes g1) (Dfg.Graph.num_nodes g2)

let test_opt_random_differential () =
  let rand = Random.State.make [| 60702 |] in
  for _ = 1 to 25 do
    let p = Workloads.Random_gen.structured rand in
    if not (Analysis.Alias.has_aliasing (Analysis.Alias.of_program p)) then begin
      let expected = Imp.Eval.run_program ~fuel:1_000_000 p in
      List.iter
        (fun (spec, transforms) ->
          let _, _, r = opt_differential ~transforms spec p in
          checkb "optimized graph preserves semantics" true
            (Imp.Memory.equal expected r.Machine.Interp.memory))
        [
          (Dflow.Driver.Schema2 Dflow.Engine.Pipelined, Dflow.Driver.no_transforms);
          (Dflow.Driver.Schema2_opt Dflow.Engine.Barrier, Dflow.Driver.no_transforms);
          (Dflow.Driver.Schema2 Dflow.Engine.Pipelined, Dflow.Driver.all_transforms);
        ]
    end
  done

let test_opt_composes_with_simplify () =
  let p = Imp.Factory.fib_kernel ~n:6 () in
  let c =
    Dflow.Driver.compile
      ~transforms:{ Dflow.Driver.no_transforms with Dflow.Driver.value_passing = true }
      (Dflow.Driver.Schema2 Dflow.Engine.Pipelined)
      p
  in
  let g' = Dfg.Opt.run (Dfg.Simplify.run c.Dflow.Driver.graph) in
  Dfg.Check.check g';
  let r =
    Machine.Interp.run_exn
      { Machine.Interp.graph = g'; layout = c.Dflow.Driver.layout }
  in
  checkb "matches reference" true
    (Imp.Memory.equal (Imp.Eval.run_program p) r.Machine.Interp.memory)

(* ------------------------------------------------------------------ *)
(* Pinned compiler output                                             *)

(* Every translated and optimized graph, rendered in full: node ids,
   kinds and labels, arcs with their ports, dummy flag and token
   labels, the certificate, and Start/End.  The goldens pin only counts,
   so this digest is what catches a changed label, node order or token
   label.  The kind rendering is the test's own, independent of
   [Node.kind_to_string]. *)
let pin_kind (k : N.kind) : string =
  let mem = function N.Plain -> "plain" | N.I_structure -> "istruct" in
  match k with
  | N.Start k -> Printf.sprintf "Start %d" k
  | N.End k -> Printf.sprintf "End %d" k
  | N.Const (Imp.Value.Int n) -> Printf.sprintf "Const int %d" n
  | N.Const (Imp.Value.Bool b) -> Printf.sprintf "Const bool %b" b
  | N.Binop op -> "Binop " ^ Imp.Pretty.binop_string op
  | N.Unop Imp.Ast.Neg -> "Unop neg"
  | N.Unop Imp.Ast.Not -> "Unop not"
  | N.Id -> "Id"
  | N.Sink -> "Sink"
  | N.Load { var; indexed; mem = m } ->
      Printf.sprintf "Load %s %b %s" var indexed (mem m)
  | N.Store { var; indexed; mem = m } ->
      Printf.sprintf "Store %s %b %s" var indexed (mem m)
  | N.Switch -> "Switch"
  | N.Merge -> "Merge"
  | N.Synch n -> Printf.sprintf "Synch %d" n
  | N.Loop_entry { loop; arity } -> Printf.sprintf "Loop_entry %d %d" loop arity
  | N.Loop_exit { loop; arity } -> Printf.sprintf "Loop_exit %d %d" loop arity

let render_graph buf (g : Dfg.Graph.t) =
  let pr fmt = Printf.bprintf buf fmt in
  pr "start %d end %d\n" g.Dfg.Graph.start g.Dfg.Graph.stop;
  Array.iter
    (fun (n : N.t) -> pr "n %d %s %S\n" n.N.id (pin_kind n.N.kind) n.N.label)
    g.Dfg.Graph.nodes;
  Array.iter
    (fun (a : Dfg.Graph.arc) ->
      pr "a %d.%d %d.%d %b [%s]\n" a.Dfg.Graph.src.Dfg.Graph.node
        a.Dfg.Graph.src.Dfg.Graph.index a.Dfg.Graph.dst.Dfg.Graph.node
        a.Dfg.Graph.dst.Dfg.Graph.index a.Dfg.Graph.dummy
        (String.concat "," (List.map string_of_int a.Dfg.Graph.tokens)))
    g.Dfg.Graph.arcs;
  match g.Dfg.Graph.cert with
  | None -> pr "cert none\n"
  | Some c ->
      pr "cert [%s]\n" (String.concat "," (Array.to_list c.Dfg.Graph.cert_elements));
      Array.iteri
        (fun i req ->
          if req <> [] then
            pr "req %d [%s]\n" i (String.concat "," (List.map string_of_int req)))
        c.Dfg.Graph.cert_require

let pin_programs () =
  let examples =
    match
      List.find_opt Sys.file_exists [ "../examples/programs"; "examples/programs" ]
    with
    | None -> Alcotest.fail "cannot locate examples/programs"
    | Some dir ->
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".imp")
        |> List.sort compare
        |> List.map (fun f ->
               let path = Filename.concat dir f in
               let src = In_channel.with_open_bin path In_channel.input_all in
               (f, Imp.Parser.program_of_string src))
  in
  let rand = Random.State.make [| 1990 |] in
  let random config tag n =
    List.init n (fun i ->
        (Printf.sprintf "%s-%d" tag i, Workloads.Random_gen.structured ~config rand))
  in
  let default = Workloads.Random_gen.default_config in
  examples
  @ random default "random" 16
  @ random
      { default with Workloads.Random_gen.allow_alias = true; num_arrays = 2 }
      "aliased" 6

let pin_specs =
  [
    ("1", Dflow.Driver.Schema1);
    ("2p", Dflow.Driver.Schema2 Dflow.Engine.Pipelined);
    ("2optp", Dflow.Driver.Schema2_opt Dflow.Engine.Pipelined);
    ("3", Dflow.Driver.Schema3 (Dflow.Driver.Classes, Dflow.Engine.Barrier));
  ]

let pinned_digest = "e2f46c8c84eeedec40f8d48e97cd9378"

let test_pin_compiled_graphs () =
  let buf = Buffer.create (1 lsl 20) in
  let transforms =
    [ ("none", Dflow.Driver.no_transforms); ("all", Dflow.Driver.all_transforms) ]
  in
  List.iter
    (fun (name, p) ->
      List.iter
        (fun (sname, spec) ->
          List.iter
            (fun (tname, transforms) ->
              List.iter
                (fun optimize ->
                  Printf.bprintf buf "== %s %s %s optimize=%b\n" name sname
                    tname optimize;
                  match
                    Dflow.Driver.compile ~transforms ~split_irreducible:true
                      spec p
                  with
                  | c ->
                      let g = c.Dflow.Driver.graph in
                      render_graph buf
                        (if optimize then Dfg.Opt.run (Dfg.Simplify.run g)
                         else g)
                  | exception e ->
                      Printf.bprintf buf "raised %s\n" (Printexc.to_string e))
                [ false; true ])
            transforms)
        pin_specs)
    (pin_programs ());
  Alcotest.(check string) "digest of every rendered graph" pinned_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* ------------------------------------------------------------------ *)
(* Trace                                                              *)

let test_trace_records () =
  let p = Imp.Factory.sum_kernel ~n:4 () in
  let c = Dflow.Driver.compile (Dflow.Driver.Schema2 Dflow.Engine.Pipelined) p in
  let t = Machine.Trace.create () in
  let _ =
    Machine.Interp.run ~log:t
      { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout }
  in
  checkb "firings logged" true (Machine.Trace.length t > 20);
  let per_ctx = Machine.Trace.per_context t in
  (* 4 loop iterations + top level: at least 5 contexts *)
  checkb "several contexts" true (List.length per_ctx >= 5)

let test_trace_overlap_pipelined_vs_barrier () =
  (* pipelined loop control lets iteration contexts overlap in time;
     barrier control keeps at most adjacent boundary overlap *)
  let p =
    Imp.Parser.program_of_string
      {| i := 0
         while i < 8 do
           a := a + i * i * i
           i := i + 1
         end |}
  in
  let overlap spec =
    let c = Dflow.Driver.compile spec p in
    let t = Machine.Trace.create () in
    let _ =
      Machine.Interp.run ~log:t
        { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout }
    in
    Machine.Trace.max_context_overlap t
  in
  let b = overlap (Dflow.Driver.Schema2 Dflow.Engine.Barrier) in
  let pl = overlap (Dflow.Driver.Schema2 Dflow.Engine.Pipelined) in
  checkb
    (Fmt.str "pipelined overlap (%d) >= barrier overlap (%d)" pl b)
    true (pl >= b)

let test_trace_timeline_renders () =
  let p = Imp.Factory.sum_kernel ~n:3 () in
  let c = Dflow.Driver.compile Dflow.Driver.Schema1 p in
  let t = Machine.Trace.create () in
  let _ =
    Machine.Interp.run ~log:t
      { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout }
  in
  let s =
    Fmt.str "%a"
      (Machine.Trace.pp_timeline ~max_cycles:10 ~graph:c.Dflow.Driver.graph)
      t
  in
  checkb "nonempty" true (String.length s > 50)

let () =
  Alcotest.run "dfg"
    [
      ( "builder",
        [
          Alcotest.test_case "round trip" `Quick test_builder_roundtrip;
          Alcotest.test_case "unfed input" `Quick test_builder_unfed_input;
          Alcotest.test_case "double-fed input" `Quick test_builder_double_fed_input;
          Alcotest.test_case "port out of range" `Quick test_builder_port_out_of_range;
          Alcotest.test_case "two starts" `Quick test_builder_two_starts;
          Alcotest.test_case "merge accepts many" `Quick test_merge_accepts_many;
        ] );
      ( "check",
        [
          Alcotest.test_case "accepts well-formed" `Quick test_check_accepts_tiny;
          Alcotest.test_case "unconnected output" `Quick test_check_unconnected_output;
          Alcotest.test_case "value-fed access input" `Quick test_check_value_fed_access;
          Alcotest.test_case "switch dead branch ok" `Quick
            test_check_switch_dead_branch_ok;
        ] );
      ( "stats",
        [
          Alcotest.test_case "tiny graph" `Quick test_stats_tiny;
          Alcotest.test_case "arities" `Quick test_arities;
          Alcotest.test_case "dot rendering" `Quick test_dot;
        ] );
      ( "text",
        [
          Alcotest.test_case "tiny round trip" `Quick test_text_roundtrip_tiny;
          Alcotest.test_case "compiled graphs round trip" `Quick
            test_text_roundtrip_compiled;
          Alcotest.test_case "rejects garbage" `Quick test_text_rejects_garbage;
          Alcotest.test_case "random graphs round trip" `Quick
            test_text_random_roundtrip;
          Alcotest.test_case "kind table" `Quick test_text_kind_table;
        ] );
      ( "simplify",
        [
          Alcotest.test_case "splices ids" `Quick test_simplify_splices_ids;
          Alcotest.test_case "idempotent" `Quick test_simplify_idempotent;
          Alcotest.test_case "random differential" `Quick
            test_simplify_random_differential;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "constant folding" `Quick test_opt_constant_folding;
          Alcotest.test_case "cse" `Quick test_opt_cse;
          Alcotest.test_case "idempotent" `Quick test_opt_idempotent;
          Alcotest.test_case "random differential" `Quick
            test_opt_random_differential;
          Alcotest.test_case "composes with simplify" `Quick
            test_opt_composes_with_simplify;
        ] );
      ( "pin",
        [
          Alcotest.test_case "compiled graphs byte for byte" `Quick
            test_pin_compiled_graphs;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records firings" `Quick test_trace_records;
          Alcotest.test_case "context overlap" `Quick
            test_trace_overlap_pipelined_vs_barrier;
          Alcotest.test_case "timeline renders" `Quick test_trace_timeline_renders;
        ] );
    ]

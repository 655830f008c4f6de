(* The multiprocessor tier: placement policies, the interconnect model,
   and the central determinacy property — the final store of a
   multiproc run must equal the reference interpreter's and the
   single-PE machine's for every placement policy × network config × PE
   count, on the example suite and on seeded random programs. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

module P = Machine.Placement
module Net = Machine.Network
module MP = Machine.Multiproc

let contended =
  {
    Net.latency = 3;
    bandwidth = 1;
    queue_capacity = Some 2;
    modules = Some 2;
  }

let net_grid = [ ("fast", Net.fast); ("contended", contended) ]

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

let example name = List.assoc name (example_programs ())

(* Compile under schema 2-opt where the program admits it, schema 1
   otherwise (aliasing, irreducibility); multiproc determinacy must hold
   for any compiled graph. *)
let compile_best (p : Imp.Ast.program) : Dflow.Driver.compiled =
  match Dflow.Driver.compile (Dflow.Driver.Schema2_opt Dflow.Engine.Pipelined) p with
  | c -> c
  | exception (Dflow.Driver.Aliasing_unsupported _ | Cfg.Intervals.Irreducible _) ->
      Dflow.Driver.compile Dflow.Driver.Schema1 p

(* ------------------------------------------------------------------ *)
(* Placement                                                          *)

let test_placement_valid () =
  List.iter
    (fun (name, p) ->
      let c = compile_best p in
      List.iter
        (fun policy ->
          List.iter
            (fun pes ->
              let t = P.compute policy ~pes c.Dflow.Driver.graph in
              checki
                (Fmt.str "%s/%s/p%d: every node placed" name
                   (P.policy_to_string policy) pes)
                (Dfg.Graph.num_nodes c.Dflow.Driver.graph)
                (Array.length t.P.assign);
              Array.iter
                (fun pe ->
                  checkb "PE in range" true (pe >= 0 && pe < pes))
                t.P.assign;
              let t' = P.compute policy ~pes c.Dflow.Driver.graph in
              checkb "placement is deterministic" true (t.P.assign = t'.P.assign))
            [ 1; 3; 4 ])
        P.all_policies)
    (example_programs ())

let test_placement_stats () =
  let c = compile_best (Imp.Factory.sum_kernel ~n:4 ()) in
  let t = P.compute P.Round_robin ~pes:4 c.Dflow.Driver.graph in
  let s = P.stats c.Dflow.Driver.graph t in
  checki "every node counted once"
    (Dfg.Graph.num_nodes c.Dflow.Driver.graph)
    (Array.fold_left ( + ) 0 s.P.per_pe_nodes);
  checkb "cut fraction within [0,1]" true
    (s.P.cut_fraction >= 0.0 && s.P.cut_fraction <= 1.0);
  checkb "balance at least 1" true (s.P.balance >= 0.99);
  (* p=1 cuts nothing *)
  let t1 = P.compute P.Hash ~pes:1 c.Dflow.Driver.graph in
  checki "single PE has no cut arcs" 0
    (P.stats c.Dflow.Driver.graph t1).P.cut_arcs

let test_affinity_beats_hash_on_cut () =
  (* the point of the Affinity policy: fewer cut arcs than the
     structure-blind hash, aggregated over the example suite at p=4 *)
  let hash_cut = ref 0 and aff_cut = ref 0 in
  List.iter
    (fun (_, p) ->
      let g = (compile_best p).Dflow.Driver.graph in
      let cut pol = (P.stats g (P.compute pol ~pes:4 g)).P.cut_arcs in
      hash_cut := !hash_cut + cut P.Hash;
      aff_cut := !aff_cut + cut P.Affinity)
    (example_programs ());
  checkb
    (Fmt.str "affinity cut (%d) < hash cut (%d)" !aff_cut !hash_cut)
    true (!aff_cut < !hash_cut)

(* ------------------------------------------------------------------ *)
(* Network                                                            *)

let test_network_transport () =
  let cfg =
    { Net.latency = 3; bandwidth = 1; queue_capacity = Some 1; modules = None }
  in
  let n : string Net.t = Net.create ~config:cfg ~pes:2 () in
  Net.inject n ~src:0 ~dst:1 "a";
  Net.inject n ~src:0 ~dst:1 "b";
  Net.inject n ~src:0 ~dst:1 "c";
  let st = Net.stats n in
  checki "three messages" 3 st.Net.s_messages;
  checki "two enqueues found the queue full" 2 st.Net.s_backpressure;
  checki "all in transit" 3 (Net.in_transit n);
  (* bandwidth 1: one departure per cycle, arriving latency cycles on *)
  Net.step n ~now:0;
  checki "nothing arrives before the latency" 0
    (List.length (Net.arrivals n ~now:1));
  Alcotest.(check (list (pair int string)))
    "first message arrives at now+latency"
    [ (1, "a") ]
    (Net.arrivals n ~now:3);
  Net.step n ~now:3;
  Net.step n ~now:4;
  Alcotest.(check (list (pair int string)))
    "second departure" [ (1, "b") ] (Net.arrivals n ~now:6);
  Alcotest.(check (list (pair int string)))
    "third departure" [ (1, "c") ] (Net.arrivals n ~now:7);
  checki "network quiescent" 0 (Net.in_transit n)

let test_memory_interleaving () =
  let cfg = { Net.default with modules = Some 4 } in
  checki "addr 5 on module 1" 1 (Net.home_pe cfg ~pes:4 ~addr:5);
  checki "addr 6 on module 2" 2 (Net.home_pe cfg ~pes:4 ~addr:6);
  (* more modules than PEs: modules wrap round-robin over PEs *)
  checki "module 3 hangs off PE 1" 1 (Net.home_pe cfg ~pes:2 ~addr:3)

(* ------------------------------------------------------------------ *)
(* Determinacy: examples × placements × networks × PE counts          *)

let grid_stores_agree name (c : Dflow.Driver.compiled) reference =
  let prog = { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout } in
  let single = Machine.Interp.run_exn prog in
  checkb (name ^ ": single-PE machine agrees with reference") true
    (Imp.Memory.equal reference single.Machine.Interp.memory);
  List.iter
    (fun policy ->
      List.iter
        (fun (net_name, net) ->
          List.iter
            (fun pes ->
              let r = MP.run_exn ~net ~placement:policy ~pes prog in
              checkb
                (Fmt.str "%s: multiproc(%s, %s, p=%d) agrees with reference"
                   name (P.policy_to_string policy) net_name pes)
                true
                (Imp.Memory.equal reference r.MP.memory);
              checkb
                (Fmt.str "%s: multiproc(%s, %s, p=%d) agrees with single-PE"
                   name (P.policy_to_string policy) net_name pes)
                true
                (Imp.Memory.equal single.Machine.Interp.memory r.MP.memory))
            [ 1; 2; 4 ])
        net_grid)
    P.all_policies

let test_examples_determinate () =
  List.iter
    (fun (name, p) ->
      let c = compile_best p in
      let reference = Imp.Eval.run_program ~fuel:1_000_000 p in
      grid_stores_agree name c reference)
    (example_programs ())

(* ------------------------------------------------------------------ *)
(* Accounting invariants of one multiproc run                         *)

(* a firing log as rows, with its three curves *)
let log_rows log =
  let module T = Machine.Trace in
  ( List.init (T.length log) (fun i ->
        (T.node log i, T.ctx log i, T.cycle log i, T.pe log i, T.pred log i)),
    (T.parallelism_curve log, T.in_flight_curve log, T.matching_curve log) )

let test_multiproc_accounting () =
  let p = example "stencil" in
  let c = compile_best p in
  let prog = { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout } in
  let log = Machine.Trace.create () in
  let r = MP.run_exn ~placement:P.Affinity ~log ~pes:4 prog in
  checki "per-PE firings sum to the total" r.MP.firings
    (Array.fold_left ( + ) 0 r.MP.per_pe_firings);
  checkb "network saw traffic" true (r.MP.net_messages > 0);
  checkb "most tokens stayed local under affinity" true
    (r.MP.local_deliveries > r.MP.net_messages);
  checkb "cut traffic is the network share" true
    (r.MP.cut_traffic > 0.0 && r.MP.cut_traffic < 1.0);
  checkb "memory accesses all routed" true
    (r.MP.mem_local + r.MP.mem_remote = r.MP.memory_ops);
  checkb "diagnosis carries the network section" true
    (r.MP.diagnosis.Machine.Diagnosis.network <> None);
  (* the log: the profile sums to the firings, each firing sits on its
     placed PE, a chain is as long as the critical path, and peak
     matching (counted on insert) is at least every end-of-cycle
     sample *)
  let module T = Machine.Trace in
  checki "one entry per firing" r.MP.firings (T.length log);
  checki "profile sums to the firings" r.MP.firings
    (Array.fold_left ( + ) 0 (T.parallelism_curve log));
  checki "its peak is the running peak" r.MP.peak_parallelism
    (Array.fold_left max 0 (T.parallelism_curve log));
  checki "per-PE firings are the PE column's" r.MP.per_pe_firings.(3)
    (List.length
       (List.filter (fun i -> T.pe log i = 3) (List.init (T.length log) Fun.id)));
  checki "critical chain is the critical path" (T.critical_path log)
    (List.length (T.critical_chain log));
  checkb "peak matching bounds the curve" true
    (Array.for_all (fun m -> m <= r.MP.peak_matching) (T.matching_curve log));
  (* p=1 never touches the network *)
  let log1 = T.create () in
  let r1 = MP.run_exn ~placement:P.Hash ~log:log1 ~pes:1 prog in
  checki "p=1 sends no messages" 0 r1.MP.net_messages;
  checki "p=1 pays no remote accesses" 0 r1.MP.mem_remote;
  (* and writes the log the single PE issuing one firing a cycle writes *)
  let one_log = T.create () in
  let one =
    Machine.Interp.run ~config:(Machine.Config.bounded 1) ~log:one_log prog
  in
  checkb "p=1 observes the single PE's run" true
    (log_rows log1 = log_rows one_log
    && r1.MP.peak_parallelism = one.Machine.Interp.peak_parallelism
    && r1.MP.peak_in_flight = one.Machine.Interp.peak_in_flight
    && r1.MP.peak_matching = one.Machine.Interp.peak_matching
    && r1.MP.firings_by_kind = one.Machine.Interp.firings_by_kind
    && r1.MP.dummy_deliveries = one.Machine.Interp.dummy_deliveries
    && r1.MP.value_deliveries = one.Machine.Interp.value_deliveries)

let test_backpressure_counted_not_dropped () =
  (* a one-slot, one-per-cycle network under round-robin placement:
     heavy backpressure, yet nothing is lost and the store still
     agrees *)
  let p = example "stencil" in
  let reference = Imp.Eval.run_program ~fuel:1_000_000 p in
  let c = compile_best p in
  let prog = { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout } in
  let net =
    { Net.latency = 2; bandwidth = 1; queue_capacity = Some 1; modules = None }
  in
  let r = MP.run_exn ~net ~placement:P.Round_robin ~pes:4 prog in
  checkb "backpressure events recorded" true (r.MP.backpressure > 0);
  checkb "store agrees despite saturation" true
    (Imp.Memory.equal reference r.MP.memory);
  checki "no leftover tokens" 0 r.MP.leftover_tokens

(* ------------------------------------------------------------------ *)
(* Fault tolerance: reliable transport, fail-stop recovery, sanitizer *)

module F = Machine.Fault
module R = Machine.Recovery
module San = Machine.Sanitize

let test_transport_masks_link_faults () =
  (* seeded wire faults on every link; the sequence-numbered
     ack/retransmit transport must mask them all — same store, clean
     verdict, and the fault/retry counters on record *)
  let p = example "stencil" in
  let reference = Imp.Eval.run_program ~fuel:1_000_000 p in
  let c = compile_best p in
  let prog = { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout } in
  let faults =
    F.make (F.spec ~rate:0.05 ~classes:F.link_classes ~seed:7 ())
  in
  let r = MP.run_exn ~placement:P.Round_robin ~pes:4 ~faults prog in
  checkb "store agrees under link faults" true
    (Imp.Memory.equal reference r.MP.memory);
  checki "no leftover tokens" 0 r.MP.leftover_tokens;
  match r.MP.transport with
  | None -> Alcotest.fail "fault run must report transport stats"
  | Some st ->
      checkb "wire faults were injected" true (st.Net.r_wire_faults > 0);
      checkb "transport worked for its living" true
        (st.Net.r_retransmits > 0 || st.Net.r_dups_dropped > 0);
      checki "no undelivered payloads at quiescence" 0 st.Net.r_losses

let test_failstop_recovery () =
  (* kill PE 1 mid-run: the machine must roll back to the last epoch,
     remap the dead PE's nodes over the survivors, replay, and still
     produce the reference store — with the cost on record *)
  let p = example "stencil" in
  let reference = Imp.Eval.run_program ~fuel:1_000_000 p in
  let c = compile_best p in
  let prog = { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout } in
  let recovery =
    R.spec ~interval:25 ~failover:5 ~deaths:[ (30, 1) ] ()
  in
  let log = Machine.Trace.create () in
  let r = MP.run_exn ~placement:P.Affinity ~pes:4 ~recovery ~log prog in
  checkb "store agrees after fail-stop recovery" true
    (Imp.Memory.equal reference r.MP.memory);
  (match r.MP.recovery with
  | None -> Alcotest.fail "recovery run must report metrics"
  | Some m ->
      checki "one death" 1 m.R.m_deaths;
      checkb "the death forced a rollback" true (m.R.m_rollbacks >= 1);
      checkb "epoch checkpoints were taken" true (m.R.m_checkpoints >= 1);
      checkb "lost cycles accounted" true (m.R.m_lost_cycles > 0);
      (* the log rolled back with the epoch: it holds the firings of
         the run that survived, not the replayed ones *)
      checkb "replayed firings" true (m.R.m_replayed_firings > 0);
      checki "the log holds the surviving firings"
        (r.MP.firings - m.R.m_replayed_firings)
        (Machine.Trace.length log));
  (* the dead PE keeps none of its nodes and issues no firings after
     the remap replays everything it had done *)
  checkb "no node remains on the dead PE" true
    (Array.for_all (fun pe -> pe <> 1) r.MP.placement.P.assign)

let test_recovery_policy_units () =
  (* substitute: identity for the living, round-robin over survivors *)
  let alive = [| true; false; true; false |] in
  let s = R.substitute ~pes:4 ~alive in
  checkb "live PEs map to themselves" true (s.(0) = 0 && s.(2) = 2);
  checkb "dead PEs map to survivors" true
    (Array.for_all (fun pe -> alive.(pe)) (Array.map (fun i -> s.(i)) [| 1; 3 |]));
  checkb "dead PEs spread round-robin" true (s.(1) <> s.(3));
  (* remap: survivors keep their nodes, the dead PE's nodes rebalance *)
  let g = (compile_best (example "stencil")).Dflow.Driver.graph in
  let place = P.compute P.Hash ~pes:4 g in
  let alive = [| true; true; false; true |] in
  let place' = R.remap place ~alive in
  Array.iteri
    (fun n pe ->
      if pe <> 2 then checki "survivor keeps its node" pe place'.P.assign.(n)
      else checkb "dead PE's node moved to a survivor" true
        (alive.(place'.P.assign.(n))))
    place.P.assign;
  (* the one-deep journal keeps only the newest epoch *)
  let j = R.journal_create () in
  checkb "empty journal has no epoch" true (R.last j = None);
  R.record j ~cycle:10 "a";
  R.record j ~cycle:20 "b";
  checkb "journal keeps the newest epoch" true (R.last j = Some (20, "b"))

let test_sanitizer_double_fire () =
  let g = (compile_best (example "sum")).Dflow.Driver.graph in
  let ids = Machine.Context.table () in
  let cid = Machine.Context.id ids Machine.Context.toplevel in
  let san = San.create ~ids g in
  checkb "first fire is fine" true (San.on_fire_id san ~node:0 ~cid ~group:2 = None);
  (match San.on_fire_id san ~node:0 ~cid ~group:2 with
  | Some (San.Double_fire { df_node = 0; _ }) -> ()
  | _ -> Alcotest.fail "re-firing a (node, ctx) must trip the sanitizer");
  (* snapshot/restore: replayed firings must not read as double fires *)
  let snap = San.snapshot san in
  checkb "fresh (node, ctx) fires" true
    (San.on_fire_id san ~node:1 ~cid ~group:2 = None);
  San.restore san snap;
  checkb "restored sanitizer forgets post-snapshot fires" true
    (San.on_fire_id san ~node:1 ~cid ~group:2 = None);
  (match San.on_fire_id san ~node:0 ~cid ~group:2 with
  | Some (San.Double_fire _) -> ()
  | _ -> Alcotest.fail "restored sanitizer must remember pre-snapshot fires");
  (* a quiescent machine with waiting tokens is a leak *)
  checkb "store leak reported" true
    (List.exists
       (function San.Store_leak { sl_tokens = 3; _ } -> true | _ -> false)
       (San.at_quiescence san ~leftover:3));
  (* the per-PE breakdown keeps only the PEs actually hoarding tokens *)
  checkb "store leak per-PE breakdown" true
    (List.exists
       (function
         | San.Store_leak { sl_tokens = 3; sl_by_pe = [ (1, 2); (3, 1) ] } ->
             true
         | _ -> false)
       (San.at_quiescence san ~leftover:3
          ~by_pe:[ (0, 0); (1, 2); (2, 0); (3, 1) ]))

let test_sanitizer_multi_exit_clean () =
  (* a goto program whose loop leaves through one of several exit sites:
     the balance law must count activations (distinct contexts), not
     expect every exit gateway to fire — a clean run has no violations *)
  let c = compile_best (example "spaghetti") in
  let prog = { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout } in
  let r = Machine.Interp.run prog in
  Alcotest.(check (list string))
    "no sanitizer violations on a clean multi-exit run" []
    (List.map San.violation_to_string
       r.Machine.Interp.diagnosis.Machine.Diagnosis.sanitizer);
  (* and the fault-tolerant multiproc path quiesces without rollbacks *)
  let recovery = R.spec ~interval:25 () in
  let r = MP.run_exn ~placement:P.Affinity ~pes:4 ~recovery prog in
  match r.MP.recovery with
  | None -> Alcotest.fail "recovery metrics missing"
  | Some m -> checki "no spurious rollbacks" 0 m.R.m_rollbacks

(* ------------------------------------------------------------------ *)
(* Topologies: dimension-ordered routing and hierarchical placement   *)

module T = Sched.Topology
module Rt = Sched.Routing

let test_routing_hops () =
  (* 16 PEs factor as a 4x4 grid *)
  let mesh = T.make T.Mesh ~pes:16 in
  let torus = T.make T.Torus ~pes:16 in
  checki "mesh corner to corner" 6 (Rt.hops mesh 0 15);
  checki "torus wraps both dimensions" 2 (Rt.hops torus 0 15);
  checki "mesh along a row" 3 (Rt.hops mesh 0 3);
  checki "torus wraps the row" 1 (Rt.hops torus 0 3);
  checki "one mesh link" 1 (Rt.hops mesh 5 6);
  checki "hops to self" 0 (Rt.hops mesh 9 9);
  let cube = T.make T.Cube ~pes:8 in
  checki "cube antipodes" 3 (Rt.hops cube 0 7);
  checki "cube hamming distance" 2 (Rt.hops cube 5 6);
  let uni = T.make T.Uniform ~pes:16 in
  checki "uniform charges one hop" 1 (Rt.hops uni 0 15);
  (* distances are symmetric on every shape *)
  List.iter
    (fun t ->
      for src = 0 to 15 do
        for dst = 0 to 15 do
          checki "hops symmetric" (Rt.hops t src dst) (Rt.hops t dst src)
        done
      done)
    [ mesh; torus; uni ]

let test_routing_paths_and_neighbours () =
  let mesh = T.make T.Mesh ~pes:16 in
  let torus = T.make T.Torus ~pes:16 in
  let cube = T.make T.Cube ~pes:16 in
  List.iter
    (fun t ->
      for src = 0 to 15 do
        for dst = 0 to 15 do
          let p = Rt.path t src dst in
          checki "path length is the hop count" (Rt.hops t src dst)
            (List.length p);
          if src <> dst then
            checki "path ends at dst" dst (List.nth p (List.length p - 1));
          let prev = ref src in
          List.iter
            (fun pe ->
              checki "each step crosses one link" 1 (Rt.hops t !prev pe);
              prev := pe)
            p
        done
      done)
    [ mesh; torus; cube ];
  (* mesh corners have 2 links, interior PEs 4; the torus wraps the
     corner back to degree 4 *)
  Alcotest.(check (list int))
    "mesh corner neighbours" [ 1; 4 ] (Rt.neighbours mesh 0);
  checki "mesh interior degree" 4 (List.length (Rt.neighbours mesh 5));
  checki "torus corner degree" 4 (List.length (Rt.neighbours torus 0))

let test_hier_no_worse_than_hash_cut () =
  (* the point of hierarchical placement: on every committed example
     the arcs crossing a top-level region boundary never exceed the
     structure-blind hash cut *)
  let topo = T.make T.Mesh ~pes:16 in
  List.iter
    (fun (name, p) ->
      let c = compile_best p in
      let g = c.Dflow.Driver.graph in
      let hash_cut = (P.stats g (P.compute P.Hash ~pes:16 g)).P.cut_arcs in
      let hs = P.hier_stats ~tree:c.Dflow.Driver.ltree ~topo ~pes:16 g in
      checkb
        (Fmt.str "%s: hier top-level cut (%d) <= hash cut (%d)" name
           hs.Sched.Hplace.top_cut hash_cut)
        true
        (hs.Sched.Hplace.top_cut <= hash_cut))
    (example_programs ())

(* ------------------------------------------------------------------ *)
(* Work stealing: victim policy units and store preservation          *)

let test_steal_victim_selection () =
  let topo = T.make T.Mesh ~pes:16 in
  let spec = Sched.Steal.default in
  (* thief 5 = (1,1); PEs 6 and 9 are both one hop out — the tie goes
     to the lower index *)
  let ql = function 6 | 9 -> 5 | _ -> 0 in
  Alcotest.(check (option int))
    "nearest victim, tie to the lower index" (Some 6)
    (Sched.Steal.victim topo spec ~thief:5 ~queue_len:ql);
  (* a farther but only eligible queue wins *)
  let ql = function 15 -> 3 | _ -> 0 in
  Alcotest.(check (option int))
    "distance loses to eligibility" (Some 15)
    (Sched.Steal.victim topo spec ~thief:0 ~queue_len:ql);
  (* queues below min_victim are off limits, and so is the thief *)
  Alcotest.(check (option int))
    "short queues are not victims" None
    (Sched.Steal.victim topo spec ~thief:0 ~queue_len:(fun _ -> 1));
  Alcotest.(check (option int))
    "a PE never steals from itself" None
    (Sched.Steal.victim topo spec ~thief:3 ~queue_len:(fun pe ->
         if pe = 3 then 10 else 0))

let test_steal_moves_work_and_preserves_store () =
  let p = example "stencil" in
  let reference = Imp.Eval.run_program ~fuel:1_000_000 p in
  let c = compile_best p in
  let prog = { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout } in
  let topo = T.make T.Mesh ~pes:16 in
  let spec = { Sched.Steal.hysteresis = 1; min_victim = 1 } in
  let r =
    MP.run_exn ~tree:c.Dflow.Driver.ltree ~topo ~steal:spec ~placement:P.Hier
      ~pes:16 prog
  in
  checkb "work actually moved" true (r.MP.steals > 0);
  checkb "store agrees with the reference" true
    (Imp.Memory.equal reference r.MP.memory);
  checkb "every message crossed at least one link" true
    (r.MP.net_hops >= r.MP.net_messages);
  let r0 = MP.run_exn ~topo ~placement:P.Hash ~pes:16 prog in
  checki "no steals when stealing is off" 0 r0.MP.steals

(* ------------------------------------------------------------------ *)
(* The qcheck differential suite: ≥100 seeded random programs         *)

let small_cfg =
  {
    Workloads.Random_gen.default_config with
    num_vars = 4;
    num_arrays = 1;
    array_extent = 4;
    max_depth = 2;
    max_len = 3;
    loop_bound = 3;
  }

let arb_program =
  QCheck.make
    ~print:Imp.Pretty.program_to_string
    (Workloads.Random_gen.structured ~config:small_cfg)

let prop_multiproc_determinate (p : Imp.Ast.program) =
  let reference = Imp.Eval.run_program ~fuel:1_000_000 p in
  let c = compile_best p in
  let prog = { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout } in
  let single = Machine.Interp.run_exn prog in
  (* one PE issuing one firing a cycle: the single-PE and the network
     transport must keep one timing model *)
  let one_pe =
    Machine.Interp.run_exn ~config:(Machine.Config.bounded 1) prog
  in
  Imp.Memory.equal reference single.Machine.Interp.memory
  && List.for_all
       (fun policy ->
         List.for_all
           (fun (_, net) ->
             List.for_all
               (fun pes ->
                 let r = MP.run_exn ~net ~placement:policy ~pes prog in
                 Imp.Memory.equal reference r.MP.memory
                 && (pes <> 1
                    || r.MP.cycles = one_pe.Machine.Interp.cycles
                       && r.MP.firings = one_pe.Machine.Interp.firings
                       && r.MP.memory_ops = one_pe.Machine.Interp.memory_ops))
               [ 1; 2; 4 ])
           net_grid)
       P.all_policies

let qcheck_determinacy =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0xD1F0 |])
    (QCheck.Test.make ~name:"multiproc determinacy (random programs)"
       ~count:100 arb_program prop_multiproc_determinate)

(* Determinacy under work stealing at scale: stealing moves only
   fully-matched ready firings, so it may change where and when work
   runs but never the final store — across hundreds of PEs, both grid
   topologies, and both a structure-aware and a structure-blind
   placement.  An eager spec (hysteresis 1, min_victim 1) makes the
   thieves as disruptive as the policy allows. *)
let prop_steal_determinate (p : Imp.Ast.program) =
  let reference = Imp.Eval.run_program ~fuel:1_000_000 p in
  let c = compile_best p in
  let prog = { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout } in
  let tree = c.Dflow.Driver.ltree in
  let spec = { Sched.Steal.hysteresis = 1; min_victim = 1 } in
  List.for_all
    (fun kind ->
      List.for_all
        (fun placement ->
          List.for_all
            (fun pes ->
              let topo = T.make kind ~pes in
              let r =
                MP.run_exn ~tree ~topo ~steal:spec ~placement ~pes prog
              in
              Imp.Memory.equal reference r.MP.memory)
            [ 16; 64; 256 ])
        [ P.Hier; P.Hash ])
    [ T.Mesh; T.Torus ]

let qcheck_steal =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x57E4 |])
    (QCheck.Test.make
       ~name:"stealing preserves the store (random programs, p to 256)"
       ~count:100 arb_program prop_steal_determinate)

(* The recovery closure property: link faults plus one seeded fail-stop,
   and the recovered machine still lands on the reference store.  The
   fault seed is a pure function of the program text, so every
   counterexample replays. *)
let prop_recovery_determinate (p : Imp.Ast.program) =
  let reference = Imp.Eval.run_program ~fuel:1_000_000 p in
  let c = compile_best p in
  let prog = { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout } in
  let seed = 1 + (Hashtbl.hash (Imp.Pretty.program_to_string p) land 0xFFFF) in
  List.for_all
    (fun policy ->
      List.for_all
        (fun pes ->
          let faults =
            F.make (F.spec ~rate:0.01 ~classes:F.link_classes ~seed ())
          in
          let recovery =
            R.spec ~interval:40
              ~deaths:(R.seeded_deaths ~seed ~pes ~window:60)
              ()
          in
          let r = MP.run_exn ~placement:policy ~pes ~faults ~recovery prog in
          Imp.Memory.equal reference r.MP.memory)
        [ 2; 4; 8 ])
    [ P.Hash; P.Affinity ]

let qcheck_recovery =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0xFA17 |])
    (QCheck.Test.make
       ~name:"recovered faulty runs match the reference (random programs)"
       ~count:50 arb_program prop_recovery_determinate)

let () =
  Alcotest.run "multiproc"
    [
      ( "placement",
        [
          Alcotest.test_case "assignments valid" `Quick test_placement_valid;
          Alcotest.test_case "stats" `Quick test_placement_stats;
          Alcotest.test_case "affinity beats hash on cut" `Quick
            test_affinity_beats_hash_on_cut;
        ] );
      ( "network",
        [
          Alcotest.test_case "latency, bandwidth, backpressure" `Quick
            test_network_transport;
          Alcotest.test_case "memory interleaving" `Quick
            test_memory_interleaving;
        ] );
      ( "determinacy",
        [
          Alcotest.test_case "example suite grid" `Quick
            test_examples_determinate;
          qcheck_determinacy;
          qcheck_steal;
        ] );
      ( "sched",
        [
          Alcotest.test_case "dimension-ordered hop counts" `Quick
            test_routing_hops;
          Alcotest.test_case "paths and neighbours" `Quick
            test_routing_paths_and_neighbours;
          Alcotest.test_case "hier top-level cut never beats hash" `Quick
            test_hier_no_worse_than_hash_cut;
          Alcotest.test_case "steal victim selection" `Quick
            test_steal_victim_selection;
          Alcotest.test_case "stealing moves work, store unchanged" `Quick
            test_steal_moves_work_and_preserves_store;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "counters and curves" `Quick
            test_multiproc_accounting;
          Alcotest.test_case "backpressure counted, not dropped" `Quick
            test_backpressure_counted_not_dropped;
        ] );
      ( "fault-tolerance",
        [
          Alcotest.test_case "transport masks link faults" `Quick
            test_transport_masks_link_faults;
          Alcotest.test_case "fail-stop recovery replays to the reference"
            `Quick test_failstop_recovery;
          Alcotest.test_case "recovery policy units" `Quick
            test_recovery_policy_units;
          Alcotest.test_case "sanitizer catches a double fire" `Quick
            test_sanitizer_double_fire;
          Alcotest.test_case "sanitizer clean on multi-exit loops" `Quick
            test_sanitizer_multi_exit_clean;
          qcheck_recovery;
        ] );
    ]

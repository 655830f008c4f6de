(** The optimized direct construction (paper, Section 4.2): a dataflow
    graph with no redundant switches, built from switch-placement
    information (Figure 10) and source vectors (Figure 11).

    Differences from the track-everything {!Engine}:

    - a fork gets a switch for [access_x] only when some node referencing
      [x] lies between the fork and its immediate postdominator
      (Theorem 1: iff the fork is in CD⁺ of such a node);
    - joins get a merge for [access_x] only when the source vector has
      more than one element -- a single-source join is no operator at all;
    - access tokens bypass entire loops that do not need them: loop entry
      and exit nodes manage only the loop's variable set.

    The loop variable set is a least fixpoint, not just the syntactically
    referenced variables: if a fork {e inside} the loop needs a switch for
    [x] (possible with multi-exit loops, where a post-loop consumer is
    control dependent on an in-loop fork), then [x]'s token participates
    in the iteration and must be context-managed by the loop's entry and
    exits.  The paper's presentation leaves this implicit in the
    loop-control black boxes; the fixpoint below makes it explicit. *)

module B = Dfg.Graph.Builder

type source = int * bool
(** CFG-level token source: (node, out-direction). *)

(** [loop_var_sets lp ~vars] computes the per-loop managed-variable
    fixpoint described above.  Returns the sets plus the final switch
    placement computed against them. *)
let loop_var_sets (lp : Cfg.Loopify.t) ~(vars : string list) :
    string list array * Analysis.Switch_place.t =
  let g = lp.Cfg.Loopify.graph in
  let nloops = Array.length lp.Cfg.Loopify.loops in
  let varset =
    Array.init nloops (fun l -> lp.Cfg.Loopify.loops.(l).Cfg.Loopify.vars)
  in
  let refs n =
    match Cfg.Core.kind g n with
    | Cfg.Core.Loop_entry l | Cfg.Core.Loop_exit l -> varset.(l)
    | _ -> Cfg.Core.referenced_vars g n
  in
  let placement = ref (Analysis.Switch_place.compute ~refs g ~vars) in
  let changed = ref true in
  while !changed do
    changed := false;
    (* 1. close under body references (nested entries/exits included) *)
    for l = 0 to nloops - 1 do
      let s =
        List.concat_map refs lp.Cfg.Loopify.loops.(l).Cfg.Loopify.body
        |> List.sort_uniq compare
      in
      if s <> varset.(l) then begin
        varset.(l) <- s;
        changed := true
      end
    done;
    (* 2. recompute placement against the current reference map *)
    placement := Analysis.Switch_place.compute ~refs g ~vars;
    (* 3. variables switched at an in-body fork must be loop-managed *)
    for l = 0 to nloops - 1 do
      let extra =
        List.concat_map
          (fun n ->
            if Cfg.Core.is_fork g n then
              List.filter
                (fun x -> Analysis.Switch_place.needs_switch !placement n x)
                vars
            else [])
          lp.Cfg.Loopify.loops.(l).Cfg.Loopify.body
      in
      let s = List.sort_uniq compare (extra @ varset.(l)) in
      if s <> varset.(l) then begin
        varset.(l) <- s;
        changed := true
      end
    done
  done;
  (varset, !placement)

(* Topological order of the loopified CFG ignoring back edges (edges from
   a loop body into that loop's entry). *)
let forward_topo (lp : Cfg.Loopify.t) : int list =
  let g = lp.Cfg.Loopify.graph in
  let nn = Cfg.Core.num_nodes g in
  let is_back u v =
    match Cfg.Core.kind g v with
    | Cfg.Core.Loop_entry l -> lp.Cfg.Loopify.in_body.(l).(u)
    | _ -> false
  in
  let indeg = Array.make nn 0 in
  for u = 0 to nn - 1 do
    List.iter
      (fun e ->
        if not (is_back u e.Cfg.Core.dst) then
          indeg.(e.Cfg.Core.dst) <- indeg.(e.Cfg.Core.dst) + 1)
      (Cfg.Core.succ g u)
  done;
  let q = Queue.create () in
  Queue.add g.Cfg.Core.start q;
  let out = ref [] in
  let seen = ref 0 in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    out := u :: !out;
    incr seen;
    List.iter
      (fun e ->
        let v = e.Cfg.Core.dst in
        if not (is_back u v) then begin
          indeg.(v) <- indeg.(v) - 1;
          if indeg.(v) = 0 then Queue.add v q
        end)
      (Cfg.Core.succ g u)
  done;
  if !seen <> nn then
    invalid_arg "Optimized.forward_topo: graph not reducible after loopify";
  List.rev !out

(** [translate ?loop_control lp ~vars] builds the optimized dataflow
    graph for the loopified CFG [lp] with one access token per variable
    (the Section 4 construction; aliasing-free programs). *)
let translate ?(loop_control = Engine.Barrier) ?(mode = Statement.default_mode)
    ?(value_vars : string list = [])
    ?(merge_report : (int * string) list ref option) (lp : Cfg.Loopify.t)
    ~(vars : string list) : Dfg.Graph.t =
  let g = lp.Cfg.Loopify.graph in
  let vars = List.sort_uniq compare vars in
  if vars = [] then
    (* degenerate variable-free program: fall back to a single token *)
    Engine.translate ~loop_control ~tokens:Token_map.single ~loops:lp g
  else
  let mode =
    { mode with Statement.value_vars = (fun x -> List.mem x value_vars) }
  in
  let tokens = Token_map.per_variable vars in
  let nvars = Token_map.arity tokens in
  let var_index =
    let h = Hashtbl.create 16 in
    List.iteri (fun i x -> Hashtbl.replace h x i) vars;
    fun x -> Hashtbl.find h x
  in
  let varset, placement = loop_var_sets lp ~vars in
  let b = B.create () in
  let nn = Cfg.Core.num_nodes g in
  (* source vectors and back-edge source vectors *)
  let sv : source list array array = Array.make_matrix nn nvars [] in
  let svback : source list array array = Array.make_matrix nn nvars [] in
  let add_source arr n x (s : source) =
    let i = var_index x in
    if not (List.mem s arr.(n).(i)) then arr.(n).(i) <- arr.(n).(i) @ [ s ]
  in
  let union_sources arr n x (ss : source list) =
    List.iter (add_source arr n x) ss
  in
  let is_back u v =
    match Cfg.Core.kind g v with
    | Cfg.Core.Loop_entry l -> lp.Cfg.Loopify.in_body.(l).(u)
    | _ -> false
  in
  (* CFG-level source -> DFG terminal; filled as nodes are built *)
  let out_term : (int * string * bool, Statement.terminal) Hashtbl.t =
    Hashtbl.create 64
  in
  let term_of x ((m, d) : source) : Statement.terminal =
    match Hashtbl.find_opt out_term (m, x, d) with
    | Some t -> t
    | None ->
        invalid_arg
          (Fmt.str "no terminal for access_%s at node %d dir %b" x m d)
  in
  (* Feed sources into input ports (merge when several sources).
     [ports] receive the variable's token permission; [untagged] ports
     (constant triggers) are activated without it. *)
  let feed x (sources : source list) ?(untagged = [])
      (ports : Statement.terminal list) : unit =
    if ports <> [] || untagged <> [] then begin
      let tau = var_index x in
      let src =
        match sources with
        | [] ->
            invalid_arg (Fmt.str "no sources for access_%s" x)
        | [ s ] -> term_of x s
        | many ->
            let m = B.add b ~label:("merge " ^ x) Dfg.Node.Merge in
            List.iter
              (fun s ->
                B.connect b ~dummy:true ~tokens:[ tau ] (term_of x s) (m, 0))
              many;
            (m, 0)
      in
      List.iter (fun p -> B.connect b ~dummy:true ~tokens:[ tau ] src p) ports;
      List.iter (fun p -> B.connect b ~dummy:true src p) untagged
    end
  in
  (* propagate [srcs] for x to successor S of N along direction d *)
  let propagate n x srcs =
    List.iter
      (fun e ->
        let s = e.Cfg.Core.dst in
        if is_back n s then union_sources svback s x srcs
        else union_sources sv s x srcs)
      (Cfg.Core.succ g n)
  in
  let propagate_dir n dir x srcs =
    List.iter
      (fun e ->
        if e.Cfg.Core.dir = dir then begin
          let s = e.Cfg.Core.dst in
          if is_back n s then union_sources svback s x srcs
          else union_sources sv s x srcs
        end)
      (Cfg.Core.succ g n)
  in
  (* deferred wiring of loop-entry back ports, done after the pass *)
  let deferred_back : (int * string * Statement.terminal) list ref = ref [] in
  let order = forward_topo lp in
  let end_node = ref (-1) in
  List.iter
    (fun n ->
      match Cfg.Core.kind g n with
      | Cfg.Core.Start ->
          let s = B.add b (Dfg.Node.Start nvars) in
          List.iteri
            (fun i x ->
              if List.mem x value_vars then begin
                (* value-passing prologue: the initial token carries the
                   variable's initial value, 0 *)
                let c =
                  B.add b
                    ~label:("initial " ^ x)
                    (Dfg.Node.Const (Imp.Value.Int 0))
                in
                B.connect b ~dummy:true (s, i) (c, 0);
                Hashtbl.replace out_term (n, x, true) (c, 0)
              end
              else Hashtbl.replace out_term (n, x, true) (s, i))
            vars;
          (* start's true successor gets start as source for every
             variable; the conventional start->end edge carries nothing *)
          List.iter (fun x -> propagate_dir n true x [ (n, true) ]) vars
      | Cfg.Core.End ->
          let e = B.add b (Dfg.Node.End nvars) in
          end_node := e;
          List.iteri
            (fun i x ->
              if List.mem x value_vars then begin
                (* value-passing epilogue: write the final value back *)
                let st =
                  B.add b
                    ~label:("writeback " ^ x)
                    (Dfg.Node.Store
                       { var = x; indexed = false; mem = Dfg.Node.Plain })
                in
                let src =
                  match sv.(n).(var_index x) with
                  | [ s ] -> term_of x s
                  | many ->
                      let m = B.add b Dfg.Node.Merge in
                      List.iter
                        (fun s ->
                          B.connect b ~dummy:true (term_of x s) (m, 0))
                        many;
                      (m, 0)
                in
                B.connect b ~dummy:true src (st, 0);
                B.connect b src (st, 1);
                B.connect b ~dummy:true (st, 0) (e, i)
              end
              else feed x sv.(n).(var_index x) [ (e, i) ])
            vars
      | Cfg.Core.Assign (lv, rhs) ->
          let chain = Statement.assign b ~tokens ~mode lv rhs in
          List.iter
            (fun x ->
              let i = var_index x in
              if
                chain.Statement.entries.(i) <> []
                || chain.Statement.untagged.(i) <> []
              then begin
                feed x sv.(n).(i)
                  ~untagged:chain.Statement.untagged.(i)
                  chain.Statement.entries.(i);
                match chain.Statement.exits.(i) with
                | Some t ->
                    Hashtbl.replace out_term (n, x, true) t;
                    propagate n x [ (n, true) ]
                | None ->
                    (* detached operations took a copy; the token itself
                       passes through *)
                    propagate n x sv.(n).(i)
              end
              else propagate n x sv.(n).(i))
            vars
      | Cfg.Core.Fork p ->
          let cd = placement.Analysis.Switch_place.cdeps in
          let pdom = cd.Analysis.Control_dep.pdom in
          let ipdom = Analysis.Dom.idom pdom n in
          let switched =
            List.filter
              (fun x -> Analysis.Switch_place.needs_switch placement n x)
              vars
          in
          let switched_idx = List.map var_index switched in
          if switched = [] then
            (* a fork that switches nothing is dead for dataflow purposes
               (e.g. both branches reach the same join): no predicate is
               evaluated, and every token skips to the postdominator *)
            List.iter
              (fun x ->
                if is_back n ipdom then
                  union_sources svback ipdom x sv.(n).(var_index x)
                else union_sources sv ipdom x sv.(n).(var_index x))
              vars
          else begin
          let fc =
            Statement.fork b ~tokens ~mode ~switched:switched_idx p
          in
          List.iter
            (fun x ->
              let i = var_index x in
              if
                fc.Statement.f_entries.(i) <> []
                || fc.Statement.f_untagged.(i) <> []
              then
                feed x sv.(n).(i)
                  ~untagged:fc.Statement.f_untagged.(i)
                  fc.Statement.f_entries.(i);
              match fc.Statement.f_outs.(i) with
              | Statement.F_switched (t, f) ->
                  Hashtbl.replace out_term (n, x, true) t;
                  Hashtbl.replace out_term (n, x, false) f;
                  propagate_dir n true x [ (n, true) ];
                  propagate_dir n false x [ (n, false) ]
              | Statement.F_straight t ->
                  (* read by the predicate but not switched: flows
                     directly to the immediate postdominator *)
                  Hashtbl.replace out_term (n, x, true) t;
                  if is_back n ipdom then
                    union_sources svback ipdom x [ (n, true) ]
                  else union_sources sv ipdom x [ (n, true) ]
              | Statement.F_pass ->
                  (* untouched: sources skip to the postdominator *)
                  if is_back n ipdom then
                    union_sources svback ipdom x sv.(n).(i)
                  else union_sources sv ipdom x sv.(n).(i))
            vars
          end
      | Cfg.Core.Join ->
          List.iter
            (fun x ->
              let i = var_index x in
              match sv.(n).(i) with
              | [] -> ()
              | [ s ] -> propagate n x [ s ]  (* no operator *)
              | many ->
                  (match merge_report with
                  | Some r -> r := (n, x) :: !r
                  | None -> ());
                  let m =
                    B.add b ~label:("merge " ^ x) Dfg.Node.Merge
                  in
                  List.iter
                    (fun s ->
                      B.connect b ~dummy:true ~tokens:[ i ] (term_of x s)
                        (m, 0))
                    many;
                  Hashtbl.replace out_term (n, x, true) (m, 0);
                  propagate n x [ (n, true) ])
            vars
      | Cfg.Core.Loop_entry l ->
          let managed = varset.(l) in
          let k = List.length managed in
          let ports =
            match loop_control with
            | Engine.Barrier ->
                let nd =
                  B.add b
                    ~label:("loop-entry " ^ string_of_int l ^ " (barrier)")
                    (Dfg.Node.Loop_entry { loop = l; arity = k })
                in
                List.mapi
                  (fun j x -> (x, (nd, j), (nd, k + j), (nd, j)))
                  managed
            | Engine.Pipelined ->
                List.map
                  (fun x ->
                    let nd =
                      B.add b
                        ~label:("loop-entry " ^ string_of_int l ^ " (" ^ x ^ ")")
                        (Dfg.Node.Loop_entry { loop = l; arity = 1 })
                    in
                    (x, (nd, 0), (nd, 1), (nd, 0)))
                  managed
          in
          List.iter
            (fun (x, initial_port, back_port, out) ->
              feed x sv.(n).(var_index x) [ initial_port ];
              deferred_back := (n, x, back_port) :: !deferred_back;
              Hashtbl.replace out_term (n, x, true) out;
              propagate n x [ (n, true) ])
            ports;
          (* unmanaged variables bypass the loop *)
          List.iter
            (fun x ->
              if not (List.mem x managed) then
                propagate n x sv.(n).(var_index x))
            vars
      | Cfg.Core.Loop_exit l ->
          let managed = varset.(l) in
          let k = List.length managed in
          let ports =
            match loop_control with
            | Engine.Barrier ->
                let nd =
                  B.add b
                    ~label:("loop-exit " ^ string_of_int l ^ " (barrier)")
                    (Dfg.Node.Loop_exit { loop = l; arity = k })
                in
                List.mapi (fun j x -> (x, (nd, j), (nd, j))) managed
            | Engine.Pipelined ->
                List.map
                  (fun x ->
                    let nd =
                      B.add b
                        ~label:("loop-exit " ^ string_of_int l ^ " (" ^ x ^ ")")
                        (Dfg.Node.Loop_exit { loop = l; arity = 1 })
                    in
                    (x, (nd, 0), (nd, 0)))
                  managed
          in
          List.iter
            (fun (x, in_port, out) ->
              feed x sv.(n).(var_index x) [ in_port ];
              Hashtbl.replace out_term (n, x, true) out;
              propagate n x [ (n, true) ])
            ports;
          List.iter
            (fun x ->
              if not (List.mem x managed) then
                propagate n x sv.(n).(var_index x))
            vars)
    order;
  (* wire the loop-entry back ports now that every body node is built *)
  List.iter
    (fun (n, x, port) -> feed x svback.(n).(var_index x) [ port ])
    !deferred_back;
  B.finish b

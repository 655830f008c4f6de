(** The track-everything translation engine: Schemas 1, 2 and 3, plus the
    Section 6 parallelizing transformations.

    Under these schemas every access token follows the full control path:
    forks switch {e all} tokens, joins merge all tokens, loop entries and
    exits manage all tokens (paper, Sections 2.3, 3 and 5).  The schemas
    differ only in the token universe ({!Token_map}):

    - {!Token_map.single}       -> Schema 1,
    - {!Token_map.per_variable} -> Schema 2,
    - {!Token_map.of_cover}     -> Schema 3.

    Cyclic graphs must be loop-controlled first ({!Cfg.Loopify}); passing
    a cyclic graph without loop information produces the Figure 8
    pathology -- a graph whose execution violates the single-token-per-arc
    discipline, which the machine then detects.  Loop control comes in two
    strategies: [Barrier] implements the paper's black-box contract (the
    complete token set enters and leaves each loop-control node together);
    [Pipelined] gives each token its own gateway, allowing a variable's
    token to advance to the next iteration as soon as its own operations
    and the loop predicate allow.

    Section 6 hooks:
    - [mode] is passed to the statement compiler (value passing, parallel
      reads, I-structures);
    - [value_tokens] lists (token, variable) pairs whose token carries the
      variable's value: the engine emits a [Const 0] prologue (variables
      start at zero) and a write-back store epilogue so the final memory
      is observable;
    - [async_arrays] lists (loop, array) pairs proven store-independent
      (Fig. 14): the array's store detaches from its token, and a fresh
      {e completion token} per pair circulates with the loop, synchronised
      with each iteration's store; the array's token is released from the
      loop exit only once all stores have completed. *)

type loop_control =
  | Barrier  (** one arity-k gateway per loop: iteration-boundary barrier *)
  | Pipelined  (** k arity-1 gateways: tokens advance independently *)

module B = Dfg.Graph.Builder

type seg =
  | S_start of int  (** the Start node *)
  | S_end of int  (** the End node *)
  | S_chain of Statement.chain
  | S_fork of Statement.fork_chain
  | S_join of Statement.terminal array  (** per token: the merge node port *)
  | S_entry of {
      e_initial : Statement.terminal array;
      e_back : Statement.terminal array;
      e_outs : Statement.terminal array;
    }
  | S_exit of {
      x_ins : Statement.terminal array;
      x_outs : Statement.terminal array;
    }

exception Unsupported of string

let translate ?(loop_control = Barrier) ?(mode = Statement.default_mode)
    ?(value_tokens : (int * string) list = [])
    ?(async_arrays : (int * string) list = []) ~(tokens : Token_map.t)
    ?(loops : Cfg.Loopify.t option) (g : Cfg.Core.t) : Dfg.Graph.t =
  (* Extend the universe with one completion token per async pair. *)
  let base_k = Token_map.arity tokens in
  let tokens =
    if async_arrays = [] then tokens
    else
      {
        tokens with
        Token_map.names =
          Array.append tokens.Token_map.names
            (Array.of_list
               (List.map
                  (fun (l, x) -> "completion_" ^ x ^ "_loop" ^ string_of_int l)
                  async_arrays));
      }
  in
  let comp_index =
    let table = List.mapi (fun j lx -> (lx, base_k + j)) async_arrays in
    fun lx -> List.assoc lx table
  in
  let k = Token_map.arity tokens in
  let b = B.create () in
  let all_tokens = Token_map.all tokens in
  let in_body l n =
    match loops with
    | Some t -> t.Cfg.Loopify.in_body.(l).(n)
    | None -> raise (Unsupported "loop-control node without loop information")
  in
  let nn = Cfg.Core.num_nodes g in
  (* Build every node's internal segment. *)
  let segs =
    Array.init nn (fun v ->
        match Cfg.Core.kind g v with
        | Cfg.Core.Start -> S_start (B.add b (Dfg.Node.Start k))
        | Cfg.Core.End -> S_end (B.add b (Dfg.Node.End k))
        | Cfg.Core.Assign (lv, e) -> (
            (* Is this the independent array store of an async pair? *)
            let marked =
              match (lv, loops) with
              | Imp.Ast.Lindex (x, _), Some lp ->
                  List.find_opt
                    (fun (l, ax) ->
                      ax = x && lp.Cfg.Loopify.in_body.(l).(v))
                    async_arrays
              | _ -> None
            in
            match marked with
            | None -> S_chain (Statement.assign b ~tokens ~mode lv e)
            | Some (l, x) ->
                let mode' =
                  { mode with Statement.async_stores = (fun y -> y = x) }
                in
                let chain = Statement.assign b ~tokens ~mode:mode' lv e in
                (* Figure 14(b/c): the store's completion synchronises
                   with the circulating completion token. *)
                let completion = List.assoc x chain.Statement.async in
                let s = B.add b ~label:"store completed" (Dfg.Node.Synch 2) in
                B.connect b ~dummy:true completion (s, 1);
                let comp = comp_index (l, x) in
                chain.Statement.entries.(comp) <-
                  chain.Statement.entries.(comp) @ [ (s, 0) ];
                chain.Statement.exits.(comp) <- Some (s, 0);
                S_chain chain)
        | Cfg.Core.Fork p ->
            S_fork (Statement.fork b ~tokens ~mode ~switched:all_tokens p)
        | Cfg.Core.Join ->
            S_join
              (Array.init k (fun _ ->
                   let m = B.add b Dfg.Node.Merge in
                   (m, 0)))
        | Cfg.Core.Loop_entry l -> (
            match loop_control with
            | Barrier ->
                let n =
                  B.add b
                    ~label:("loop-entry " ^ string_of_int l ^ " (barrier)")
                    (Dfg.Node.Loop_entry { loop = l; arity = k })
                in
                S_entry
                  {
                    e_initial = Array.init k (fun i -> (n, i));
                    e_back = Array.init k (fun i -> (n, k + i));
                    e_outs = Array.init k (fun i -> (n, i));
                  }
            | Pipelined ->
                let gates =
                  Array.init k (fun i ->
                      B.add b
                        ~label:
                          ("loop-entry " ^ string_of_int l ^ " ("
                          ^ Token_map.name tokens i ^ ")")
                        (Dfg.Node.Loop_entry { loop = l; arity = 1 }))
                in
                S_entry
                  {
                    e_initial = Array.map (fun n -> (n, 0)) gates;
                    e_back = Array.map (fun n -> (n, 1)) gates;
                    e_outs = Array.map (fun n -> (n, 0)) gates;
                  })
        | Cfg.Core.Loop_exit l ->
            let mk_exit () =
              match loop_control with
              | Barrier ->
                  let n =
                    B.add b
                      ~label:("loop-exit " ^ string_of_int l ^ " (barrier)")
                      (Dfg.Node.Loop_exit { loop = l; arity = k })
                  in
                  ( Array.init k (fun i -> (n, i)),
                    Array.init k (fun i -> (n, i)) )
              | Pipelined ->
                  let gates =
                    Array.init k (fun i ->
                        B.add b
                          ~label:
                            ("loop-exit " ^ string_of_int l ^ " ("
                            ^ Token_map.name tokens i ^ ")")
                          (Dfg.Node.Loop_exit { loop = l; arity = 1 }))
                  in
                  ( Array.map (fun n -> (n, 0)) gates,
                    Array.map (fun n -> (n, 0)) gates )
            in
            let x_ins, x_outs = mk_exit () in
            (* Release an async array's token only when every store has
               completed: synch it with the completion token at the loop
               boundary. *)
            List.iter
              (fun (al, ax) ->
                if al = l then begin
                  let comp = comp_index (al, ax) in
                  let xtau =
                    match tokens.Token_map.access_set ax with
                    | [ tau ] -> tau
                    | _ ->
                        raise
                          (Unsupported
                             "async arrays need a private access token")
                  in
                  let s =
                    B.add b ~label:("all stores of " ^ ax ^ " done")
                      (Dfg.Node.Synch 2)
                  in
                  B.connect b ~dummy:true x_outs.(xtau) (s, 0);
                  B.connect b ~dummy:true x_outs.(comp) (s, 1);
                  x_outs.(xtau) <- (s, 0);
                  x_outs.(comp) <- (s, 0)
                end)
              async_arrays;
            S_exit { x_ins; x_outs })
  in
  (* Value-passing prologue: the initial token of a value variable is its
     initial value, 0, triggered by the start token. *)
  let start_term = Array.make k None in
  (match segs.(g.Cfg.Core.start) with
  | S_start n ->
      List.iter
        (fun (tau, x) ->
          let c =
            B.add b
              ~label:("initial " ^ x)
              (Dfg.Node.Const (Imp.Value.Int 0))
          in
          B.connect b ~dummy:true (n, tau) (c, 0);
          start_term.(tau) <- Some (c, 0))
        value_tokens
  | _ -> assert false);
  (* Resolve the output terminal of (node, out-direction, token),
     following pass-throughs backwards. *)
  let rec resolve (u : int) (dir : bool) (tau : int) : Statement.terminal =
    match segs.(u) with
    | S_start n -> (
        match start_term.(tau) with Some t -> t | None -> (n, tau))
    | S_end _ -> invalid_arg "resolve: End has no outputs"
    | S_join ports ->
        let m, _ = ports.(tau) in
        (m, 0)
    | S_entry e -> e.e_outs.(tau)
    | S_exit x -> x.x_outs.(tau)
    | S_fork f -> (
        match f.Statement.f_outs.(tau) with
        | Statement.F_switched (t, fl) -> if dir then t else fl
        | Statement.F_straight _ | Statement.F_pass ->
            (* everywhere-mode forks switch every token *)
            assert false)
    | S_chain c -> (
        match c.Statement.exits.(tau) with
        | Some t -> t
        | None -> resolve_through_preds u tau)
  and resolve_through_preds u tau =
    match Cfg.Core.pred g u with
    | [ (p, d) ] -> resolve p d tau
    | _ ->
        invalid_arg
          (Fmt.str "pass-through node %d has %d predecessors" u
             (List.length (Cfg.Core.pred g u)))
  in
  (* Feed a list of source terminals into a set of input ports: a single
     source fans out directly; several sources are funnelled through a
     merge first.  [ports] receive token [tau]'s permission (labelled
     arcs); [untagged] ports (constant triggers) are activated by the
     same token but carry none. *)
  let feed (tau : int) (sources : Statement.terminal list)
      ?(untagged = []) (ports : Statement.terminal list) : unit =
    if ports <> [] || untagged <> [] then begin
      let src =
        match sources with
        | [] -> invalid_arg "feed: no sources"
        | [ s ] -> s
        | many ->
            let m = B.add b Dfg.Node.Merge in
            List.iter
              (fun s -> B.connect b ~dummy:true ~tokens:[ tau ] s (m, 0))
              many;
            (m, 0)
      in
      List.iter (fun p -> B.connect b ~dummy:true ~tokens:[ tau ] src p) ports;
      List.iter (fun p -> B.connect b ~dummy:true src p) untagged
    end
  in
  (* Wire every node's inputs from its predecessors. *)
  for v = 0 to nn - 1 do
    let preds = Cfg.Core.pred g v in
    let sources_for tau (ps : (int * bool) list) =
      List.map (fun (u, d) -> resolve u d tau) ps
    in
    match segs.(v) with
    | S_start _ -> ()
    | S_end n ->
        (* the conventional start->end edge (start's false direction)
           carries no tokens: Start emits only along true *)
        let preds =
          List.filter
            (fun (u, d) -> not (u = g.Cfg.Core.start && d = false))
            preds
        in
        List.iter
          (fun tau ->
            let sources = sources_for tau preds in
            match List.assoc_opt tau value_tokens with
            | Some x ->
                (* value-passing epilogue: write the final value back so
                   the store is observable *)
                let st =
                  B.add b
                    ~label:("writeback " ^ x)
                    (Dfg.Node.Store
                       { var = x; indexed = false; mem = Dfg.Node.Plain })
                in
                let src =
                  match sources with
                  | [ s ] -> s
                  | many ->
                      let m = B.add b Dfg.Node.Merge in
                      List.iter
                        (fun s -> B.connect b ~dummy:true s (m, 0))
                        many;
                      (m, 0)
                in
                (* the value token is both the access permission and the
                   value: Section 6.1's collapse of the two roles *)
                B.connect b ~dummy:true src (st, 0);
                B.connect b src (st, 1);
                B.connect b ~dummy:true (st, 0) (n, tau)
            | None -> feed tau sources [ (n, tau) ])
          all_tokens
    | S_join ports ->
        List.iter
          (fun tau ->
            (* merges accept several arcs on their single port directly *)
            List.iter
              (fun s -> B.connect b ~dummy:true ~tokens:[ tau ] s ports.(tau))
              (sources_for tau preds))
          all_tokens
    | S_chain c ->
        List.iter
          (fun tau ->
            if
              c.Statement.entries.(tau) <> []
              || c.Statement.untagged.(tau) <> []
            then
              feed tau (sources_for tau preds)
                ~untagged:c.Statement.untagged.(tau)
                c.Statement.entries.(tau))
          all_tokens
    | S_fork f ->
        List.iter
          (fun tau ->
            if
              f.Statement.f_entries.(tau) <> []
              || f.Statement.f_untagged.(tau) <> []
            then
              feed tau (sources_for tau preds)
                ~untagged:f.Statement.f_untagged.(tau)
                f.Statement.f_entries.(tau))
          all_tokens
    | S_entry e ->
        let l =
          match Cfg.Core.kind g v with
          | Cfg.Core.Loop_entry l -> l
          | _ -> assert false
        in
        let initial_preds, back_preds =
          List.partition (fun (u, _) -> not (in_body l u)) preds
        in
        List.iter
          (fun tau ->
            feed tau (sources_for tau initial_preds) [ e.e_initial.(tau) ];
            feed tau (sources_for tau back_preds) [ e.e_back.(tau) ])
          all_tokens
    | S_exit x ->
        List.iter
          (fun tau -> feed tau (sources_for tau preds) [ x.x_ins.(tau) ])
          all_tokens
  done;
  B.finish b

(** [schema1 g] -- Figure 3's translation: one access token sequencing
    everything.  Works on the plain (non-loopified) CFG: sequential
    execution needs no loop control. *)
let schema1 ?mode (g : Cfg.Core.t) : Dfg.Graph.t =
  translate ?mode ~tokens:Token_map.single g

(** [schema2 ?loop_control lp] -- Figure 6's translation over a loopified
    CFG, one token per variable.  Assumes no aliasing (paper, Section 3);
    use {!schema3} otherwise. *)
let schema2 ?loop_control ?mode ?value_tokens ?async_arrays
    (lp : Cfg.Loopify.t) ~(vars : string list) : Dfg.Graph.t =
  translate ?loop_control ?mode ?value_tokens ?async_arrays
    ~tokens:(Token_map.per_variable vars) ~loops:lp lp.Cfg.Loopify.graph

(** [schema3 ?loop_control lp ~alias ~cover] -- Figure 12's translation:
    one token per cover element, operations collect their access sets. *)
let schema3 ?loop_control ?mode (lp : Cfg.Loopify.t)
    ~(alias : Analysis.Alias.t) ~(cover : Analysis.Cover.t) : Dfg.Graph.t =
  translate ?loop_control ?mode ~tokens:(Token_map.of_cover alias cover)
    ~loops:lp lp.Cfg.Loopify.graph

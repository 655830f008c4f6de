(** Per-statement dataflow segments: the read blocks, expression graphs,
    store and switch wiring of Figures 3–4, 6–7 and 12–13, generalised
    over the token universe and over the Section 6 parallelizing
    transformations.

    A statement's segment is built inside a {!Dfg.Graph.Builder}; what the
    caller gets back is, for every token index,

    - the {e entry ports} the incoming access token must be delivered to
      (several ports: the incoming arc fans out, e.g. to a read block, to
      the triggers of constants in the expression, to each read of a
      parallel read block), and
    - the {e exit terminal} the token leaves from once the statement's
      memory operations have completed,

    or neither, when the token is not involved and flows past the
    statement unchanged.  A token may also have entry ports but no exit
    (asynchronous operations take a {e copy} of the token; the token
    itself passes through, Section 6.3 / Figure 14).

    Baseline operation order within a statement: scalar reads first, then
    array reads innermost-first in occurrence order, then the store;
    access-token chains follow that order, so value dependencies always
    point forward along the chain and the segment cannot deadlock.

    Transformations ({!mode}):
    - [value_vars] (Section 6.1): the variable's token carries its value;
      loads vanish (the token {e is} the value), stores re-emit the token
      carrying the new value.  Sound for unaliased scalars whose access
      set is a private singleton token.
    - [parallel_reads] (Section 6.2): reads become copies of the token
      collected by a synch at the next write or statement exit, so any
      run of reads proceeds in parallel -- even reads of aliased names.
    - [async_stores] (Section 6.3): the store takes a copy of the token
      and its completion terminal is handed back to the caller, which
      builds Figure 14's cross-iteration synchronisation.
    - [istructure]: operations on the named arrays use I-structure
      memory and detach from token ordering entirely (deferred reads
      provide the ordering). *)

type terminal = int * int
(** (node id, output or input port index), depending on position *)

module B = Dfg.Graph.Builder

type mode = {
  value_vars : string -> bool;
  parallel_reads : bool;
  async_stores : string -> bool;
  istructure : string -> bool;
}

let default_mode =
  {
    value_vars = (fun _ -> false);
    parallel_reads = false;
    async_stores = (fun _ -> false);
    istructure = (fun _ -> false);
  }

type chain = {
  entries : terminal list array;  (** per token: input ports to feed *)
  untagged : terminal list array;
      (** per token: input ports fed by the same incoming token but
          carrying no permission (constant triggers): the token merely
          {e activates} them, its permission does not flow there *)
  exits : terminal option array;  (** per token: output terminal *)
  async : (string * terminal) list;
      (** async store completions: (variable, completion terminal) *)
}

(* State threaded while building one statement. *)
type state = {
  b : B.t;
  tokens : Token_map.t;
  mode : mode;
  entries : terminal list array;
  untagged_entries : terminal list array;  (** trigger ports per token *)
  base : terminal option array;  (** last barrier terminal per token *)
  pending : terminal list array;  (** read completions since the barrier *)
  mutable trigger_ports : terminal list;
  mutable scalar_loads : (string * terminal) list;  (** memoised values *)
  mutable reads_in_order : string list;
  mutable async : (string * terminal) list;
}

let new_state b tokens mode : state =
  let k = Token_map.arity tokens in
  {
    b;
    tokens;
    mode;
    entries = Array.make k [];
    untagged_entries = Array.make k [];
    base = Array.make k None;
    pending = Array.make k [];
    trigger_ports = [];
    scalar_loads = [];
    reads_in_order = [];
    async = [];
  }

let mem_of (st : state) (x : string) : Dfg.Node.mem_kind =
  if st.mode.istructure x then Dfg.Node.I_structure else Dfg.Node.Plain

(* Collapse pending read completions of [tau] into a single terminal and
   make it the new base.  None = the token is still at the entry. *)
let collapse (st : state) (tau : int) : terminal option =
  match st.pending.(tau) with
  | [] -> st.base.(tau)
  | [ t ] ->
      st.pending.(tau) <- [];
      st.base.(tau) <- Some t;
      Some t
  | ts ->
      let s = B.add st.b (Dfg.Node.Synch (List.length ts)) in
      List.iteri (fun i t -> B.connect st.b ~dummy:true ~tokens:[ tau ] t (s, i)) ts;
      st.pending.(tau) <- [];
      st.base.(tau) <- Some (s, 0);
      Some (s, 0)

(* Feed [port] with a COPY of tau's token (fan-out off the base, or off
   the statement entry).  Pending reads are not collected. *)
let copy_feed (st : state) (tau : int) (port : terminal) : unit =
  match st.base.(tau) with
  | Some t -> B.connect st.b ~dummy:true ~tokens:[ tau ] t port
  | None -> st.entries.(tau) <- st.entries.(tau) @ [ port ]

(* Feed [port] with the COLLECTED token of tau (synch over pending
   reads). *)
let barrier_feed (st : state) (tau : int) (port : terminal) : unit =
  match collapse st tau with
  | Some t -> B.connect st.b ~dummy:true ~tokens:[ tau ] t port
  | None -> st.entries.(tau) <- st.entries.(tau) @ [ port ]

(* Thread a memory operation on [var] through the token machinery.
   [kind] decides the discipline:
   - [`Read]: sequential mode advances the base past the op; parallel
     mode takes a copy and pends the completion;
   - [`Write]: collects pending reads, advances the base;
   - [`Async]: takes a copy, records the completion for the caller;
   - [`Detached]: takes a copy, drops the completion (I-structures). *)
let thread_op (st : state) (var : string)
    (kind : [ `Read | `Write | `Async | `Detached ]) ~(access_in : terminal)
    ~(access_out : terminal) : unit =
  let aset = st.tokens.Token_map.access_set var in
  let feed_each feed1 =
    match aset with
    | [ tau ] -> feed1 tau access_in
    | taus ->
        let s = B.add st.b (Dfg.Node.Synch (List.length taus)) in
        List.iteri (fun j tau -> feed1 tau (s, j)) taus;
        B.connect st.b ~dummy:true ~tokens:taus (s, 0) access_in
  in
  match kind with
  | `Read when st.mode.parallel_reads ->
      feed_each (copy_feed st);
      List.iter
        (fun tau -> st.pending.(tau) <- st.pending.(tau) @ [ access_out ])
        aset
  | `Read | `Write ->
      feed_each (barrier_feed st);
      List.iter (fun tau -> st.base.(tau) <- Some access_out) aset
  | `Async ->
      feed_each (copy_feed st);
      st.async <- (var, access_out) :: st.async
  | `Detached -> feed_each (copy_feed st)

(* The value of a value-passing variable: its token.  Materialise an Id
   at the entry when the token has not yet been seen. *)
let value_token (st : state) (x : string) : terminal =
  let tau =
    match st.tokens.Token_map.access_set x with
    | [ tau ] -> tau
    | _ -> invalid_arg ("value variable with non-singleton access set: " ^ x)
  in
  match st.base.(tau) with
  | Some t -> t
  | None ->
      let id = B.add st.b ~label:("value " ^ x) Dfg.Node.Id in
      st.entries.(tau) <- st.entries.(tau) @ [ (id, 0) ];
      st.base.(tau) <- Some (id, 0);
      (id, 0)

(* One scalar load per distinct variable; re-reads fan out the value. *)
let scalar_read (st : state) (x : string) : terminal =
  match List.assoc_opt x st.scalar_loads with
  | Some t -> t
  | None ->
      let t =
        if st.mode.value_vars x then value_token st x
        else begin
          let n =
            B.add st.b
              (Dfg.Node.Load { var = x; indexed = false; mem = mem_of st x })
          in
          let op_kind = if st.mode.istructure x then `Detached else `Read in
          thread_op st x op_kind ~access_in:(n, 0) ~access_out:(n, 1);
          (n, 0)
        end
      in
      st.scalar_loads <- (x, t) :: st.scalar_loads;
      if not (List.mem x st.reads_in_order) then
        st.reads_in_order <- st.reads_in_order @ [ x ];
      t

(* Compile an expression to a value terminal.  Array reads create their
   load at the point the subscript value is available (post-order), which
   also fixes their position on the access-token chain. *)
let rec compile_expr (st : state) (e : Imp.Ast.expr) : terminal =
  match e with
  | Imp.Ast.Int n ->
      let c = B.add st.b (Dfg.Node.Const (Imp.Value.Int n)) in
      st.trigger_ports <- (c, 0) :: st.trigger_ports;
      (c, 0)
  | Imp.Ast.Bool v ->
      let c = B.add st.b (Dfg.Node.Const (Imp.Value.Bool v)) in
      st.trigger_ports <- (c, 0) :: st.trigger_ports;
      (c, 0)
  | Imp.Ast.Var x -> scalar_read st x
  | Imp.Ast.Index (a, idx) ->
      let idx_v = compile_expr st idx in
      let n =
        B.add st.b (Dfg.Node.Load { var = a; indexed = true; mem = mem_of st a })
      in
      if not (List.mem a st.reads_in_order) then
        st.reads_in_order <- st.reads_in_order @ [ a ];
      B.connect st.b idx_v (n, 1);
      let op_kind = if st.mode.istructure a then `Detached else `Read in
      thread_op st a op_kind ~access_in:(n, 0) ~access_out:(n, 1);
      (n, 0)
  | Imp.Ast.Binop (op, l, r) ->
      let lv = compile_expr st l in
      let rv = compile_expr st r in
      let n = B.add st.b (Dfg.Node.Binop op) in
      B.connect st.b lv (n, 0);
      B.connect st.b rv (n, 1);
      (n, 0)
  | Imp.Ast.Unop (op, a) ->
      let av = compile_expr st a in
      let n = B.add st.b (Dfg.Node.Unop op) in
      B.connect st.b av (n, 0);
      (n, 0)

(* Attach pending constant triggers to the entry fan-out of [tau]:
   triggers fire off the statement's incoming token, so they join the
   entry fan-out rather than the op chain. *)
let attach_triggers (st : state) (tau : int) : unit =
  List.iter
    (fun port ->
      st.untagged_entries.(tau) <- st.untagged_entries.(tau) @ [ port ])
    (List.rev st.trigger_ports);
  st.trigger_ports <- []

(* Collect outstanding pending reads into exit terminals. *)
let finish_chain (st : state) : chain =
  let k = Token_map.arity st.tokens in
  let exits =
    Array.init k (fun tau ->
        match st.pending.(tau) with [] -> st.base.(tau) | _ -> collapse st tau)
  in
  {
    entries = st.entries;
    untagged = st.untagged_entries;
    exits;
    async = List.rev st.async;
  }

(* Perform the store of an assignment. *)
let do_store (st : state) (lv : Imp.Ast.lvalue) (value : terminal) : unit =
  match lv with
  | Imp.Ast.Lvar x when st.mode.value_vars x ->
      let tau = List.hd (st.tokens.Token_map.access_set x) in
      (match st.base.(tau) with
      | Some _ -> ()  (* old value token already consumed/fanned by reads *)
      | None ->
          (* the dead old-value token arrives from the predecessor and
             must be absorbed *)
          let s = B.add st.b ~label:("sink " ^ x) Dfg.Node.Sink in
          st.entries.(tau) <- st.entries.(tau) @ [ (s, 0) ]);
      st.base.(tau) <- Some value
  | Imp.Ast.Lvar x ->
      let n =
        B.add st.b (Dfg.Node.Store { var = x; indexed = false; mem = mem_of st x })
      in
      B.connect st.b value (n, 1);
      let op_kind =
        if st.mode.istructure x then `Detached
        else if st.mode.async_stores x then `Async
        else `Write
      in
      thread_op st x op_kind ~access_in:(n, 0) ~access_out:(n, 0)
  | Imp.Ast.Lindex (a, idx) ->
      let idx_v = compile_expr st idx in
      let n =
        B.add st.b (Dfg.Node.Store { var = a; indexed = true; mem = mem_of st a })
      in
      B.connect st.b value (n, 1);
      B.connect st.b idx_v (n, 2);
      let op_kind =
        if st.mode.istructure a then `Detached
        else if st.mode.async_stores a then `Async
        else `Write
      in
      thread_op st a op_kind ~access_in:(n, 0) ~access_out:(n, 0)

(** [assign b ~tokens ~mode lv e] builds the segment of [lv := e]. *)
let assign (b : B.t) ~(tokens : Token_map.t) ?(mode = default_mode)
    (lv : Imp.Ast.lvalue) (e : Imp.Ast.expr) : chain =
  let st = new_state b tokens mode in
  let value = compile_expr st e in
  do_store st lv value;
  let written = match lv with Imp.Ast.Lvar x | Imp.Ast.Lindex (x, _) -> x in
  attach_triggers st (List.hd (tokens.Token_map.access_set written));
  finish_chain st

type fork_out =
  | F_pass  (** token untouched by the fork *)
  | F_switched of terminal * terminal  (** (true-exit, false-exit) *)
  | F_straight of terminal
      (** read by the predicate but not switched: single exit (only under
          the optimized construction, where it flows to the fork's
          immediate postdominator) *)

type fork_chain = {
  f_entries : terminal list array;
  f_untagged : terminal list array;  (** trigger ports, no permission *)
  f_outs : fork_out array;
}

(** [fork b ~tokens ~mode ~switched pred] builds a fork segment:
    predicate reads and evaluation, plus one switch per token index in
    [switched].  Under Schemas 1–3 every token is switched; under the
    optimized construction only those the placement analysis demands. *)
let fork (b : B.t) ~(tokens : Token_map.t) ?(mode = default_mode)
    ~(switched : int list) (pred : Imp.Ast.expr) : fork_chain =
  let st = new_state b tokens mode in
  let pred_v = compile_expr st pred in
  (* Constant triggers: prefer a token the predicate reads; otherwise any
     switched token's entry fan-out. *)
  if st.trigger_ports <> [] then begin
    let tau =
      match st.reads_in_order with
      | v :: _ -> List.hd (tokens.Token_map.access_set v)
      | [] -> (
          match switched with
          | tau :: _ -> tau
          | [] ->
              invalid_arg
                "Statement.fork: constant predicate with nothing to switch")
    in
    attach_triggers st tau
  end;
  let outs = Array.make (Token_map.arity tokens) F_pass in
  List.iter
    (fun tau ->
      let sw = B.add b Dfg.Node.Switch in
      barrier_feed st tau (sw, 0);
      B.connect b pred_v (sw, 1);
      st.base.(tau) <- None;
      (* consumed by the switch *)
      outs.(tau) <- F_switched ((sw, 0), (sw, 1)))
    switched;
  (* Tokens read but not switched leave straight (their pending reads, if
     any, collapse into the exit). *)
  Array.iteri
    (fun tau _ ->
      match outs.(tau) with
      | F_pass -> (
          match collapse st tau with
          | Some t -> outs.(tau) <- F_straight t
          | None -> ())
      | F_switched _ | F_straight _ -> ())
    outs;
  { f_entries = st.entries; f_untagged = st.untagged_entries; f_outs = outs }

(** The explicit-token-store dataflow machine simulator.

    This is the Monsoon stand-in (see DESIGN.md, substitutions): a
    cycle-driven interpreter of {!Dfg.Graph.t} implementing

    - the dataflow firing rule: an operator executes when tokens are
      present on its required inputs;
    - waiting-matching by (node, context): tokens of different loop
      iterations carry different tags and rendezvous separately, as in
      tagged-token / ETS frames;
    - the single-token-per-arc discipline: delivering a second token to
      an occupied (node, context, port) slot raises {!Token_collision} --
      this is precisely what goes wrong in Figure 8 when loop-control
      nodes are omitted;
    - split-phase, multiply-writable memory (the paper's Section 2.2
      extension of the dataflow model) plus I-structure memory with
      deferred reads;
    - unbounded or [p]-bounded processing elements with configurable
      latencies and an optionally bounded waiting-matching store (see
      {!Config});
    - deterministic fault injection at the delivery and memory-issue
      boundaries ({!Fault}), with every run summarised by a structured
      {!Diagnosis.t}.

    Execution is deterministic: the ready queue is FIFO and all graphs
    produced by the translation schemas are determinate (merges receive
    at most one token per context). *)

exception Token_collision of string
(** Two tokens met at the same (node, context, input port): the graph is
    not a meaningful (ETS) dataflow computation. *)

exception Double_write of string
(** A second write to an I-structure cell. *)

exception Divergence of string
(** [max_cycles] exceeded. *)

type program = {
  graph : Dfg.Graph.t;
  layout : Imp.Layout.t;
}

type result = {
  memory : Imp.Memory.t;  (** final store *)
  cycles : int;  (** makespan (last completion cycle) *)
  firings : int;  (** total operator executions *)
  memory_ops : int;  (** loads + stores executed *)
  dummy_deliveries : int;
      (** tokens delivered along dummy (access) arcs: pure
          synchronisation traffic *)
  value_deliveries : int;  (** tokens delivered along value arcs *)
  profile : int array;  (** firings started per cycle *)
  peak_parallelism : int;
  completed : bool;  (** the End operator fired *)
  leftover_tokens : int;  (** unconsumed tokens at quiescence *)
  peak_matching : int;
      (** maximum simultaneous entries in the waiting-matching store --
          the frame-memory capacity a Monsoon-like machine would need *)
  peak_in_flight : int;
      (** maximum tokens travelling between operators at once *)
  firings_by_kind : (string * int) list;
      (** executions per operator family (loads, stores, switches, ...),
          sorted descending *)
  matching_throttled : int;
      (** deliveries postponed because the bounded matching store was at
          capacity ({!Config.max_matching}) *)
  in_flight_curve : int array;
      (** per cycle, tokens travelling between operators at the end of
          the cycle (the curve whose maximum is [peak_in_flight]) *)
  matching_curve : int array;
      (** per cycle, occupied waiting-matching entries at the end of the
          cycle (the curve whose maximum is [peak_matching]) *)
  critical_path : int;
      (** dynamic critical path: the longest dependence chain of firings
          actually executed (each firing's depth is one more than the
          deepest firing that produced one of its input tokens).  Under
          {!Config.ideal} this equals [cycles]; under other latency
          models it is the latency-independent chain length. *)
  critical_chain : (int * Context.t) list;
      (** one maximal dependence chain, source to sink, as
          (node id, context) pairs — [List.length critical_chain =
          critical_path] *)
  diagnosis : Diagnosis.t;
      (** the structured post-mortem: verdict, stall frontier, pressure
          and fault log *)
}

(** Average operator-level parallelism: firings per active cycle. *)
let avg_parallelism (r : result) : float =
  if r.cycles <= 0 then float_of_int r.firings
  else float_of_int r.firings /. float_of_int r.cycles

type delivery = {
  d_node : int;
  d_port : int;
  d_ctx : Context.t;
  d_value : Imp.Value.t;
  d_depth : int;  (** firing depth of the producer (chain length so far) *)
  d_src : int;  (** firing-log index of the producer, [-1] for none *)
  d_bag : Permission.bag;  (** fractional permissions riding the token *)
}

(* A waiting token: its value plus the provenance needed for dynamic
   critical-path accounting and the permission fractions it carries. *)
type slot = {
  s_value : Imp.Value.t;
  s_depth : int;
  s_src : int;
  s_bag : Permission.bag;
}

type firing = {
  f_node : int;
  f_ctx : Context.t;
  f_inputs : Imp.Value.t array;
  f_in_depth : int;  (** max depth over the consumed input tokens *)
  f_pred : int;  (** firing-log index of the deepest producer, [-1] *)
  f_bags : Permission.bag list;  (** permission bags of the consumed tokens *)
}

let dummy_value = Firing.dummy_value

exception Abort of Diagnosis.t
(* Internal: carries the structured post-mortem out of the machine loop;
   [run] re-raises the legacy exception matching the verdict. *)

(* Packed-engine path: compile the graph once and run it on the explicit
   token store ({!Packed}), then translate the packed result into the
   reference result shape.  The per-cycle curves and the dynamic
   critical path are observability the packed engine deliberately does
   not collect; they come back empty. *)
let run_packed ~(config : Config.t)
    ?(on_fire : (int -> Dfg.Node.t -> Context.t -> unit) option)
    (p : program) : (result, Diagnosis.t) Stdlib.result =
  let code = Packed.compile_graph p.graph in
  let on_fire =
    Option.map
      (fun cb t node ctx -> cb t (Dfg.Graph.node p.graph node) ctx)
      on_fire
  in
  match Packed.run_report ~config ?on_fire ~layout:p.layout code with
  | Error d -> Error d
  | Ok r ->
      Ok
        {
          memory = r.Packed.memory;
          cycles = r.Packed.cycles;
          firings = r.Packed.firings;
          memory_ops = r.Packed.memory_ops;
          dummy_deliveries = r.Packed.dummy_deliveries;
          value_deliveries = r.Packed.value_deliveries;
          profile = [||];
          peak_parallelism = r.Packed.peak_parallelism;
          completed = r.Packed.completed;
          leftover_tokens = r.Packed.leftover_tokens;
          peak_matching = r.Packed.peak_frames;
          peak_in_flight = r.Packed.peak_in_flight;
          firings_by_kind = r.Packed.firings_by_kind;
          matching_throttled = r.Packed.throttled;
          in_flight_curve = [||];
          matching_curve = [||];
          critical_path = 0;
          critical_chain = [];
          diagnosis = r.Packed.diagnosis;
        }

(** [run_report ?config ?faults ?on_fire program] executes [program] to
    quiescence on a fresh zeroed memory.  [Ok r] means the machine
    reached quiescence ([r.diagnosis] still distinguishes clean runs
    from deadlocks and leftovers); [Error d] is a hard failure
    (collision, double write, divergence) with the full machine state at
    the point of failure.
    @raise Imp.Value.Type_error on ill-typed graphs (never for graphs
    produced by the translation schemas from type-checked programs). *)
let run_report ?(config = Config.default) ?(faults : Fault.plan option)
    ?(on_fire : (int -> Dfg.Node.t -> Context.t -> unit) option)
    (p : program) : (result, Diagnosis.t) Stdlib.result =
  match (config.Config.engine, faults) with
  | Config.Packed, None -> run_packed ~config ?on_fire p
  | Config.Packed, Some _ ->
      (* fault injection is a reference-engine feature; running another
         machine than the one asked for would be a silent fallback *)
      invalid_arg
        "Interp.run_report: the packed engine has no fault injection; use \
         the reference engine"
  | Config.Reference, _ ->
  let g = p.graph in
  let memory = Imp.Memory.create p.layout in
  (* token-conservation sanitizer, report-only on the single-PE path:
     violations observed during the run land in the diagnosis *)
  let san = Sanitize.create g in
  let violations : Sanitize.violation list ref = ref [] in
  (* fractional-permission certificate, active only when the translation
     attached its cover metadata; like the sanitizer it is report-only
     here -- violations land in the diagnosis *)
  let perm =
    match g.Dfg.Graph.cert with
    | Some c -> Some (Permission.create g c)
    | None -> None
  in
  (* split-phase memory state (store, I-structure presence, deferred
     readers); the 'meta on deferred readers is the (depth, log index)
     provenance for critical-path accounting *)
  let env : (int * int) Firing.env =
    Firing.make_env ~graph:g ~layout:p.layout memory
  in
  (* waiting-matching store *)
  let wait : slot Matching.store = Matching.create () in
  (* schedule *)
  let deliveries : (int, delivery list) Hashtbl.t = Hashtbl.create 64 in
  let pending = ref 0 in
  let ready : firing Queue.t = Queue.create () in
  let firings = ref 0 in
  let memory_ops = ref 0 in
  let peak_matching = ref 0 in
  let peak_in_flight = ref 0 in
  let dummy_deliveries = ref 0 in
  let value_deliveries = ref 0 in
  let throttled = ref 0 in
  (* stagnation spill: when a whole cycle makes no progress because every
     pending delivery was throttled by the bounded matching store, admit
     one delivery over capacity next cycle so the machine cannot
     livelock (the frame-store overflow recourse) *)
  let spilled = ref 0 in
  let spill = ref false in
  let progressed = ref false in
  let throttled_this_cycle = ref 0 in
  let by_kind : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let completed = ref false in
  let profile = ref [] in
  let in_flight_curve = ref [] in
  let matching_curve = ref [] in
  (* firing log for dynamic critical-path reconstruction: one entry per
     firing, in firing order: (node, ctx, depth, predecessor index) *)
  let fire_log : (int * Context.t * int * int) list ref = ref [] in
  let fire_count = ref 0 in
  let last_cycle = ref 0 in
  let t = ref 0 in
  (* --- structured post-mortem ---------------------------------------- *)
  let leftover_count () =
    Matching.leftover [ wait ] + Firing.deferred_count env
  in
  let diagnose (verdict : Diagnosis.verdict) : Diagnosis.t =
    let blocked =
      Matching.partial_matches [ wait ]
      |> List.map (fun (n, ctx, present, missing) ->
             {
               Diagnosis.b_node = n;
               b_label = (Dfg.Graph.node g n).Dfg.Node.label;
               b_ctx = ctx;
               b_present = present;
               b_missing = missing;
               b_pe = None;
             })
    in
    {
      Diagnosis.verdict;
      cycles = !t;
      leftover_tokens = leftover_count ();
      blocked;
      deferred_reads = Firing.deferred_reads env;
      tokens_by_context = Matching.tokens_by_context [ wait ];
      waiting_by_pe = [];
      pressure =
        {
          Diagnosis.capacity = config.Config.max_matching;
          peak = !peak_matching;
          throttled = !throttled;
          spilled = !spilled;
        };
      network = None;
      faults = (match faults with Some pl -> Fault.events pl | None -> []);
      sanitizer = List.rev !violations;
      permission =
        (match perm with Some p -> Permission.violations p | None -> []);
      certified =
        (match perm with
        | Some p -> Some (Permission.elements p, Permission.checks p)
        | None -> None);
    }
  in
  let abort verdict = raise (Abort (diagnose verdict)) in
  (* --- token transport ------------------------------------------------ *)
  let schedule_delivery t d =
    incr pending;
    if !pending > !peak_in_flight then peak_in_flight := !pending;
    Hashtbl.replace deliveries t
      (d :: (try Hashtbl.find deliveries t with Not_found -> []))
  in
  (* Emit a token along one arc.  This is the delivery boundary where the
     fault plan may drop, duplicate, corrupt or delay individual tokens.
     [depth]/[src] carry the producing firing's chain depth and log index
     onto the token; [bag] is the permission fraction it transports (a
     dropped token destroys its bag, a duplicated one duplicates it --
     exactly what the quiescence account then reports). *)
  let emit_arc t_done (a : Dfg.Graph.arc) ctx value ~depth ~src ~bag =
    let dst = a.Dfg.Graph.dst.Dfg.Graph.node in
    let when_, value, copies =
      match faults with
      | None -> (t_done, value, 1)
      | Some plan -> (
          match Fault.on_delivery plan ~cycle:t_done ~node:dst ~value with
          | Fault.Pass -> (t_done, value, 1)
          | Fault.Act Fault.Drop -> (t_done, value, 0)
          | Fault.Act Fault.Duplicate -> (t_done, value, 2)
          | Fault.Act (Fault.Bit_flip b) -> (t_done, Fault.flip_value b value, 1)
          | Fault.Act (Fault.Delay d) | Fault.Act (Fault.Reorder d) ->
              (t_done + d, value, 1)
          | Fault.Act (Fault.Port_stall _) | Fault.Act Fault.Pe_death ->
              (t_done, value, 1))
    in
    for _ = 1 to copies do
      if a.Dfg.Graph.dummy then incr dummy_deliveries
      else incr value_deliveries;
      schedule_delivery when_
        {
          d_node = dst;
          d_port = a.Dfg.Graph.dst.Dfg.Graph.index;
          d_ctx = ctx;
          d_value = value;
          d_depth = depth;
          d_src = src;
          d_bag = bag;
        }
    done
  in
  let deliver t (d : delivery) =
    let kind = Dfg.Graph.kind g d.d_node in
    match kind with
    | Dfg.Node.Merge ->
        (* no matching: forward immediately as its own firing *)
        Queue.add
          {
            f_node = d.d_node;
            f_ctx = d.d_ctx;
            f_inputs = [| d.d_value |];
            f_in_depth = d.d_depth;
            f_pred = d.d_src;
            f_bags = [ d.d_bag ];
          }
          ready
    | _ -> (
        let key = (d.d_node, d.d_ctx) in
        let at_capacity =
          match config.Config.max_matching with
          | Some cap ->
              Matching.entries wait >= cap && not (Hashtbl.mem wait key)
          | None -> false
        in
        if at_capacity && not !spill then begin
          (* bounded frame memory: postpone the rendezvous instead of
             crashing, and account for the pressure *)
          incr throttled;
          incr throttled_this_cycle;
          schedule_delivery (t + 1) d
        end
        else begin
          if at_capacity then begin
            (* the one-per-stagnant-cycle overflow admission *)
            spill := false;
            incr spilled
          end;
          progressed := true;
          Sanitize.on_delivery san ~node:d.d_node ~port:d.d_port;
          match
            Matching.deliver ~kind
              ~detect_collisions:config.Config.detect_collisions
              ~pad:
                {
                  s_value = dummy_value;
                  s_depth = 0;
                  s_src = -1;
                  s_bag = Permission.empty_bag;
                }
              ~on_insert:(fun () ->
                if Matching.entries wait > !peak_matching then
                  peak_matching := Matching.entries wait)
              wait ~node:d.d_node ~ctx:d.d_ctx ~port:d.d_port
              {
                s_value = d.d_value;
                s_depth = d.d_depth;
                s_src = d.d_src;
                s_bag = d.d_bag;
              }
          with
          | Matching.Collision ->
              abort
                (Diagnosis.Collision
                   (Fmt.str "node %d (%s) port %d ctx %s" d.d_node
                      (Dfg.Graph.node g d.d_node).Dfg.Node.label d.d_port
                      (Context.to_string d.d_ctx)))
          | Matching.Wait -> ()
          | Matching.Fire slots ->
              (* the consumed inputs carry the deepest producer forward
                 for dynamic critical-path accounting *)
              let in_depth = ref 0 and pred = ref (-1) in
              Array.iter
                (fun s ->
                  if s.s_depth > !in_depth then begin
                    in_depth := s.s_depth;
                    pred := s.s_src
                  end)
                slots;
              Queue.add
                {
                  f_node = d.d_node;
                  f_ctx = d.d_ctx;
                  f_inputs = Array.map (fun s -> s.s_value) slots;
                  f_in_depth = !in_depth;
                  f_pred = !pred;
                  f_bags =
                    Array.to_list (Array.map (fun s -> s.s_bag) slots);
                }
                ready
        end)
  in
  let execute t (f : firing) =
    let n = Dfg.Graph.node g f.f_node in
    let kind = n.Dfg.Node.kind in
    incr firings;
    let family = Firing.family kind in
    Hashtbl.replace by_kind family
      (1 + (try Hashtbl.find by_kind family with Not_found -> 0));
    if Dfg.Node.is_memory_op kind then incr memory_ops;
    (match on_fire with Some cb -> cb t n f.f_ctx | None -> ());
    (match
       Sanitize.on_fire san ~node:f.f_node ~ctx:f.f_ctx
         ~group:(Array.length f.f_inputs)
     with
    | Some v -> violations := v :: !violations
    | None -> ());
    let t_done = t + Config.latency config kind in
    if t_done > !last_cycle then last_cycle := t_done;
    (* chain accounting: this firing extends the deepest input chain *)
    let depth = f.f_in_depth + 1 in
    let my_id = !fire_count in
    incr fire_count;
    fire_log := (f.f_node, f.f_ctx, depth, f.f_pred) :: !fire_log;
    (* certificate: join the consumed bags and assert the cover
       requirement before the operator's effect *)
    let held =
      match perm with
      | Some p -> fst (Permission.on_fire p ~node:f.f_node ~ctx:f.f_ctx f.f_bags)
      | None -> Permission.empty_bag
    in
    (* the shared firing rule, instantiated with (depth, log index)
       provenance so tokens carry the dynamic critical path.  Emissions
       are buffered so the held permission can be split over the actual
       deliveries; the replay below preserves the original per-arc order,
       keeping fault draws and scheduling bit-identical. *)
    let buffered : (int * int * Context.t * int * int * Imp.Value.t) list ref =
      ref []
    in
    Firing.execute env
      ~emit:(fun ~node ~port ~ctx ~meta:(d, s) v ->
        buffered := (node, port, ctx, d, s, v) :: !buffered)
      ~meta:(depth, my_id)
      ~meta_max:(fun (d1, s1) (d2, s2) ->
        if d1 >= d2 then (d1, s1) else (d2, s2))
      ~on_complete:(fun () -> completed := true)
      ~double_write:(fun msg -> abort (Diagnosis.Double_write msg))
      ~node:f.f_node ~ctx:f.f_ctx ~inputs:f.f_inputs;
    (* one entry per prospective delivery, in emission then arc order;
       only the firing node's own arcs carry its permission (deferred
       I-structure wakeups emit from the reader's node and carry none) *)
    let flat =
      List.concat_map
        (fun ((node, port, _, _, _, _) as em) ->
          List.map (fun a -> (em, a)) (Dfg.Graph.outgoing g node port))
        (List.rev !buffered)
    in
    let bags =
      match perm with
      | None -> Array.make (List.length flat) Permission.empty_bag
      | Some p ->
          let labels =
            Array.of_list
              (List.map
                 (fun ((node, _, _, _, _, _), a) ->
                   if node = f.f_node then a.Dfg.Graph.tokens else [])
                 flat)
          in
          fst (Permission.split p ~node:f.f_node ~held labels)
    in
    List.iteri
      (fun i ((_, _, ctx, d, s, v), a) ->
        emit_arc t_done a ctx v ~depth:d ~src:s ~bag:bags.(i))
      flat
  in
  (* Deferred-read wakeups performed inside [execute] bypass [deliver]'s
     collision checks by emitting from the load's own output ports --
     exactly as a real split-phase I-fetch responds. *)
  (* boot: fire Start at cycle 0 *)
  Queue.add
    {
      f_node = g.Dfg.Graph.start;
      f_ctx = Context.toplevel;
      f_inputs = [||];
      f_in_depth = 0;
      f_pred = -1;
      (* Start mints the full permission of every cover element *)
      f_bags =
        (match perm with Some p -> [ Permission.mint p ] | None -> []);
    }
    ready;
  (* LIFO policy: enabled firings are moved onto a stack every cycle, so
     the most recently enabled operation starts first *)
  let lifo : firing Stack.t = Stack.create () in
  let absorb_ready () =
    match config.Config.policy with
    | Config.Fifo -> ()
    | Config.Lifo ->
        while not (Queue.is_empty ready) do
          Stack.push (Queue.pop ready) lifo
        done
  in
  let pop_next () =
    match config.Config.policy with
    | Config.Fifo -> Queue.pop ready
    | Config.Lifo -> Stack.pop lifo
  in
  let ready_length () =
    Queue.length ready
    + match config.Config.policy with
      | Config.Fifo -> 0
      | Config.Lifo -> Stack.length lifo
  in
  try
    let finished = ref false in
    while not !finished do
      if !t > config.Config.max_cycles then
        abort (Diagnosis.Diverged config.Config.max_cycles);
      (* 1. deliver tokens scheduled for this cycle *)
      (match Hashtbl.find_opt deliveries !t with
      | Some ds ->
          Hashtbl.remove deliveries !t;
          List.iter
            (fun d ->
              decr pending;
              deliver !t d)
            (List.rev ds)
      | None -> ());
      (* 2. start up to [pes] firings *)
      absorb_ready ();
      let budget =
        match config.Config.pes with
        | None -> ready_length ()
        | Some p -> min p (ready_length ())
      in
      let started = ref 0 in
      let mem_issued = ref 0 in
      let deferred_mem : firing list ref = ref [] in
      while !started < budget do
        let f = pop_next () in
        let is_mem = Dfg.Node.is_memory_op (Dfg.Graph.kind g f.f_node) in
        let port_free =
          match config.Config.memory_ports with
          | None -> true
          | Some k -> (not is_mem) || !mem_issued < max 1 k
        in
        (* the memory-issue boundary: an injected port stall refuses the
           issue this cycle; the operation retries like a busy port *)
        let port_stalled =
          is_mem
          &&
          match faults with
          | Some plan -> Fault.on_memory_issue plan ~cycle:!t ~node:f.f_node
          | None -> false
        in
        if port_free && not port_stalled then begin
          if is_mem then incr mem_issued;
          execute !t f;
          progressed := true;
          incr started
        end
        else begin
          (* out of memory ports this cycle: retry next cycle *)
          deferred_mem := f :: !deferred_mem;
          incr started
        end
      done;
      List.iter (fun f -> Queue.add f ready) (List.rev !deferred_mem);
      profile := (!started - List.length !deferred_mem) :: !profile;
      (* occupancy curves, sampled at the end of every cycle *)
      in_flight_curve := !pending :: !in_flight_curve;
      matching_curve := Hashtbl.length wait :: !matching_curve;
      (* 3. stagnation test: all throttle, no progress -> spill next cycle *)
      if !throttled_this_cycle > 0 && not !progressed then spill := true;
      throttled_this_cycle := 0;
      progressed := false;
      (* 4. quiescence test *)
      if ready_length () = 0 && !pending = 0 then finished := true else incr t
    done;
    let leftover = leftover_count () in
    List.iter
      (fun v -> violations := v :: !violations)
      (Sanitize.at_quiescence san ~leftover:(Matching.leftover [ wait ]));
    (match perm with
    | Some p -> ignore (Permission.at_quiescence p : Permission.violation list)
    | None -> ());
    let verdict =
      if not !completed then Diagnosis.Deadlock
      else if leftover <> 0 then Diagnosis.Leftover leftover
      else Diagnosis.Clean
    in
    let profile = Array.of_list (List.rev !profile) in
    (* dynamic critical path: deepest firing, chain walked back through
       the logged predecessor indices *)
    let log = Array.of_list (List.rev !fire_log) in
    let critical_path =
      Array.fold_left (fun m (_, _, d, _) -> max m d) 0 log
    in
    let critical_chain =
      let best = ref (-1) in
      Array.iteri
        (fun i (_, _, d, _) ->
          if !best = -1 && d = critical_path then best := i)
        log;
      let rec walk i acc =
        if i < 0 then acc
        else
          let n, ctx, _, pred = log.(i) in
          walk pred ((n, ctx) :: acc)
      in
      if !best < 0 then [] else walk !best []
    in
    Ok
      {
        memory;
        cycles = !last_cycle;
        firings = !firings;
        memory_ops = !memory_ops;
        dummy_deliveries = !dummy_deliveries;
        value_deliveries = !value_deliveries;
        profile;
        peak_parallelism = Array.fold_left max 0 profile;
        completed = !completed;
        leftover_tokens = leftover;
        peak_matching = !peak_matching;
        peak_in_flight = !peak_in_flight;
        firings_by_kind =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_kind []
          |> List.sort (fun (_, a) (_, b) -> compare b a);
        matching_throttled = !throttled;
        in_flight_curve = Array.of_list (List.rev !in_flight_curve);
        matching_curve = Array.of_list (List.rev !matching_curve);
        critical_path;
        critical_chain;
        diagnosis = diagnose verdict;
      }
  with Abort d -> Error d

(** [run ?config ?faults ?on_fire program] executes [program] to
    quiescence and returns the result record; hard failures raise the
    legacy exceptions, now carrying the full diagnosis dump.
    @raise Token_collision / Double_write / Divergence as documented. *)
let run ?config ?faults ?on_fire (p : program) : result =
  match run_report ?config ?faults ?on_fire p with
  | Ok r -> r
  | Error d -> (
      let dump detail = Fmt.str "%s@.%s" detail (Diagnosis.to_string d) in
      match d.Diagnosis.verdict with
      | Diagnosis.Collision m -> raise (Token_collision (dump m))
      | Diagnosis.Double_write m -> raise (Double_write (dump m))
      | Diagnosis.Diverged bound ->
          raise (Divergence (dump (Fmt.str "exceeded %d cycles" bound)))
      | Diagnosis.Clean | Diagnosis.Deadlock | Diagnosis.Leftover _
      | Diagnosis.Corrupted _ ->
          assert false)

(** [run_exn ?config p] runs and additionally checks clean completion:
    End fired, no leftover tokens.  The [Failure] message carries the
    structured diagnosis: blocked frontier, per-context token counts,
    matching-store pressure and any injected faults.
    @raise Failure otherwise. *)
let run_exn ?config ?faults (p : program) : result =
  let r = run ?config ?faults p in
  if not r.completed then
    failwith
      (Fmt.str "dataflow execution deadlocked (%d leftover tokens)@.%s"
         r.leftover_tokens
         (Diagnosis.to_string r.diagnosis));
  if r.leftover_tokens <> 0 then
    failwith
      (Fmt.str "%d tokens left at quiescence (End fired: %b)@.%s"
         r.leftover_tokens r.completed
         (Diagnosis.to_string r.diagnosis));
  r

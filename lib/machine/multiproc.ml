(** The multiprocessor ETS machine (see the interface): per-PE matching
    stores, ready queues and ALUs composed with the {!Network}
    interconnect under a {!Placement}.  The operator semantics are
    {!Firing.execute} — the same rule the single-PE {!Interp} runs —
    instantiated with [unit] token metadata: the multiprocessor measures
    communication, not critical paths.

    With [?faults] or [?recovery] the machine switches from the raw wire
    to the {!Network} reliable transport, runs the {!Sanitize} invariant
    checker, and (when [?recovery] is given) takes epoch checkpoints it
    can replay from after a PE fail-stop or a sanitizer violation.  The
    fault-free path is untouched: same transport, same timing, same
    counters as before. *)

type result = {
  memory : Imp.Memory.t;
  cycles : int;
  firings : int;
  memory_ops : int;
  completed : bool;
  leftover_tokens : int;
  peak_matching : int;
  per_pe_firings : int array;
  per_pe_busy : int array;
  utilisation : float array;
  per_pe_curve : int array array;
  local_deliveries : int;
  net_messages : int;
  cut_traffic : float;
  mem_local : int;
  mem_remote : int;
  backpressure : int;
  peak_queue : int;
  net_hops : int;
  steals : int;
  net_occupancy : int array;
  placement : Placement.t;
  placement_stats : Placement.stats;
  transport : Network.rt_stats option;
  recovery : Recovery.metrics option;
  diagnosis : Diagnosis.t;
}

(* A token in transit to one input port: its value plus the permission
   fractions riding it — the slot type of the per-PE matching stores is
   the (value, bag) pair. *)
type delivery = {
  m_node : int;
  m_port : int;
  m_ctx : Context.t;
  m_value : Imp.Value.t;
  m_bag : Permission.bag;
}

type firing = {
  x_node : int;
  x_ctx : Context.t;
  x_inputs : Imp.Value.t array;
  x_bags : Permission.bag list;  (** permission bags of the consumed tokens *)
}

exception Abort of Diagnosis.t

(* Internal: unwinds a partially executed cycle back to the recovery
   loop, which restores the last epoch.  Everything stateful is rebuilt
   from the snapshot, so aborting mid-cycle is safe. *)
exception Rollback

(* An epoch checkpoint: a consistent cut of the whole machine taken at
   the end of a cycle.  Matching stores and ready queues are kept in
   their per-PE buckets but restore re-buckets them through the current
   placement, so a snapshot taken before a death replays cleanly onto
   the survivors.  Undelivered transport payloads are captured as
   (src, dst, payload) — delivered-but-unacked frames are excluded,
   their effect is already inside the snapshot's receiver state. *)
type slot = Imp.Value.t * Permission.bag

type snapshot = {
  sp_wait : (int * Context.t, slot option array) Hashtbl.t array;
  sp_ready : firing Queue.t array;
  sp_lifo : firing Stack.t array;
  sp_locals : (int, delivery list) Hashtbl.t;
  sp_local_pending : int;
  sp_to_inject : (int, (int * int * delivery) list) Hashtbl.t;
  sp_inject_pending : int;
  sp_cells : int array;
  sp_present : bool array;
  sp_deferred : (int, (int * Context.t * unit) list) Hashtbl.t;
  sp_undelivered : (int * int * delivery) list;
  sp_completed : bool;
  sp_firings : int;
  sp_san : Sanitize.snap option;
  sp_perm : Permission.snap option;
}

let copy_store (s : slot Matching.store) :
    (int * Context.t, slot option array) Hashtbl.t =
  let c = Hashtbl.create (max 16 (Hashtbl.length s)) in
  Hashtbl.iter (fun k arr -> Hashtbl.replace c k (Array.copy arr)) s;
  c

let run ?(config = Config.default) ?(net = Network.default)
    ?(placement = Placement.Hash) ?(tree = []) ?(topo : Sched.Topology.t option)
    ?(steal : Sched.Steal.spec option)
    ?(on_fire : (int -> Dfg.Node.t -> Context.t -> pe:int -> unit) option)
    ?(faults : Fault.plan option) ?(recovery : Recovery.spec option) ~pes
    (p : Interp.program) : (result, Diagnosis.t) Stdlib.result =
  if pes < 1 then invalid_arg "Multiproc.run: pes must be >= 1";
  if config.Config.engine <> Config.Reference then
    invalid_arg
      "Multiproc.run: the multiprocessor runs on the reference engine only";
  let g = p.Interp.graph in
  let pcount = pes in
  let place = ref (Placement.compute ~tree ?topo placement ~pes:pcount g) in
  (* per-hop distances under the topology; the constant 1 (no topology)
     is the seed's uniform wire, bit for bit *)
  let hops_fn =
    match topo with
    | Some tp -> Sched.Routing.hops tp
    | None -> fun _ _ -> 1
  in
  let memory = Imp.Memory.create p.Interp.layout in
  let env : unit Firing.env =
    Firing.make_env ~graph:g ~layout:p.Interp.layout memory
  in
  (* fractional-permission certificate, active only when the translation
     attached its cover metadata; violations mirror sanitizer handling:
     bounded rollback under recovery, structured report otherwise *)
  let perm =
    match g.Dfg.Graph.cert with
    | Some c -> Some (Permission.create g c)
    | None -> None
  in
  (* per-PE machine state *)
  let wait : slot Matching.store array =
    Array.init pcount (fun _ -> Matching.create ())
  in
  let ready : firing Queue.t array =
    Array.init pcount (fun _ -> Queue.create ())
  in
  let lifo : firing Stack.t array =
    Array.init pcount (fun _ -> Stack.create ())
  in
  (* transport: same-PE tokens bypass the network on a local schedule;
     cross-PE tokens are scheduled into their source PE's injection
     queue at the producing firing's completion cycle *)
  let locals : (int, delivery list) Hashtbl.t = Hashtbl.create 64 in
  let local_pending = ref 0 in
  let to_inject : (int, (int * int * delivery) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let inject_pending = ref 0 in
  (* fault tolerance switches the machine from the raw wire to the
     reliable transport; the fault-free path keeps the raw network and
     its exact timing *)
  let ft = faults <> None || recovery <> None in
  let network : delivery Network.t =
    Network.create ~config:net ~hops:hops_fn ~pes:pcount ()
  in
  let make_rt () : delivery Network.rt =
    Network.rt_create ~config:net ~hops:hops_fn
      ?fault:
        (Option.map
           (fun plan -> fun ~cycle ~dst -> Fault.on_link plan ~cycle ~dst)
           faults)
      ~corrupt:(fun b d -> { d with m_value = Fault.flip_value b d.m_value })
      ~pes:pcount ()
  in
  let rt : delivery Network.rt option ref =
    ref (if ft then Some (make_rt ()) else None)
  in
  let san = if ft then Some (Sanitize.create g) else None in
  let alive = Array.make pcount true in
  let subst = ref (Array.init pcount (fun i -> i)) in
  let journal : snapshot Recovery.journal = Recovery.journal_create () in
  let metrics = Recovery.metrics_create () in
  let san_rollbacks = ref 0 in
  let pending_deaths =
    ref (match recovery with Some rs -> rs.Recovery.deaths | None -> [])
  in
  let standing_violations : Sanitize.violation list ref = ref [] in
  (* counters *)
  let firings = ref 0 in
  let memory_ops = ref 0 in
  let per_pe_firings = Array.make pcount 0 in
  let per_pe_busy = Array.make pcount 0 in
  let per_pe_curve = Array.make pcount [] in
  let local_deliveries = ref 0 in
  let mem_local = ref 0 in
  let mem_remote = ref 0 in
  let steals = ref 0 in
  (* consecutive cycles each PE has sat with an empty ready queue —
     the stealing hysteresis clock *)
  let idle_ctr = Array.make pcount 0 in
  let peak_matching = ref 0 in
  let net_occupancy = ref [] in
  let completed = ref false in
  let last_cycle = ref 0 in
  let t = ref 0 in
  let net_inject ~src ~dst d =
    match !rt with
    | Some r -> Network.rt_send r ~now:!t ~src ~dst d
    | None -> Network.inject network ~src ~dst d
  in
  let net_arrivals () =
    match !rt with
    | Some r -> Network.rt_arrivals r ~now:!t
    | None -> Network.arrivals network ~now:!t
  in
  let net_step () =
    match !rt with
    | Some r -> Network.rt_step r ~now:!t
    | None -> Network.step network ~now:!t
  in
  let net_pending () =
    match !rt with
    | Some r -> Network.rt_pending r
    | None -> Network.in_transit network
  in
  let wire_stats () =
    match !rt with
    | Some r -> Network.rt_wire_stats r
    | None -> Network.stats network
  in
  let leftover_count () =
    Matching.leftover (Array.to_list wait) + Firing.deferred_count env
  in
  let diagnose (verdict : Diagnosis.verdict) : Diagnosis.t =
    let st = wire_stats () in
    let blocked =
      List.concat
        (List.init pcount (fun pe ->
             Matching.partial_matches [ wait.(pe) ]
             |> List.map (fun (n, ctx, present, missing) ->
                    {
                      Diagnosis.b_node = n;
                      b_label = (Dfg.Graph.node g n).Dfg.Node.label;
                      b_ctx = ctx;
                      b_present = present;
                      b_missing = missing;
                      b_pe = Some pe;
                    })))
    in
    {
      Diagnosis.verdict;
      cycles = !t;
      leftover_tokens = leftover_count ();
      blocked;
      deferred_reads = Firing.deferred_reads env;
      tokens_by_context = Matching.tokens_by_context (Array.to_list wait);
      waiting_by_pe =
        Array.to_list
          (Array.mapi (fun pe w -> (pe, Matching.leftover [ w ])) wait)
        |> List.filter (fun (_, n) -> n <> 0);
      pressure =
        {
          Diagnosis.capacity = None;
          peak = !peak_matching;
          throttled = 0;
          spilled = 0;
        };
      network =
        Some
          {
            Diagnosis.net_messages = st.Network.s_messages;
            net_backpressure = st.Network.s_backpressure;
            net_peak_queue = st.Network.s_peak_queue;
            net_peak_in_flight = st.Network.s_peak_in_flight;
          };
      faults = (match faults with Some pl -> Fault.events pl | None -> []);
      sanitizer = !standing_violations;
      permission =
        (match perm with Some p -> Permission.violations p | None -> []);
      certified =
        (match perm with
        | Some p -> Some (Permission.elements p, Permission.checks p)
        | None -> None);
    }
  in
  let abort verdict = raise (Abort (diagnose verdict)) in
  let schedule_local at d =
    incr local_pending;
    Hashtbl.replace locals at
      (d :: (try Hashtbl.find locals at with Not_found -> []))
  in
  let schedule_inject at src dst d =
    incr inject_pending;
    Hashtbl.replace to_inject at
      ((src, dst, d) :: (try Hashtbl.find to_inject at with Not_found -> []))
  in
  let deliver (d : delivery) =
    let kind = Dfg.Graph.kind g d.m_node in
    let pe = (!place).Placement.assign.(d.m_node) in
    (match san with
    | Some s -> Sanitize.on_delivery s ~node:d.m_node ~port:d.m_port
    | None -> ());
    match kind with
    | Dfg.Node.Merge ->
        (* no matching: forward immediately as its own firing *)
        Queue.add
          {
            x_node = d.m_node;
            x_ctx = d.m_ctx;
            x_inputs = [| d.m_value |];
            x_bags = [ d.m_bag ];
          }
          ready.(pe)
    | _ -> (
        match
          Matching.deliver ~kind
            ~detect_collisions:config.Config.detect_collisions
            ~pad:(Firing.dummy_value, Permission.empty_bag)
            wait.(pe) ~node:d.m_node ~ctx:d.m_ctx ~port:d.m_port
            (d.m_value, d.m_bag)
        with
        | Matching.Collision ->
            abort
              (Diagnosis.Collision
                 (Fmt.str "node %d (%s) port %d ctx %s (PE %d)" d.m_node
                    (Dfg.Graph.node g d.m_node).Dfg.Node.label d.m_port
                    (Context.to_string d.m_ctx)
                    pe))
        | Matching.Wait -> ()
        | Matching.Fire slots ->
            Queue.add
              {
                x_node = d.m_node;
                x_ctx = d.m_ctx;
                x_inputs = Array.map fst slots;
                x_bags = Array.to_list (Array.map snd slots);
              }
              ready.(pe))
  in
  (* Can a sanitizer violation be rolled back right now? *)
  let can_roll_back () =
    match recovery with
    | Some rs ->
        !san_rollbacks < rs.Recovery.max_rollbacks
        && Recovery.last journal <> None
    | None -> false
  in
  let execute pe (f : firing) =
    let n = Dfg.Graph.node g f.x_node in
    let kind = n.Dfg.Node.kind in
    incr firings;
    per_pe_firings.(pe) <- per_pe_firings.(pe) + 1;
    (match on_fire with Some cb -> cb !t n f.x_ctx ~pe | None -> ());
    (match san with
    | Some s -> (
        match
          Sanitize.on_fire s ~node:f.x_node ~ctx:f.x_ctx
            ~group:(Array.length f.x_inputs)
        with
        | Some v ->
            if can_roll_back () then begin
              incr san_rollbacks;
              raise Rollback
            end
            else begin
              standing_violations := !standing_violations @ [ v ];
              abort (Diagnosis.Corrupted (Sanitize.violation_to_string v))
            end
        | None -> ())
    | None -> ());
    (* certificate: join the consumed bags and assert the cover
       requirement; a violation rolls back like a sanitizer hit when an
       epoch is available, otherwise the run stops with the report *)
    let held =
      match perm with
      | Some p -> (
          match Permission.on_fire p ~node:f.x_node ~ctx:f.x_ctx f.x_bags with
          | held, [] -> held
          | _, v :: _ ->
              if can_roll_back () then begin
                incr san_rollbacks;
                raise Rollback
              end
              else
                abort (Diagnosis.Corrupted (Permission.violation_to_string v)))
      | None -> Permission.empty_bag
    in
    let lat = Config.latency config kind in
    (* Interleaved memory: an access whose owning module hangs off a
       different PE pays the request/response round trip — but only on
       the loaded value.  The request itself is fire-and-forget in
       access-chain order (that is what split-phase means), so the
       chain's successor token and a store's ordering token leave at
       pipeline speed; serialising whole round trips onto the
       per-variable chains would deny the machine the latency tolerance
       dataflow exists to provide.  A module homed on a dead PE is
       served by that PE's substitute. *)
    let mem_penalty =
      if Dfg.Node.is_memory_op kind then begin
        incr memory_ops;
        let addr = Firing.address env kind f.x_inputs in
        let home = (!subst).(Network.home_pe net ~pes:pcount ~addr) in
        if home = pe then begin
          incr mem_local;
          0
        end
        else begin
          incr mem_remote;
          (* request/response round trip at pipelined per-hop cost; one
             hop (no topology) is the seed's flat remote penalty *)
          2 * max 1 (net.Network.latency + max 1 (hops_fn pe home) - 1)
        end
      end
      else 0
    in
    let t_done = !t + lat in
    let value_done = t_done + mem_penalty in
    if value_done > !last_cycle then last_cycle := value_done;
    let is_load = match kind with Dfg.Node.Load _ -> true | _ -> false in
    (* emissions are buffered so the held permission can be split over
       the actual deliveries; the replay below preserves the original
       per-arc order, keeping routing and timing bit-identical *)
    let buffered : (int * int * Context.t * Imp.Value.t) list ref = ref [] in
    Firing.execute env
      ~emit:(fun ~node ~port ~ctx ~meta:() v ->
        buffered := (node, port, ctx, v) :: !buffered)
      ~meta:() ~meta_max:(fun () () -> ())
      ~on_complete:(fun () -> completed := true)
      ~double_write:(fun msg -> abort (Diagnosis.Double_write msg))
      ~node:f.x_node ~ctx:f.x_ctx ~inputs:f.x_inputs;
    (* one entry per prospective delivery, in emission then arc order;
       only the firing node's own arcs carry its permission (deferred
       I-structure wakeups emit from the reader's node and carry none) *)
    let flat =
      List.concat_map
        (fun ((node, port, _, _) as em) ->
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
                 (fun ((node, _, _, _), a) ->
                   if node = f.x_node then a.Dfg.Graph.tokens else [])
                 flat)
          in
          fst (Permission.split p ~node:f.x_node ~held labels)
    in
    List.iteri
      (fun i ((node, port, ctx, v), (a : Dfg.Graph.arc)) ->
        (* emissions route from the PE of the emitting node: a deferred
           I-structure read completed by a remote store answers from the
           parked load's PE, not the store's.  The firing node's own
           emissions leave from the PE actually EXECUTING it — equal to
           its placed PE except for a stolen firing, which emits from
           the thief *)
        let t_done =
          if is_load && node = f.x_node && port = 0 then value_done else t_done
        in
        let src_pe =
          if node = f.x_node then pe else (!place).Placement.assign.(node)
        in
        let dstn = a.Dfg.Graph.dst.Dfg.Graph.node in
        let d =
          {
            m_node = dstn;
            m_port = a.Dfg.Graph.dst.Dfg.Graph.index;
            m_ctx = ctx;
            m_value = v;
            m_bag = bags.(i);
          }
        in
        if (!place).Placement.assign.(dstn) = src_pe then begin
          incr local_deliveries;
          schedule_local t_done d
        end
        else schedule_inject t_done src_pe (!place).Placement.assign.(dstn) d)
      flat
  in
  (* --- checkpoint / restore ------------------------------------------- *)
  let take_snapshot () : snapshot =
    {
      sp_wait = Array.map copy_store wait;
      sp_ready = Array.map Queue.copy ready;
      sp_lifo = Array.map Stack.copy lifo;
      sp_locals = Hashtbl.copy locals;
      sp_local_pending = !local_pending;
      sp_to_inject = Hashtbl.copy to_inject;
      sp_inject_pending = !inject_pending;
      sp_cells = Array.copy memory.Imp.Memory.cells;
      sp_present = Array.copy env.Firing.present;
      sp_deferred = Hashtbl.copy env.Firing.deferred;
      sp_undelivered =
        (match !rt with Some r -> Network.rt_undelivered r | None -> []);
      sp_completed = !completed;
      sp_firings = !firings;
      sp_san = Option.map Sanitize.snapshot san;
      sp_perm = Option.map Permission.snapshot perm;
    }
  in
  (* Restore the last epoch and resume after the failover penalty.  Time
     is monotonic: the cycles between the epoch and the failure are lost
     (and charged), never rewound — pending schedules are rebased onto
     the resume cycle, and matching/ready state is re-bucketed through
     the current (possibly remapped) placement. *)
  let do_restore (rs : Recovery.spec) =
    let c, sp =
      match Recovery.last journal with Some x -> x | None -> assert false
    in
    metrics.Recovery.m_rollbacks <- metrics.Recovery.m_rollbacks + 1;
    metrics.Recovery.m_lost_cycles <-
      metrics.Recovery.m_lost_cycles + (!t - c) + rs.Recovery.failover;
    metrics.Recovery.m_replayed_firings <-
      metrics.Recovery.m_replayed_firings + (!firings - sp.sp_firings);
    let resume = !t + rs.Recovery.failover + 1 in
    let delta = resume - (c + 1) in
    (* matching stores and ready queues, re-bucketed by current assign *)
    for pe = 0 to pcount - 1 do
      wait.(pe) <- Matching.create ();
      ready.(pe) <- Queue.create ();
      lifo.(pe) <- Stack.create ()
    done;
    Array.iter
      (fun store ->
        Hashtbl.iter
          (fun ((node, _) as key) arr ->
            Hashtbl.replace wait.((!place).Placement.assign.(node)) key
              (Array.copy arr))
          store)
      sp.sp_wait;
    let requeue (f : firing) =
      Queue.add f ready.((!place).Placement.assign.(f.x_node))
    in
    Array.iter (fun q -> Queue.iter requeue q) sp.sp_ready;
    Array.iter
      (fun s ->
        (* stack snapshots iterate top-first; re-add bottom-first so the
           replay order matches the original enabling order *)
        let l = ref [] in
        Stack.iter (fun f -> l := f :: !l) s;
        List.iter requeue !l)
      sp.sp_lifo;
    (* pending schedules, rebased onto the resume cycle *)
    Hashtbl.reset locals;
    Hashtbl.iter
      (fun k v -> Hashtbl.replace locals (k + delta) v)
      sp.sp_locals;
    local_pending := sp.sp_local_pending;
    Hashtbl.reset to_inject;
    Hashtbl.iter
      (fun k v ->
        Hashtbl.replace to_inject (k + delta)
          (List.map
             (fun (src, dst, d) -> ((!subst).(src), (!subst).(dst), d))
             v))
      sp.sp_to_inject;
    inject_pending := sp.sp_inject_pending;
    (* memory and split-phase state *)
    Array.blit sp.sp_cells 0 memory.Imp.Memory.cells 0
      (Array.length sp.sp_cells);
    Array.blit sp.sp_present 0 env.Firing.present 0
      (Array.length sp.sp_present);
    Hashtbl.reset env.Firing.deferred;
    Hashtbl.iter
      (fun k v -> Hashtbl.replace env.Firing.deferred k v)
      sp.sp_deferred;
    (* fresh transport; resend everything undelivered at the epoch, from
       the substitutes of any dead sources *)
    rt := Some (make_rt ());
    let r = match !rt with Some r -> r | None -> assert false in
    List.iter
      (fun (src, dst, d) ->
        Network.rt_send r ~now:resume ~src:((!subst).(src))
          ~dst:((!subst).(dst)) d)
      sp.sp_undelivered;
    completed := sp.sp_completed;
    (match (san, sp.sp_san) with
    | Some s, Some snap -> Sanitize.restore s snap
    | _ -> ());
    (* replayed firings must re-earn their permissions, not double-count *)
    (match (perm, sp.sp_perm) with
    | Some p, Some snap -> Permission.restore p snap
    | _ -> ());
    t := resume;
    Array.fill idle_ctr 0 pcount 0;
    if resume > !last_cycle then last_cycle := resume
  in
  (* boot: fire Start on its home PE at cycle 0; Start mints the full
     permission of every cover element *)
  Queue.add
    {
      x_node = g.Dfg.Graph.start;
      x_ctx = Context.toplevel;
      x_inputs = [||];
      x_bags = (match perm with Some p -> [ Permission.mint p ] | None -> []);
    }
    ready.((!place).Placement.assign.(g.Dfg.Graph.start));
  (* epoch 0: with recovery enabled even a death before the first
     periodic checkpoint replays from the boot state *)
  let next_checkpoint =
    match recovery with
    | Some rs ->
        Recovery.record journal ~cycle:(-1) (take_snapshot ());
        metrics.Recovery.m_checkpoints <- 1;
        ref rs.Recovery.interval
    | None -> ref max_int
  in
  let absorb_ready pe =
    match config.Config.policy with
    | Config.Fifo -> ()
    | Config.Lifo ->
        while not (Queue.is_empty ready.(pe)) do
          Stack.push (Queue.pop ready.(pe)) lifo.(pe)
        done
  in
  let pop_next pe =
    match config.Config.policy with
    | Config.Fifo -> Queue.pop ready.(pe)
    | Config.Lifo -> Stack.pop lifo.(pe)
  in
  let ready_length pe =
    Queue.length ready.(pe)
    +
    match config.Config.policy with
    | Config.Fifo -> 0
    | Config.Lifo -> Stack.length lifo.(pe)
  in
  let all_idle () =
    let idle = ref true in
    for pe = 0 to pcount - 1 do
      if ready_length pe > 0 then idle := false
    done;
    !idle && !local_pending = 0 && !inject_pending = 0 && net_pending () = 0
  in
  (* one scheduled fail-stop, if due this cycle: mark the PE dead, remap
     its nodes over the survivors, and report that a restore is needed *)
  let process_death () =
    match !pending_deaths with
    | (dc, dpe) :: rest when dc <= !t ->
        pending_deaths := rest;
        if pcount > 1 && dpe >= 0 && dpe < pcount && alive.(dpe) then begin
          alive.(dpe) <- false;
          (match faults with
          | Some pl -> Fault.record_death pl ~cycle:!t ~pe:dpe
          | None -> ());
          metrics.Recovery.m_deaths <- metrics.Recovery.m_deaths + 1;
          subst := Recovery.substitute ~pes:pcount ~alive;
          place := Recovery.remap !place ~alive;
          true
        end
        else false
    | _ -> false
  in
  try
    let finished = ref false in
    while not !finished do
      if !t > config.Config.max_cycles then
        abort (Diagnosis.Diverged config.Config.max_cycles);
      match recovery with
      | Some rs when process_death () -> do_restore rs
      | _ -> (
          try
            (* 1. network arrivals rendezvous at their destination PE *)
            List.iter (fun (_dst, d) -> deliver d) (net_arrivals ());
            (* 2. same-PE deliveries scheduled for this cycle *)
            (match Hashtbl.find_opt locals !t with
            | Some ds ->
                Hashtbl.remove locals !t;
                List.iter
                  (fun d ->
                    decr local_pending;
                    deliver d)
                  (List.rev ds)
            | None -> ());
            (* 3. completed firings' cross-PE tokens enter injection queues *)
            (match Hashtbl.find_opt to_inject !t with
            | Some ms ->
                Hashtbl.remove to_inject !t;
                List.iter
                  (fun (src, dst, d) ->
                    decr inject_pending;
                    net_inject ~src ~dst d)
                  (List.rev ms)
            | None -> ());
            (* 4a. work stealing: a PE idle past the hysteresis takes the
               enabled firing its closest eligible victim would run LAST.
               Only ready (fully matched) firings move — tokens are
               location-independent, so the theft changes where and when
               the firing executes, never what it computes; the final
               store is the determinacy grid's invariant. *)
            (match steal with
            | Some spec ->
                for pe = 0 to pcount - 1 do
                  if alive.(pe) then
                    if ready_length pe > 0 then idle_ctr.(pe) <- 0
                    else begin
                      idle_ctr.(pe) <- idle_ctr.(pe) + 1;
                      if idle_ctr.(pe) >= spec.Sched.Steal.hysteresis then
                        let tp =
                          match topo with
                          | Some tp -> tp
                          | None ->
                              Sched.Topology.make Sched.Topology.Uniform
                                ~pes:pcount
                        in
                        match
                          Sched.Steal.victim tp spec ~thief:pe
                            ~queue_len:(fun v ->
                              if alive.(v) then ready_length v else 0)
                        with
                        | None -> ()
                        | Some v ->
                            (* the victim's last-to-run: back of its FIFO
                               under Fifo; bottom of its stack (else front
                               of its feed queue, which absorb reverses)
                               under Lifo *)
                            let stolen =
                              if Stack.length lifo.(v) > 0 then begin
                                let l = ref [] in
                                Stack.iter (fun f -> l := f :: !l) lifo.(v);
                                match !l with
                                | bottom :: rest ->
                                    Stack.clear lifo.(v);
                                    List.iter
                                      (fun f -> Stack.push f lifo.(v))
                                      rest;
                                    Some bottom
                                | [] -> None
                              end
                              else
                                match config.Config.policy with
                                | Config.Lifo when Queue.length ready.(v) > 0
                                  ->
                                    Some (Queue.pop ready.(v))
                                | _ ->
                                    let n = Queue.length ready.(v) in
                                    if n = 0 then None
                                    else begin
                                      let last = ref None in
                                      for _ = 1 to n do
                                        let f = Queue.pop ready.(v) in
                                        (match !last with
                                        | Some prev -> Queue.add prev ready.(v)
                                        | None -> ());
                                        last := Some f
                                      done;
                                      !last
                                    end
                            in
                            (match stolen with
                            | Some f ->
                                Queue.add f ready.(pe);
                                incr steals;
                                idle_ctr.(pe) <- 0
                            | None -> ())
                    end
                done
            | None -> ());
            (* 4. every live PE issues at most one enabled firing *)
            for pe = 0 to pcount - 1 do
              if alive.(pe) then begin
                absorb_ready pe;
                let budget = min 1 (ready_length pe) in
                for _ = 1 to budget do
                  execute pe (pop_next pe)
                done;
                per_pe_curve.(pe) <- budget :: per_pe_curve.(pe);
                if budget > 0 then per_pe_busy.(pe) <- per_pe_busy.(pe) + 1
              end
              else per_pe_curve.(pe) <- 0 :: per_pe_curve.(pe)
            done;
            (* 5. the interconnect moves bandwidth-limited messages into
               flight (plus retransmits and held frames under faults) *)
            net_step ();
            (* end-of-cycle sampling *)
            net_occupancy := net_pending () :: !net_occupancy;
            let waiting =
              Array.fold_left (fun a w -> a + Matching.entries w) 0 wait
            in
            if waiting > !peak_matching then peak_matching := waiting;
            (* epoch checkpoint *)
            (match recovery with
            | Some rs when !t >= !next_checkpoint ->
                Recovery.record journal ~cycle:!t (take_snapshot ());
                metrics.Recovery.m_checkpoints <-
                  metrics.Recovery.m_checkpoints + 1;
                next_checkpoint := !t + rs.Recovery.interval
            | _ -> ());
            (* quiescence *)
            if all_idle () then begin
              let leftover = leftover_count () in
              let san_vs =
                match san with
                | Some s ->
                    let by_pe =
                      Array.to_list
                        (Array.mapi
                           (fun pe w -> (pe, Matching.leftover [ w ]))
                           wait)
                    in
                    Sanitize.at_quiescence s ~by_pe
                      ~leftover:(Matching.leftover (Array.to_list wait))
                | None -> []
              in
              (* the certificate's global account: every element retired
                 exactly 1 *)
              let perm_vs =
                match perm with
                | Some p -> Permission.at_quiescence p
                | None -> []
              in
              let bad =
                san_vs <> [] || perm_vs <> []
                || (san <> None && ((not !completed) || leftover <> 0))
              in
              if bad && can_roll_back () then begin
                (* quiesced corrupted, starved or leaky: the fault plan is
                   stateful, so a replay draws fresh wire decisions and
                   the transient does not repeat *)
                incr san_rollbacks;
                raise Rollback
              end
              else begin
                standing_violations := san_vs;
                finished := true
              end
            end
            else incr t
          with Rollback -> (
            match recovery with
            | Some rs -> do_restore rs
            | None -> assert false))
    done;
    let leftover = leftover_count () in
    let verdict =
      match !standing_violations with
      | v :: _ -> Diagnosis.Corrupted (Sanitize.violation_to_string v)
      | [] -> (
          match perm with
          | Some p when Permission.violations p <> [] ->
              Diagnosis.Corrupted
                (Permission.violation_to_string
                   (List.hd (Permission.violations p)))
          | _ ->
              if not !completed then Diagnosis.Deadlock
              else if leftover <> 0 then Diagnosis.Leftover leftover
              else Diagnosis.Clean)
    in
    let st = wire_stats () in
    let total_cycles = !t + 1 in
    let payloads =
      match !rt with
      | Some r -> (Network.rt_stats r).Network.r_sends
      | None -> st.Network.s_messages
    in
    Ok
      {
        memory;
        cycles = !last_cycle;
        firings = !firings;
        memory_ops = !memory_ops;
        completed = !completed;
        leftover_tokens = leftover;
        peak_matching = !peak_matching;
        per_pe_firings;
        per_pe_busy;
        utilisation =
          Array.map
            (fun b -> float_of_int b /. float_of_int (max 1 total_cycles))
            per_pe_busy;
        per_pe_curve =
          Array.map (fun c -> Array.of_list (List.rev c)) per_pe_curve;
        local_deliveries = !local_deliveries;
        net_messages = payloads;
        cut_traffic =
          (if payloads + !local_deliveries = 0 then 0.0
           else
             float_of_int payloads
             /. float_of_int (payloads + !local_deliveries));
        mem_local = !mem_local;
        mem_remote = !mem_remote;
        backpressure = st.Network.s_backpressure;
        peak_queue = st.Network.s_peak_queue;
        net_hops = st.Network.s_hops;
        steals = !steals;
        net_occupancy = Array.of_list (List.rev !net_occupancy);
        placement = !place;
        placement_stats = Placement.stats g !place;
        transport = Option.map Network.rt_stats !rt;
        recovery = (match recovery with Some _ -> Some metrics | None -> None);
        diagnosis = diagnose verdict;
      }
  with Abort d -> Error d

let run_exn ?config ?net ?placement ?tree ?topo ?steal ?on_fire ?faults
    ?recovery ~pes p : result =
  match
    run ?config ?net ?placement ?tree ?topo ?steal ?on_fire ?faults ?recovery
      ~pes p
  with
  | Error d ->
      failwith
        (Fmt.str "multiproc execution failed@.%s" (Diagnosis.to_string d))
  | Ok r ->
      if not r.completed then
        failwith
          (Fmt.str "multiproc execution deadlocked (%d leftover tokens)@.%s"
             r.leftover_tokens
             (Diagnosis.to_string r.diagnosis));
      if r.leftover_tokens <> 0 then
        failwith
          (Fmt.str "multiproc: %d tokens left at quiescence@.%s"
             r.leftover_tokens
             (Diagnosis.to_string r.diagnosis));
      r

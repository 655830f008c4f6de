(** The reference ETS machine (see the interface): one run loop over the
    {!Firing} rule and the {!Matching} store, with two transports.  The
    single-PE transport is the machine {!Interp} reports; the network
    transport composes per-PE matching stores, ready queues and ALUs
    with the {!Network} interconnect under a {!Placement}.  Both report
    the same running counts besides the store: peaks, delivery and kind
    counts.  Given a {!Trace.t}, the loop also writes its firing log and
    per-cycle samples, and every token carries its producer's log index.

    With [?faults] or [?recovery] the network transport switches from
    the raw wire to the {!Network} reliable transport, runs the
    {!Sanitize} invariant checker, and (when [?recovery] is given) takes
    epoch checkpoints it can replay from after a PE fail-stop or a
    sanitizer violation.  The fault-free path is untouched: same
    transport, same timing, same counters as before. *)

type program = {
  graph : Dfg.Graph.t;
  layout : Imp.Layout.t;
}

type result = {
  memory : Imp.Memory.t;
  cycles : int;
  firings : int;
  memory_ops : int;
  completed : bool;
  leftover_tokens : int;
  peak_matching : int;
  dummy_deliveries : int;
  value_deliveries : int;
  peak_parallelism : int;
  peak_in_flight : int;
  firings_by_kind : (string * int) list;
  per_pe_firings : int array;
  per_pe_busy : int array;
  utilisation : float array;
  local_deliveries : int;
  net_messages : int;
  cut_traffic : float;
  mem_local : int;
  mem_remote : int;
  backpressure : int;
  peak_queue : int;
  net_hops : int;
  steals : int;
  placement : Placement.t;
  placement_stats : Placement.stats;
  transport : Network.rt_stats option;
  recovery : Recovery.metrics option;
  diagnosis : Diagnosis.t;
}


(* A token in transit to one input port: its context id, its value,
   the permission fractions riding it, and its producer's firing-log
   index ([-1] for none, or when the run keeps no log).  A token waiting
   in a matching store is the same record. *)
type delivery = {
  m_node : int;
  m_port : int;
  m_cid : int;
  m_value : Imp.Value.t;
  m_bag : Permission.bag;
  m_src : int;
}

(* the empty matching slot, and the filler of a loop gateway's
   back-edge group (see {!Matching.deliver}); never delivered *)
let pad =
  {
    m_node = -1;
    m_port = 0;
    m_cid = 0;
    m_value = Firing.dummy_value;
    m_bag = Permission.empty_bag;
    m_src = -1;
  }

let token_value d = d.m_value

(* An enabled firing carries the tokens it consumed, in port order: its
   values, its permission and its producer are read from them when it
   executes.  Start's boot firing consumes one token made for it, which
   carries the minted permission. *)
type firing = {
  x_node : int;
  x_cid : int;
  x_tokens : delivery array;
}

(* A schedule of pending deliveries: a ring of per-cycle buckets, the
   bucket at [c land (size - 1)] holding what is due at cycle [c] for
   the cycles [w_now .. w_now + size - 1], each in scheduling order.
   It never wraps: a delivery due past that horizon first doubles the
   ring, each bucket moving whole to its cycle's place (memory latency,
   fault delays and remote-memory round trips all lengthen the
   horizon).  Every entry also carries a source and a destination PE,
   the injection schedule's route; the local schedule leaves them 0. *)
type 'a bucket = {
  mutable b_item : 'a array;
  mutable b_src : int array;
  mutable b_dst : int array;
  mutable b_len : int;
}

type 'a wheel = {
  mutable w_buckets : 'a bucket array;
  mutable w_now : int;  (** the next cycle to drain *)
  mutable w_pending : int;
  w_dummy : 'a;  (** fills unused capacity *)
}

let empty_bucket () = { b_item = [||]; b_src = [||]; b_dst = [||]; b_len = 0 }

let wheel_create dummy =
  {
    w_buckets = Array.init 16 (fun _ -> empty_bucket ());
    w_now = 0;
    w_pending = 0;
    w_dummy = dummy;
  }

let rec wheel_push w at src dst x =
  let size = Array.length w.w_buckets in
  if at - w.w_now >= size then begin
    let grown = Array.init (2 * size) (fun _ -> empty_bucket ()) in
    for i = 0 to size - 1 do
      let c = w.w_now + ((i - w.w_now) land (size - 1)) in
      grown.(c land ((2 * size) - 1)) <- w.w_buckets.(i)
    done;
    w.w_buckets <- grown;
    wheel_push w at src dst x
  end
  else begin
    let b = w.w_buckets.(at land (size - 1)) in
    let k = b.b_len in
    if k = Array.length b.b_item then begin
      let n = max 8 (2 * k) in
      let grow a zero =
        let c = Array.make n zero in
        Array.blit a 0 c 0 k;
        c
      in
      b.b_item <- grow b.b_item w.w_dummy;
      b.b_src <- grow b.b_src 0;
      b.b_dst <- grow b.b_dst 0
    end;
    b.b_item.(k) <- x;
    b.b_src.(k) <- src;
    b.b_dst.(k) <- dst;
    b.b_len <- k + 1;
    w.w_pending <- w.w_pending + 1
  end

(* [wheel_drain w t f] hands every delivery due at cycle [t] to [f src
   dst x], in scheduling order.  Nothing is scheduled while a bucket
   drains (every latency is at least one cycle).  A drained slot is
   reset to the dummy: left holding its delivery, the slot would make
   the next minor collection promote a dead record. *)
let wheel_drain w t f =
  let b = w.w_buckets.(t land (Array.length w.w_buckets - 1)) in
  let n = b.b_len in
  b.b_len <- 0;
  w.w_now <- t + 1;
  w.w_pending <- w.w_pending - n;
  for i = 0 to n - 1 do
    f b.b_src.(i) b.b_dst.(i) b.b_item.(i)
  done;
  Array.fill b.b_item 0 n w.w_dummy

(* A wheel's checkpoint: its drain cycle and a copy of every bucket. *)
type 'a wheel_snap = { ws_now : int; ws_buckets : 'a bucket array }

let wheel_snapshot w =
  {
    ws_now = w.w_now;
    ws_buckets =
      Array.map
        (fun b ->
          {
            b_item = Array.sub b.b_item 0 b.b_len;
            b_src = Array.sub b.b_src 0 b.b_len;
            b_dst = Array.sub b.b_dst 0 b.b_len;
            b_len = b.b_len;
          })
        w.w_buckets;
  }

(* [wheel_restore w s ~now ~route] empties [w] and puts back every entry
   of [s], rebased so that [s]'s drain cycle becomes [now], with both
   PEs mapped through [route] (a dead PE's substitute) *)
let wheel_restore w s ~now ~route =
  Array.iter (fun b -> b.b_len <- 0) w.w_buckets;
  w.w_now <- now;
  w.w_pending <- 0;
  let size = Array.length s.ws_buckets in
  Array.iteri
    (fun i b ->
      let c = s.ws_now + ((i - s.ws_now) land (size - 1)) in
      for k = 0 to b.b_len - 1 do
        wheel_push w
          (c - s.ws_now + now)
          (route b.b_src.(k)) (route b.b_dst.(k)) b.b_item.(k)
      done)
    s.ws_buckets

(* What the two machines do differently: how tokens travel and how
   firings issue.  [Single_pe] issues up to [Config.pes] firings a cycle
   under [Config.memory_ports]; faults enter at the delivery and
   memory-issue boundaries, and the sanitizer and the certificate only
   report.  [Network] runs [pes] PEs of one issue each, joined by the
   interconnect, with memory homes, stealing, link faults and recovery;
   there the sanitizer (on under faults) and the certificate roll a
   violation back or stop the run. *)
type transport =
  | Single_pe
  | Network of {
      net : Network.config;
      policy : Placement.policy;
      tree : (int * int option) list;
      topo : Sched.Topology.t option;
      steal : Sched.Steal.spec option;
      recovery : Recovery.spec option;
      pes : int;
    }

(* The wire under the network transport: raw, or the reliable transport
   under faults or recovery.  The single PE has none. *)
type link =
  | No_link
  | Raw of delivery Network.t
  | Reliable of delivery Network.rt

(* An epoch checkpoint: a consistent cut of the whole machine taken at
   the end of a cycle.  Matching stores and ready queues are kept in
   their per-PE buckets but restore re-buckets them through the current
   placement, so a snapshot taken before a death replays cleanly onto
   the survivors.  Undelivered transport payloads are captured as
   (src, dst, payload) — delivered-but-unacked frames are excluded,
   their effect is already inside the snapshot's receiver state.  The
   firing log rolls back to its length at the epoch, with the tokens
   that point into it. *)
type snapshot = {
  sp_wait : delivery Matching.store array;
  sp_ready : firing Queue.t array;
  sp_locals : delivery wheel_snap;
  sp_to_inject : delivery wheel_snap;
  sp_cells : int array;
  sp_present : bool array;
  sp_deferred : (int, (int * int * int) list) Hashtbl.t;
  sp_undelivered : (int * int * delivery) list;
  sp_completed : bool;
  sp_firings : int;
  sp_san : Sanitize.snap option;
  sp_perm : Permission.snap option;
  sp_logged : int;
}

exception Abort of Diagnosis.t

(* Internal: unwinds a partially executed cycle back to the recovery
   loop, which restores the last epoch.  Everything stateful is rebuilt
   from the snapshot, so aborting mid-cycle is safe. *)
exception Rollback

let no_wire =
  { Network.s_messages = 0; s_hops = 0; s_backpressure = 0; s_peak_queue = 0;
    s_peak_in_flight = 0 }

(* The one run loop. *)
let exec ~transport ~(config : Config.t) ?(log : Trace.t option)
    ?(faults : Fault.plan option) (p : program) :
    (result, Diagnosis.t) Stdlib.result =
  let g = p.graph in
  let n = Dfg.Graph.num_nodes g in
  let single, pcount, net, recovery, steal, topo =
    match transport with
    | Single_pe -> (true, 1, Network.default, None, None, None)
    | Network w -> (false, w.pes, w.net, w.recovery, w.steal, w.topo)
  in
  let place =
    ref
      (match transport with
      | Single_pe ->
          (* one PE holds every node: nothing to place *)
          let assign = Array.make n 0 in
          { Placement.pes = 1; policy = Placement.Hash; assign }
      | Network w -> Placement.compute ~tree:w.tree ?topo w.policy ~pes:w.pes g)
  in
  (* per-hop distances under the topology; the constant 1 (no topology)
     is the seed's uniform wire, bit for bit *)
  let hops_fn =
    match topo with
    | Some tp -> Sched.Routing.hops tp
    | None -> fun _ _ -> 1
  in
  (* the distances the steal victim search compares, built once per run:
     the uniform topology when none is given *)
  let steal =
    Option.map
      (fun spec ->
        ( spec,
          match topo with
          | Some tp -> tp
          | None -> Sched.Topology.make Sched.Topology.Uniform ~pes:pcount ))
      steal
  in
  let memory = Imp.Memory.create p.layout in
  (* split-phase memory state, the run's context ids and the emission
     buffer *)
  let env = Firing.make_env ?log ~graph:g ~layout:p.layout memory in
  let ids = env.Firing.ids in
  (* fractional-permission certificate, active only when the translation
     attached its cover metadata; violations mirror sanitizer handling *)
  let perm =
    match g.Dfg.Graph.cert with
    | Some c -> Some (Permission.create ~ids g c)
    | None -> None
  in
  let new_store () = Matching.create ~nodes:n ~ids ~pad in
  (* per-PE machine state *)
  let wait : delivery Matching.store array =
    Array.init pcount (fun _ -> new_store ())
  in
  let ready : firing Queue.t array =
    Array.init pcount (fun _ -> Queue.create ())
  in
  (* transport: same-PE tokens bypass the network on a local schedule;
     cross-PE tokens are scheduled into their source PE's injection
     queue at the producing firing's completion cycle *)
  let locals : delivery wheel = wheel_create pad in
  let to_inject : delivery wheel = wheel_create pad in
  (* fault tolerance switches the network from the raw wire to the
     reliable transport; the fault-free path keeps the raw network and
     its exact timing *)
  let ft = (not single) && (faults <> None || recovery <> None) in
  let make_rt () =
    Network.rt_create ~config:net ~hops:hops_fn
      ?fault:
        (Option.map
           (fun plan -> fun ~cycle ~dst -> Fault.on_link plan ~cycle ~dst)
           faults)
      ~corrupt:(fun b d -> { d with m_value = Fault.flip_value b d.m_value })
      ~pes:pcount ()
  in
  let link =
    ref
      (if single then No_link
       else if ft then Reliable (make_rt ())
       else Raw (Network.create ~config:net ~hops:hops_fn ~pes:pcount ()))
  in
  (* the token-conservation sanitizer: always on, report-only, on the
     single PE; on the network only under faults or recovery, where a
     violation rolls back or stops the run *)
  let san = if single || ft then Some (Sanitize.create ~ids g) else None in
  let violations : Sanitize.violation list ref = ref [] in
  let alive = Array.make pcount true in
  let subst = ref (Array.init pcount (fun i -> i)) in
  let journal : snapshot Recovery.journal = Recovery.journal_create () in
  let metrics = Recovery.metrics_create () in
  let san_rollbacks = ref 0 in
  let pending_deaths =
    ref (match recovery with Some rs -> rs.Recovery.deaths | None -> [])
  in
  (* What both transports report besides the store, kept as running
     values: firings per node (remembering which fired first) and per
     cycle with its peak, the peak of the end-of-cycle in-flight count,
     and the matching stores' running size and its peak (counted on
     insert).  The log, when given, gets every firing and every cycle's
     samples. *)
  let by_node = Array.make n 0 and order = Array.make n 0 in
  let ordered = ref 0 and fired = ref 0 in
  let peak_fired = ref 0 and peak_in_flight = ref 0 in
  let dummy = ref 0 and value = ref 0 in
  let waiting = ref 0 and peak_waiting = ref 0 in
  (* counters *)
  let firings = ref 0 in
  let memory_ops = ref 0 in
  let per_pe_firings = Array.make pcount 0 in
  let per_pe_busy = Array.make pcount 0 in
  let local_deliveries = ref 0 in
  let mem_local = ref 0 in
  let mem_remote = ref 0 in
  let steals = ref 0 in
  (* consecutive cycles each PE has sat with an empty ready queue —
     the stealing hysteresis clock *)
  let idle_ctr = Array.make pcount 0 in
  let completed = ref false in
  let last_cycle = ref 0 in
  let t = ref 0 in
  let net_inject ~src ~dst d =
    match !link with
    | Reliable r -> Network.rt_send r ~now:!t ~src ~dst d
    | Raw w -> Network.inject w ~src ~dst d
    | No_link -> assert false (* one PE: every token is local *)
  in
  let net_arrivals () =
    match !link with
    | Reliable r -> Network.rt_arrivals r ~now:!t
    | Raw w -> Network.arrivals w ~now:!t
    | No_link -> []
  in
  let net_step () =
    match !link with
    | Reliable r -> Network.rt_step r ~now:!t
    | Raw w -> Network.step w ~now:!t
    | No_link -> ()
  in
  let net_pending () =
    match !link with
    | Reliable r -> Network.rt_pending r
    | Raw w -> Network.in_transit w
    | No_link -> 0
  in
  let wire_stats () =
    match !link with
    | Reliable r -> Some (Network.rt_wire_stats r)
    | Raw w -> Some (Network.stats w)
    | No_link -> None
  in
  let leftover_count () =
    Matching.leftover (Array.to_list wait) + Firing.deferred_count env
  in
  let waiting_by_pe () =
    Array.to_list (Array.mapi (fun pe w -> (pe, Matching.leftover [ w ])) wait)
  in
  let diagnose (verdict : Diagnosis.verdict) : Diagnosis.t =
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
                      b_pe = (if single then None else Some pe);
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
        (if single then []
         else List.filter (fun (_, n) -> n <> 0) (waiting_by_pe ()));
      peak_matching = !peak_waiting;
      network =
        Option.map
          (fun st ->
            {
              Diagnosis.net_messages = st.Network.s_messages;
              net_backpressure = st.Network.s_backpressure;
              net_peak_queue = st.Network.s_peak_queue;
              net_peak_in_flight = st.Network.s_peak_in_flight;
            })
          (wire_stats ());
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
  let schedule_local at d =
    incr local_deliveries;
    wheel_push locals at 0 0 d
  in
  let schedule_inject at src dst d = wheel_push to_inject at src dst d in
  (* the matching stores' peak, counted at every insert: the delivering
     PE and its store's size before the delivery ride in two refs, so
     the callback is built once, not per delivery *)
  let ins_pe = ref 0 and ins_before = ref 0 in
  let on_insert =
    Some
      (fun () ->
        let now = !waiting + Matching.entries wait.(!ins_pe) - !ins_before in
        if now > !peak_waiting then peak_waiting := now)
  in
  (* Merges and one-input nodes fire on arrival with no store entry: a
     merge matches nothing, and a one-input node's token is a momentary
     entry, counted as its insert would count it *)
  let bypass =
    Array.init n (fun v ->
        match Dfg.Graph.kind g v with
        | Dfg.Node.Loop_entry _ -> false
        | k -> Dfg.Node.in_arity k <= 1)
  in
  let deliver (d : delivery) =
    let node = d.m_node in
    let kind = Dfg.Graph.kind g node in
    let pe = (!place).Placement.assign.(node) in
    (match san with
    | Some s -> Sanitize.on_delivery s ~node ~port:d.m_port
    | None -> ());
    if bypass.(node) then begin
      (match kind with
      | Dfg.Node.Merge -> ()
      | _ -> if !waiting + 1 > !peak_waiting then peak_waiting := !waiting + 1);
      Queue.add { x_node = node; x_cid = d.m_cid; x_tokens = [| d |] } ready.(pe)
    end
    else begin
      let w = wait.(pe) in
      let before = Matching.entries w in
      ins_pe := pe;
      ins_before := before;
      let outcome =
        Matching.deliver ~kind
          ~detect_collisions:config.Config.detect_collisions ?on_insert w
          ~node ~cid:d.m_cid ~port:d.m_port d
      in
      waiting := !waiting + Matching.entries w - before;
      match outcome with
      | Matching.Collision ->
          abort
            (Diagnosis.Collision
               (Fmt.str "node %d (%s) port %d ctx %s%s" d.m_node
                  (Dfg.Graph.node g d.m_node).Dfg.Node.label d.m_port
                  (Context.to_string (Context.of_id ids d.m_cid))
                  (if single then "" else Fmt.str " (PE %d)" pe)))
      | Matching.Wait -> ()
      | Matching.Fire tokens ->
          Queue.add { x_node = node; x_cid = d.m_cid; x_tokens = tokens } ready.(pe)
    end
  in
  (* Can a sanitizer violation be rolled back right now? *)
  let can_roll_back () =
    match recovery with
    | Some rs ->
        !san_rollbacks < rs.Recovery.max_rollbacks
        && Recovery.last journal <> None
    | None -> false
  in
  (* A violation observed mid-run: the single PE only reports it; the
     network rolls back to the last epoch when it can and otherwise
     stops with the report. *)
  let violated ~report msg =
    if single then report ()
    else if can_roll_back () then begin
      incr san_rollbacks;
      raise Rollback
    end
    else begin
      report ();
      abort (Diagnosis.Corrupted msg)
    end
  in
  let count_arc (a : Dfg.Graph.arc) =
    if a.Dfg.Graph.dummy then incr dummy else incr value
  in
  (* The single PE's delivery boundary, where the fault plan may drop,
     duplicate, corrupt or delay a token: a dropped token destroys its
     bag, a duplicated one duplicates it -- exactly what the quiescence
     account then reports. *)
  let deliver_later (a : Dfg.Graph.arc) at d =
    let at, d, copies =
      match faults with
      | None -> (at, d, 1)
      | Some plan -> (
          match
            Fault.on_delivery plan ~cycle:at ~node:d.m_node ~value:d.m_value
          with
          | Fault.Pass | Fault.Act (Fault.Port_stall _ | Fault.Pe_death) ->
              (at, d, 1)
          | Fault.Act Fault.Drop -> (at, d, 0)
          | Fault.Act Fault.Duplicate -> (at, d, 2)
          | Fault.Act (Fault.Bit_flip b) ->
              (at, { d with m_value = Fault.flip_value b d.m_value }, 1)
          | Fault.Act (Fault.Delay k | Fault.Reorder k) -> (at + k, d, 1))
    in
    for _ = 1 to copies do
      count_arc a;
      schedule_local at d
    done
  in
  (* the firing rule's callbacks, built once per run *)
  let on_complete () = completed := true in
  let double_write msg = abort (Diagnosis.Double_write msg) in
  let out = env.Firing.out in
  let no_bags : Permission.bag array = [||] in
  (* send emission [i] along [arcs], its deliveries numbered from [k]
     in the permission split [bags]; returns the next number *)
  let rec send_arcs ~src_pe ~t_done i (arcs : Dfg.Graph.arc list) k bags =
    match arcs with
    | [] -> k
    | a :: rest ->
        let dstn = a.Dfg.Graph.dst.Dfg.Graph.node in
        let d =
          {
            m_node = dstn;
            m_port = a.Dfg.Graph.dst.Dfg.Graph.index;
            m_cid = out.Firing.e_cid.(i);
            m_value = out.Firing.e_val.(i);
            m_bag = (if bags == no_bags then Permission.empty_bag else bags.(k));
            m_src = out.Firing.e_src.(i);
          }
        in
        if single then deliver_later a t_done d
        else begin
          count_arc a;
          let dst_pe = (!place).Placement.assign.(dstn) in
          if dst_pe = src_pe then schedule_local t_done d
          else schedule_inject t_done src_pe dst_pe d
        end;
        send_arcs ~src_pe ~t_done i rest (k + 1) bags
  in
  (* the consumed tokens' permission, joined in port order; a fraction
     past the guard leaves the firing holding nothing *)
  let rec join_tokens (tokens : delivery array) i acc =
    if i = Array.length tokens then acc
    else join_tokens tokens (i + 1) (Permission.join acc tokens.(i).m_bag)
  in
  let execute pe (f : firing) =
    let node = f.x_node and tokens = f.x_tokens in
    let kind = Dfg.Graph.kind g node in
    incr firings;
    per_pe_firings.(pe) <- per_pe_firings.(pe) + 1;
    let seen = by_node.(node) in
    if seen = 0 then begin
      order.(!ordered) <- node;
      incr ordered
    end;
    by_node.(node) <- seen + 1;
    incr fired;
    (* logged, a firing extends the deepest of its input chains *)
    let my_id =
      match log with
      | Some l ->
          let pred = ref (-1) in
          for i = 0 to Array.length tokens - 1 do
            pred := Trace.deeper l !pred tokens.(i).m_src
          done;
          Trace.fire l ~node ~ctx:(Context.of_id ids f.x_cid) ~cycle:!t ~pe
            ~pred:!pred
      | None -> -1
    in
    (match san with
    | Some s -> (
        match
          Sanitize.on_fire_id s ~node ~cid:f.x_cid ~group:(Array.length tokens)
        with
        | Some v ->
            violated (Sanitize.violation_to_string v) ~report:(fun () ->
                violations := v :: !violations)
        | None -> ())
    | None -> ());
    (* certificate: join the consumed bags and assert the cover
       requirement before the operator's effect *)
    let held =
      match perm with
      | Some p ->
          let held =
            try join_tokens tokens 0 Permission.empty_bag
            with Permission.Frac.Overflow -> Permission.empty_bag
          in
          (match Permission.require p ~node ~cid:f.x_cid held with
          | [] -> ()
          | v :: _ -> violated (Permission.violation_to_string v) ~report:ignore);
          held
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
       served by that PE's substitute.  The single PE owns every
       module. *)
    let mem_penalty =
      if Dfg.Node.is_memory_op kind then begin
        incr memory_ops;
        let home =
          if single then pe
          else
            let addr = Firing.address env kind ~value:token_value tokens in
            (!subst).(Network.home_pe net ~pes:pcount ~addr)
        in
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
       the actual deliveries; the sends below keep the emission-then-arc
       order, keeping fault draws, routing and timing bit-identical *)
    Firing.execute env ~meta:my_id ~on_complete ~double_write ~node
      ~cid:f.x_cid ~value:token_value ~inputs:tokens;
    let bags =
      match perm with
      | Some p when held <> [] -> Firing.split env p ~node ~held
      | _ -> no_bags
    in
    let k = ref 0 in
    for i = 0 to out.Firing.e_len - 1 do
      let en = out.Firing.e_node.(i) and ep = out.Firing.e_port.(i) in
      let t_done =
        if is_load && en = node && ep = 0 then value_done else t_done
      in
      (* emissions route from the PE of the emitting node: a deferred
         I-structure read completed by a remote store answers from the
         parked load's PE, not the store's.  The firing node's own
         emissions leave from the PE actually EXECUTING it — equal to
         its placed PE except for a stolen firing, which emits from the
         thief *)
      let src_pe =
        if single || en = node then pe else (!place).Placement.assign.(en)
      in
      k := send_arcs ~src_pe ~t_done i (Dfg.Graph.outgoing g en ep) !k bags
    done;
    Firing.clear env
  in
  (* The single PE's issue rule; an injected port stall at the
     memory-issue boundary refuses a memory operation like a busy
     port *)
  let is_mem f = Dfg.Node.is_memory_op (Dfg.Graph.kind g f.x_node) in
  let stalled =
    match faults with
    | Some plan -> fun f -> Fault.on_memory_issue plan ~cycle:!t ~node:f.x_node
    | None -> fun _ -> false
  in
  let fire_single f = execute 0 f in
  let issue_single () =
    Firing.issue config ready.(0) ~is_mem ~stalled ~fire:fire_single
  in
  (* Every live PE issues at most one enabled firing.  First, work
     stealing: a PE idle past the hysteresis takes the enabled firing
     its closest eligible victim would run LAST (the back of its FIFO).
     Only ready (fully matched) firings move — tokens are
     location-independent, so the theft changes where and when the
     firing executes, never what it computes; the final store is the
     determinacy grid's invariant. *)
  let issue_network () =
    (match steal with
    | Some (spec, steal_topo) ->
        for pe = 0 to pcount - 1 do
          if alive.(pe) then
            if not (Queue.is_empty ready.(pe)) then idle_ctr.(pe) <- 0
            else begin
              idle_ctr.(pe) <- idle_ctr.(pe) + 1;
              if idle_ctr.(pe) >= spec.Sched.Steal.hysteresis then
                match
                  Sched.Steal.victim steal_topo spec ~thief:pe
                    ~queue_len:(fun v ->
                      if alive.(v) then Queue.length ready.(v) else 0)
                with
                | Some v when not (Queue.is_empty ready.(v)) ->
                    (* rotate all but the last-to-run back in *)
                    let q = ready.(v) in
                    for _ = 2 to Queue.length q do
                      Queue.add (Queue.pop q) q
                    done;
                    Queue.add (Queue.pop q) ready.(pe);
                    incr steals;
                    idle_ctr.(pe) <- 0
                | _ -> ()
            end
        done
    | None -> ());
    for pe = 0 to pcount - 1 do
      if alive.(pe) then begin
        let budget = min 1 (Queue.length ready.(pe)) in
        for _ = 1 to budget do
          execute pe (Queue.pop ready.(pe))
        done;
        if budget > 0 then per_pe_busy.(pe) <- per_pe_busy.(pe) + 1
      end
    done
  in
  (* --- checkpoint / restore ------------------------------------------- *)
  let take_snapshot () : snapshot =
    {
      sp_wait = Array.map Matching.copy wait;
      sp_ready = Array.map Queue.copy ready;
      sp_locals = wheel_snapshot locals;
      sp_to_inject = wheel_snapshot to_inject;
      sp_cells = Array.copy memory.Imp.Memory.cells;
      sp_present = Array.copy env.Firing.present;
      sp_deferred = Hashtbl.copy env.Firing.deferred;
      sp_undelivered =
        (match !link with Reliable r -> Network.rt_undelivered r | _ -> []);
      sp_completed = !completed;
      sp_firings = !firings;
      sp_san = Option.map Sanitize.snapshot san;
      sp_perm = Option.map Permission.snapshot perm;
      sp_logged = (match log with Some l -> Trace.length l | None -> 0);
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
    (* matching stores and ready queues, re-bucketed by current assign *)
    for pe = 0 to pcount - 1 do
      wait.(pe) <- new_store ();
      ready.(pe) <- Queue.create ()
    done;
    Array.iter
      (fun store ->
        Matching.copy_into store ~dst:(fun node ->
            wait.((!place).Placement.assign.(node))))
      sp.sp_wait;
    waiting := Array.fold_left (fun a w -> a + Matching.entries w) 0 wait;
    let requeue (f : firing) =
      Queue.add f ready.((!place).Placement.assign.(f.x_node))
    in
    Array.iter (fun q -> Queue.iter requeue q) sp.sp_ready;
    (* pending schedules, rebased onto the resume cycle (the snapshot's
       were due from cycle c + 1 on) *)
    wheel_restore locals sp.sp_locals ~now:resume ~route:Fun.id;
    wheel_restore to_inject sp.sp_to_inject ~now:resume ~route:(fun pe ->
        (!subst).(pe));
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
    let r = make_rt () in
    link := Reliable r;
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
    Option.iter (fun l -> Trace.rollback l sp.sp_logged) log;
    t := resume;
    Array.fill idle_ctr 0 pcount 0;
    if resume > !last_cycle then last_cycle := resume
  in
  (* boot: fire Start on its home PE at cycle 0; Start mints the full
     permission of every cover element *)
  Queue.add
    {
      x_node = g.Dfg.Graph.start;
      x_cid = Context.id ids Context.toplevel;
      x_tokens =
        [|
          {
            pad with
            m_bag =
              (match perm with
              | Some p -> Permission.mint p
              | None -> Permission.empty_bag);
          };
        |];
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
  let deliver_local _ _ d = deliver d in
  let inject src dst d = net_inject ~src ~dst d in
  try
    let finished = ref false in
    while not !finished do
      if !t > config.Config.max_cycles then
        abort (Diagnosis.Diverged config.Config.max_cycles);
      match recovery with
      | Some rs when process_death () -> do_restore rs
      | _ -> (
          try
            fired := 0;
            (* 1. network arrivals rendezvous at their destination PE *)
            List.iter (fun (_dst, d) -> deliver d) (net_arrivals ());
            (* 2. same-PE deliveries scheduled for this cycle *)
            wheel_drain locals !t deliver_local;
            (* 3. completed firings' cross-PE tokens enter injection queues *)
            wheel_drain to_inject !t inject;
            (* 4. issue *)
            if single then issue_single () else issue_network ();
            (* 5. the interconnect moves bandwidth-limited messages into
               flight (plus retransmits and held frames under faults) *)
            net_step ();
            (* end-of-cycle sampling *)
            let on_wire = net_pending () in
            let in_flight = locals.w_pending + to_inject.w_pending + on_wire in
            if !fired > !peak_fired then peak_fired := !fired;
            if in_flight > !peak_in_flight then peak_in_flight := in_flight;
            (* the single PE is busy in every cycle that fired *)
            if single && !fired > 0 then per_pe_busy.(0) <- per_pe_busy.(0) + 1;
            (match log with
            | Some l ->
                Trace.sample l ~fired:!fired ~in_flight ~matching:!waiting
            | None -> ());
            (* epoch checkpoint *)
            (match recovery with
            | Some rs when !t >= !next_checkpoint ->
                Recovery.record journal ~cycle:!t (take_snapshot ());
                metrics.Recovery.m_checkpoints <-
                  metrics.Recovery.m_checkpoints + 1;
                next_checkpoint := !t + rs.Recovery.interval
            | _ -> ());
            (* quiescence *)
            if
              Array.for_all Queue.is_empty ready
              && locals.w_pending = 0 && to_inject.w_pending = 0 && on_wire = 0
            then begin
              let leftover = leftover_count () in
              let san_vs =
                match san with
                | Some s ->
                    Sanitize.at_quiescence s
                      ?by_pe:(if single then None else Some (waiting_by_pe ()))
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
                violations := List.rev_append san_vs !violations;
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
    (* the network stops on corruption; the single PE only reports it *)
    let corrupted =
      if single then None
      else
        match (List.rev !violations, perm) with
        | v :: _, _ -> Some (Sanitize.violation_to_string v)
        | [], Some p -> (
            match Permission.violations p with
            | v :: _ -> Some (Permission.violation_to_string v)
            | [] -> None)
        | [], None -> None
    in
    let verdict =
      match corrupted with
      | Some m -> Diagnosis.Corrupted m
      | None ->
          if not !completed then Diagnosis.Deadlock
          else if leftover <> 0 then Diagnosis.Leftover leftover
          else Diagnosis.Clean
    in
    let st = Option.value (wire_stats ()) ~default:no_wire in
    let total_cycles = !t + 1 in
    let payloads =
      match !link with
      | Reliable r -> (Network.rt_stats r).Network.r_sends
      | _ -> st.Network.s_messages
    in
    let firings_by_kind = Firing.by_kind g ~fired:by_node ~order !ordered in
    Ok
      {
        memory;
        cycles = !last_cycle;
        firings = !firings;
        memory_ops = !memory_ops;
        completed = !completed;
        leftover_tokens = leftover;
        peak_matching = !peak_waiting;
        dummy_deliveries = !dummy;
        value_deliveries = !value;
        peak_parallelism = !peak_fired;
        peak_in_flight = !peak_in_flight;
        firings_by_kind;
        per_pe_firings;
        per_pe_busy;
        utilisation =
          Array.map
            (fun b -> float_of_int b /. float_of_int (max 1 total_cycles))
            per_pe_busy;
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
        placement = !place;
        placement_stats = Placement.stats g !place;
        transport =
          (match !link with
          | Reliable r -> Some (Network.rt_stats r)
          | _ -> None);
        recovery = (match recovery with Some _ -> Some metrics | None -> None);
        diagnosis = diagnose verdict;
      }
  with Abort d -> Error d


let run ?(config = Config.default) ?(net = Network.default)
    ?(placement = Placement.Hash) ?(tree = []) ?topo ?steal ?log ?faults
    ?recovery ~pes (p : program) : (result, Diagnosis.t) Stdlib.result =
  if pes < 1 then invalid_arg "Multiproc.run: pes must be >= 1";
  if config.Config.engine <> Config.Reference then
    invalid_arg
      "Multiproc.run: the multiprocessor runs on the reference engine only";
  exec ~config ?log ?faults
    ~transport:
      (Network { net; policy = placement; tree; topo; steal; recovery; pes })
    p

let run_single ?(config = Config.default) ?faults ?log (p : program) =
  exec ~config ?faults ?log ~transport:Single_pe p

let run_exn ?config ?net ?placement ?tree ?topo ?steal ?log ?faults
    ?recovery ~pes p : result =
  match
    run ?config ?net ?placement ?tree ?topo ?steal ?log ?faults ?recovery
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

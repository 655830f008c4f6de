(** The packed explicit-token-store execution core (see the interface).

    [compile_graph] lowers a {!Dfg.Graph.t} once into flat instruction
    arrays — int opcode, matching arity, frame offset, flattened
    destination (node, port) pairs — and [run_report] executes the
    compiled code with a real explicit token store: operand slots and
    presence stamps live in preallocated per-context frames recycled
    through a free list, and the schedule is an event-driven ready
    wheel, so empty cycles cost nothing.

    The operator semantics are shared with the reference machines: the
    hot ALU/routing opcodes are specialised inline, everything with a
    side effect (start, end, loads, stores and their deferred
    I-structure reads) goes through {!Firing.execute}.  Determinacy of
    the translated graphs is what makes the split sound — the final
    store does not depend on scheduling — and the differential suite
    (test/test_packed.ml) holds the engine to bit-identical stores
    against the reference interpreter. *)

(* ------------------------------------------------------------------ *)
(* Instruction encoding                                               *)

let op_start = 0
let op_end = 1
let op_const = 2
let op_binop = 3
let op_unop = 4
let op_id = 5
let op_sink = 6
let op_load = 7
let op_store = 8
let op_switch = 9
let op_merge = 10
let op_synch = 11
let op_loop_entry = 12
let op_loop_exit = 13

(* family names per opcode; Binop and Unop share "alu" like
   {!Firing.family} *)
let op_family =
  [|
    "start"; "end"; "const"; "alu"; "alu"; "id"; "sink"; "load"; "store";
    "switch"; "merge"; "synch"; "loop-entry"; "loop-exit";
  |]

let opcode_of_kind : Dfg.Node.kind -> int = function
  | Dfg.Node.Start _ -> op_start
  | Dfg.Node.End _ -> op_end
  | Dfg.Node.Const _ -> op_const
  | Dfg.Node.Binop _ -> op_binop
  | Dfg.Node.Unop _ -> op_unop
  | Dfg.Node.Id -> op_id
  | Dfg.Node.Sink -> op_sink
  | Dfg.Node.Load _ -> op_load
  | Dfg.Node.Store _ -> op_store
  | Dfg.Node.Switch -> op_switch
  | Dfg.Node.Merge -> op_merge
  | Dfg.Node.Synch _ -> op_synch
  | Dfg.Node.Loop_entry _ -> op_loop_entry
  | Dfg.Node.Loop_exit _ -> op_loop_exit

(* A per-context activation frame: operand values and permission bags
   indexed by the node's frame offset plus input port, with generation
   stamps for presence so a recycled frame needs no clearing.  [f_need]
   counts the inputs a node still waits for ([f_need_back] for a loop
   gateway's back-edge group); the lazily stamped counters re-arm after
   every fire, so a node can rendezvous repeatedly in one context
   exactly as the reference matching store allows. *)
type frame = {
  f_vals : Imp.Value.t array;
  f_bags : Permission.bag array;
  f_stamp : int array;  (** slot holds a token iff [= f_gen] *)
  f_need : int array;
  f_nstamp : int array;
  f_need_back : int array;
  f_bstamp : int array;
  mutable f_gen : int;
  mutable f_occ : int;  (** tokens currently held *)
}

(* the drained-frame sentinel: a context id maps here when no frame is
   allocated for it, so the hot-path test is one physical comparison *)
let nil_frame =
  {
    f_vals = [||];
    f_bags = [||];
    f_stamp = [||];
    f_need = [||];
    f_nstamp = [||];
    f_need_back = [||];
    f_bstamp = [||];
    f_gen = 0;
    f_occ = 0;
  }

type code = {
  g : Dfg.Graph.t;
  n : int;
  opcode : int array;
  kinds : Dfg.Node.kind array;  (** payload access (const values, ops) *)
  in_ar : int array;  (** matching arity; 0 for merges (never matched) *)
  loop_ar : int array;  (** gateway group arity; 0 elsewhere *)
  is_mem : bool array;
  frame_off : int array;  (** operand-slot base within a frame *)
  slots : int;  (** operand slots per frame (sum of matching arities) *)
  (* flattened fan-out: the arcs leaving port [p] of node [v] are
     dst_*.(j) for j in [dest_base.(port_base.(v) + p)
                         .. dest_base.(port_base.(v) + p + 1) - 1] *)
  port_base : int array;
  dest_base : int array;
  dst_node : int array;
  dst_port : int array;
  dst_dummy : bool array;
  dst_tokens : int list array;
  start : int;
  (* recycled activation frames, shared across runs of this code (the
     engine is single-threaded); a frame's generation stamp makes any
     stale contents invisible to the next run *)
  mutable pool : frame list;
}

let graph (c : code) = c.g
let instructions (c : code) = c.n
let frame_slots (c : code) = c.slots

let compile_graph (g : Dfg.Graph.t) : code =
  let n = Dfg.Graph.num_nodes g in
  let opcode = Array.make n 0 in
  let kinds = Array.make n Dfg.Node.Id in
  let in_ar = Array.make n 0 in
  let loop_ar = Array.make n 0 in
  let is_mem = Array.make n false in
  let frame_off = Array.make n 0 in
  let out_ar = Array.make n 0 in
  let slots = ref 0 in
  for v = 0 to n - 1 do
    let k = Dfg.Graph.kind g v in
    let op = opcode_of_kind k in
    opcode.(v) <- op;
    kinds.(v) <- k;
    is_mem.(v) <- Dfg.Node.is_memory_op k;
    out_ar.(v) <- Dfg.Node.out_arity k;
    (match k with
    | Dfg.Node.Loop_entry { arity; _ } -> loop_ar.(v) <- arity
    | _ -> ());
    frame_off.(v) <- !slots;
    if op <> op_merge then begin
      in_ar.(v) <- Dfg.Node.in_arity k;
      slots := !slots + in_ar.(v)
    end
  done;
  (* flatten the fan-out lists; arc order within a port is preserved so
     the certified permission split sees the same delivery order as the
     reference engine *)
  let port_base = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    port_base.(v + 1) <- port_base.(v) + out_ar.(v)
  done;
  let total_ports = port_base.(n) in
  let dest_base = Array.make (total_ports + 1) 0 in
  let total = ref 0 in
  for v = 0 to n - 1 do
    for p = 0 to out_ar.(v) - 1 do
      dest_base.(port_base.(v) + p) <- !total;
      total := !total + List.length (Dfg.Graph.outgoing g v p)
    done
  done;
  dest_base.(total_ports) <- !total;
  let dst_node = Array.make (max 1 !total) 0 in
  let dst_port = Array.make (max 1 !total) 0 in
  let dst_dummy = Array.make (max 1 !total) false in
  let dst_tokens = Array.make (max 1 !total) [] in
  for v = 0 to n - 1 do
    for p = 0 to out_ar.(v) - 1 do
      List.iteri
        (fun i (a : Dfg.Graph.arc) ->
          let j = dest_base.(port_base.(v) + p) + i in
          dst_node.(j) <- a.Dfg.Graph.dst.Dfg.Graph.node;
          dst_port.(j) <- a.Dfg.Graph.dst.Dfg.Graph.index;
          dst_dummy.(j) <- a.Dfg.Graph.dummy;
          dst_tokens.(j) <- a.Dfg.Graph.tokens)
        (Dfg.Graph.outgoing g v p)
    done
  done;
  {
    g;
    n;
    opcode;
    kinds;
    in_ar;
    loop_ar;
    is_mem;
    frame_off;
    slots = !slots;
    port_base;
    dest_base;
    dst_node;
    dst_port;
    dst_dummy;
    dst_tokens;
    start = g.Dfg.Graph.start;
    pool = [];
  }

(* ------------------------------------------------------------------ *)
(* Runtime state                                                      *)

let dummy_value = Firing.dummy_value

(* unchecked array indexing for the per-token hot path; every index is
   bounded by the compiled layout (node < n, slot < slots, cid < nctx) *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(* One ready-wheel bucket: a reusable growable vector of in-flight
   deliveries held as parallel arrays, so scheduling a token allocates
   nothing.  A token's context rides along both as its interned id
   (the frame key) and as the structural context (for observers). *)
type bucket = {
  mutable b_node : int array;
  mutable b_port : int array;
  mutable b_cid : int array;
  mutable b_ctx : Context.t array;
  mutable b_val : Imp.Value.t array;
  mutable b_bag : Permission.bag array;
  mutable b_len : int;
}

let fresh_bucket n =
  {
    b_node = Array.make n 0;
    b_port = Array.make n 0;
    b_cid = Array.make n 0;
    b_ctx = Array.make n Context.toplevel;
    b_val = Array.make n dummy_value;
    b_bag = Array.make n Permission.empty_bag;
    b_len = 0;
  }

let bucket_push (b : bucket) node port cid ctx v bag =
  let k = b.b_len in
  if k = Array.length b.b_node then begin
    let n = max 16 (2 * k) in
    let grow src zero =
      let a = Array.make n zero in
      Array.blit src 0 a 0 k;
      a
    in
    b.b_node <- grow b.b_node 0;
    b.b_port <- grow b.b_port 0;
    b.b_cid <- grow b.b_cid 0;
    b.b_ctx <- grow b.b_ctx Context.toplevel;
    b.b_val <- grow b.b_val dummy_value;
    b.b_bag <- grow b.b_bag Permission.empty_bag
  end;
  b.b_node.!(k) <- node;
  b.b_port.!(k) <- port;
  b.b_cid.!(k) <- cid;
  b.b_ctx.!(k) <- ctx;
  b.b_val.!(k) <- v;
  b.b_bag.!(k) <- bag;
  b.b_len <- k + 1

type firing = {
  fr_node : int;
  fr_cid : int;
  fr_ctx : Context.t;
  fr_inputs : Imp.Value.t array;
  fr_bags : Permission.bag list;  (** [[]] on uncertified runs *)
}

type result = {
  memory : Imp.Memory.t;
  cycles : int;
  firings : int;
  memory_ops : int;
  dummy_deliveries : int;
  value_deliveries : int;
  peak_parallelism : int;
  completed : bool;
  leftover_tokens : int;
  peak_frames : int;  (** most simultaneously live context frames *)
  peak_in_flight : int;
  firings_by_kind : (string * int) list;
  throttled : int;  (** deliveries postponed by the frame-store bound *)
  spilled : int;
  diagnosis : Diagnosis.t;
}

exception Abort of Diagnosis.t

let run_report ?(config = Config.default) ?(sanitize = true)
    ?(on_fire : (int -> int -> Context.t -> unit) option)
    ~(layout : Imp.Layout.t) (c : code) :
    (result, Diagnosis.t) Stdlib.result =
  let g = c.g in
  let memory = Imp.Memory.create layout in
  let env : unit Firing.env = Firing.make_env ~graph:g ~layout memory in
  let san = if sanitize then Some (Sanitize.create g) else None in
  let violations : Sanitize.violation list ref = ref [] in
  let perm =
    match g.Dfg.Graph.cert with
    | Some cert -> Some (Permission.create g cert)
    | None -> None
  in
  let cap = config.Config.max_matching in
  (* the frame bound as a plain int: max_int means unbounded *)
  let capk = match cap with Some k -> k | None -> max_int in
  let direct =
    config.Config.pes = None
    && config.Config.memory_ports = None
    && config.Config.policy = Config.Fifo
    &&
    let l = config.Config.latencies in
    l.Config.alu >= 1 && l.Config.memory >= 1 && l.Config.routing >= 1
  in
  (* Contexts are interned to dense ids at the one place they are
     minted — gateway firings — so the per-token path indexes flat
     arrays and never hashes or structurally compares a context list.
     Frames live in an id-indexed array, recycled through a free list:
     a context's slot points at [nil_frame] whenever it holds no
     tokens. *)
  let ctx_ids : (Context.t, int) Hashtbl.t = Hashtbl.create 64 in
  let ctx_of_id = ref (Array.make 64 Context.toplevel) in
  let frames = ref (Array.make 64 nil_frame) in
  let nctx = ref 0 in
  (* frame pool handed across runs of this code *)
  let free : frame list ref = ref c.pool in
  c.pool <- [];
  let gen = ref 1 in
  let live = ref 0 in
  (* frames holding at least one token *)
  let peak_frames = ref 0 in
  let intern ctx =
    match Hashtbl.find_opt ctx_ids ctx with
    | Some i -> i
    | None ->
        let i = !nctx in
        incr nctx;
        if i >= Array.length !ctx_of_id then begin
          let a = Array.make (2 * i) Context.toplevel in
          Array.blit !ctx_of_id 0 a 0 i;
          ctx_of_id := a;
          let b = Array.make (2 * i) nil_frame in
          Array.blit !frames 0 b 0 i;
          frames := b
        end;
        !ctx_of_id.(i) <- ctx;
        Hashtbl.add ctx_ids ctx i;
        i
  in
  let fresh_frame () =
    {
      f_vals = Array.make (max 1 c.slots) dummy_value;
      f_bags = Array.make (max 1 c.slots) Permission.empty_bag;
      f_stamp = Array.make (max 1 c.slots) 0;
      f_need = Array.make c.n 0;
      f_nstamp = Array.make c.n 0;
      f_need_back = Array.make c.n 0;
      f_bstamp = Array.make c.n 0;
      f_gen = 0;
      f_occ = 0;
    }
  in
  let acquire cid =
    let f =
      match !free with
      | f :: tl ->
          free := tl;
          f
      | [] -> fresh_frame ()
    in
    incr gen;
    f.f_gen <- !gen;
    f.f_occ <- 0;
    !frames.(cid) <- f;
    f
  in
  (* a drained frame goes straight back to the pool; in-flight tokens
     address it by context id, so a later arrival re-acquires cleanly *)
  let release cid (f : frame) =
    !frames.(cid) <- nil_frame;
    free := f :: !free;
    decr live
  in
  (* hand every frame back to the code's pool on the way out (stale
     contents are invisible behind the generation stamp) *)
  let repool () =
    for i = 0 to !nctx - 1 do
      let f = !frames.(i) in
      if f != nil_frame then free := f :: !free
    done;
    c.pool <- !free
  in
  (* the ready wheel: schedule offsets are bounded by the largest
     operation latency plus the one-cycle throttle retry, so a
     power-of-two wheel just above that can never wrap *)
  let wheel_size =
    let l = config.Config.latencies in
    let m = max l.Config.alu (max l.Config.memory l.Config.routing) + 2 in
    let rec pow2 w = if w >= m then w else pow2 (2 * w) in
    pow2 8
  in
  let mask = wheel_size - 1 in
  let wheel =
    Array.init wheel_size (fun _ -> fresh_bucket 16)
  in
  let pending = ref 0 in
  let peak_in_flight = ref 0 in
  (* the ready queue (FIFO), with a LIFO absorption stack *)
  let ready : firing Queue.t = Queue.create () in
  let lifo : firing Stack.t = Stack.create () in
  (* counters *)
  let firings = ref 0 in
  let memory_ops = ref 0 in
  let op_counts = Array.make (Array.length op_family) 0 in
  let dummy_deliveries = ref 0 in
  let value_deliveries = ref 0 in
  let peak_parallelism = ref 0 in
  let throttled = ref 0 in
  let throttled_this_cycle = ref 0 in
  let spilled = ref 0 in
  let spill = ref false in
  let progressed = ref false in
  let completed = ref false in
  let last_cycle = ref 0 in
  let t = ref 0 in
  (* --- structured post-mortem ------------------------------------- *)
  let frame_tokens () =
    let acc = ref 0 in
    for i = 0 to !nctx - 1 do
      acc := !acc + !frames.(i).f_occ
    done;
    !acc
  in
  let leftover_count () = frame_tokens () + Firing.deferred_count env in
  let diagnose (verdict : Diagnosis.verdict) : Diagnosis.t =
    let fold_frames k init =
      let acc = ref init in
      for i = 0 to !nctx - 1 do
        let f = !frames.(i) in
        if f != nil_frame && f.f_occ > 0 then
          acc := k !ctx_of_id.(i) f !acc
      done;
      !acc
    in
    let blocked =
      fold_frames
        (fun ctx f acc ->
          let rec nodes v acc =
            if v < 0 then acc
            else
              let base = c.frame_off.(v) in
              let ar = c.in_ar.(v) in
              let present = ref [] and missing = ref [] in
              for p = ar - 1 downto 0 do
                if f.f_stamp.(base + p) = f.f_gen then present := p :: !present
                else missing := p :: !missing
              done;
              if !present = [] then nodes (v - 1) acc
              else
                nodes (v - 1)
                  ({
                     Diagnosis.b_node = v;
                     b_label = (Dfg.Graph.node g v).Dfg.Node.label;
                     b_ctx = ctx;
                     b_present = !present;
                     b_missing = !missing;
                     b_pe = None;
                   }
                  :: acc)
          in
          nodes (c.n - 1) acc)
        []
      |> List.sort (fun a b ->
             compare
               (a.Diagnosis.b_node, a.Diagnosis.b_ctx)
               (b.Diagnosis.b_node, b.Diagnosis.b_ctx))
    in
    let tokens_by_context =
      fold_frames (fun ctx f acc -> (ctx, f.f_occ) :: acc) []
      |> List.sort (fun (_, a) (_, b) -> compare b a)
    in
    {
      Diagnosis.verdict;
      cycles = !t;
      leftover_tokens = leftover_count ();
      blocked;
      deferred_reads = Firing.deferred_reads env;
      tokens_by_context;
      waiting_by_pe = [];
      pressure =
        {
          Diagnosis.capacity = cap;
          peak = !peak_frames;
          throttled = !throttled;
          spilled = !spilled;
        };
      network = None;
      faults = [];
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
  (* --- token transport --------------------------------------------- *)
  let schedule at node port cid ctx v bag =
    incr pending;
    if !pending > !peak_in_flight then peak_in_flight := !pending;
    bucket_push wheel.(at land mask) node port cid ctx v bag
  in
  (* deliver the value emitted at (node, port) to every destination of
     that port *)
  let emit_port ~t_done node port cid ctx v bag =
    let pb = c.port_base.!(node) + port in
    let base = c.dest_base.!(pb) in
    let stop = c.dest_base.!(pb + 1) in
    for j = base to stop - 1 do
      if c.dst_dummy.!(j) then incr dummy_deliveries
      else incr value_deliveries;
      schedule t_done c.dst_node.!(j) c.dst_port.!(j) cid ctx v bag
    done
  in
  (* --- waiting-matching in frames ---------------------------------- *)
  (* gather a completed rendezvous: ports [p0, p0+count) of [node],
     consumed (stamps cleared, occupancy released).  [extra_pad] appends
     the trailing pad slot that encodes a gateway's back-edge group. *)
  (* in direct mode a firing's input array dies inside the delivery
     that produced it, so one scratch array per arity is reused across
     the whole run; queued firings still get a fresh array (the record
     outlives the delivery) *)
  let scratch = Array.make 33 [||] in
  let take_inputs n =
    if (not direct) || n > 32 then Array.make n dummy_value
    else begin
      let a = scratch.(n) in
      if Array.length a = n then a
      else begin
        let a = Array.make n dummy_value in
        scratch.(n) <- a;
        a
      end
    end
  in
  let gather cid (f : frame) node p0 count ~extra_pad =
    let base = c.frame_off.!(node) + p0 in
    let inputs = take_inputs (count + if extra_pad then 1 else 0) in
    Array.blit f.f_vals base inputs 0 count;
    if extra_pad then inputs.(count) <- dummy_value;
    let bags =
      match perm with
      | None -> []
      | Some _ ->
          let rec take i acc =
            if i < 0 then acc
            else
              take (i - 1)
                ((if i < count then f.f_bags.(base + i)
                  else Permission.empty_bag)
                :: acc)
          in
          take (count - 1 + if extra_pad then 1 else 0) []
    in
    for i = 0 to count - 1 do
      f.f_stamp.!(base + i) <- 0;
      (* release the value and bag so the frame pool does not retain
         dead heap structure across contexts *)
      f.f_vals.!(base + i) <- dummy_value;
      f.f_bags.!(base + i) <- Permission.empty_bag
    done;
    f.f_occ <- f.f_occ - count;
    if f.f_occ = 0 then release cid f;
    (inputs, bags)
  in
  (* --- firing execution -------------------------------------------- *)
  let on_complete () = completed := true in
  let double_write msg = abort (Diagnosis.Double_write msg) in
  (* certified path: buffer the emissions so the held permission can be
     split over the actual deliveries in emission-then-arc order,
     matching the reference engine's split bit for bit *)
  (* contexts minted by a firing (gateway transitions, deferred
     wakeups) are interned where they first appear; the common case is
     the firing's own context, one physical comparison *)
  let cid_of fcid fctx ctx = if ctx == fctx then fcid else intern ctx in
  (* one preallocated emit callback for the uncertified {!Firing.execute}
     fallback: the per-firing coordinates ride in refs, so a memory op
     allocates no closure *)
  let cur_t_done = ref 0 in
  let cur_cid = ref 0 in
  let cur_ctx = ref Context.toplevel in
  let emit_shared ~node ~port ~ctx ~meta:() v =
    emit_port ~t_done:!cur_t_done node port
      (cid_of !cur_cid !cur_ctx ctx) ctx v Permission.empty_bag
  in
  let ebuf : (int * int * Context.t * Imp.Value.t) list ref = ref [] in
  let exec_cert pm t_done node fcid fctx inputs fbags =
    let held = fst (Permission.on_fire pm ~node ~ctx:fctx fbags) in
    ebuf := [];
    Firing.execute env
      ~emit:(fun ~node ~port ~ctx ~meta:() v ->
        ebuf := (node, port, ctx, v) :: !ebuf)
      ~meta:() ~meta_max:(fun () () -> ()) ~on_complete ~double_write ~node
      ~ctx:fctx ~inputs;
    let emissions = List.rev !ebuf in
    let labels =
      List.concat_map
        (fun (en, ep, _, _) ->
          let base = c.dest_base.(c.port_base.(en) + ep) in
          let stop = c.dest_base.(c.port_base.(en) + ep + 1) in
          List.init (stop - base) (fun j ->
              if en = node then c.dst_tokens.(base + j) else []))
        emissions
      |> Array.of_list
    in
    let bags = fst (Permission.split pm ~node ~held labels) in
    let k = ref 0 in
    List.iter
      (fun (en, ep, ectx, ev) ->
        let base = c.dest_base.(c.port_base.(en) + ep) in
        let stop = c.dest_base.(c.port_base.(en) + ep + 1) in
        for j = base to stop - 1 do
          if c.dst_dummy.(j) then incr dummy_deliveries
          else incr value_deliveries;
          schedule t_done c.dst_node.(j) c.dst_port.(j) (cid_of fcid fctx ectx)
            ectx ev bags.(!k);
          incr k
        done)
      emissions
  in
  (* per-node ALU closures, compiled once: [Imp.Value.binop] allocates
     its dispatch closures on every call, which the firing loop cannot
     afford *)
  let binop_fn =
    Array.map
      (fun k ->
        match k with
        | Dfg.Node.Binop op ->
            let open Imp.Value in
            (match op with
            | Imp.Ast.Add -> fun a b -> Int (to_int a + to_int b)
            | Imp.Ast.Sub -> fun a b -> Int (to_int a - to_int b)
            | Imp.Ast.Mul -> fun a b -> Int (to_int a * to_int b)
            | Imp.Ast.Div ->
                fun a b ->
                  let y = to_int b in
                  Int (if y = 0 then 0 else to_int a / y)
            | Imp.Ast.Mod ->
                fun a b ->
                  let y = to_int b in
                  Int (if y = 0 then 0 else to_int a mod y)
            | Imp.Ast.Lt -> fun a b -> Bool (to_int a < to_int b)
            | Imp.Ast.Le -> fun a b -> Bool (to_int a <= to_int b)
            | Imp.Ast.Gt -> fun a b -> Bool (to_int a > to_int b)
            | Imp.Ast.Ge -> fun a b -> Bool (to_int a >= to_int b)
            | Imp.Ast.Eq -> fun a b -> Bool (to_int a = to_int b)
            | Imp.Ast.Ne -> fun a b -> Bool (to_int a <> to_int b)
            | Imp.Ast.And -> fun a b -> Bool (to_bool a && to_bool b)
            | Imp.Ast.Or -> fun a b -> Bool (to_bool a || to_bool b))
        | _ -> fun _ _ -> assert false)
      c.kinds
  in
  (* per-node memory addressing, resolved once against this run's
     layout so the hot path never consults the name table *)
  let mem_plain = Array.make c.n false in
  let mem_indexed = Array.make c.n false in
  let mem_base = Array.make c.n 0 in
  let mem_ext = Array.make c.n 1 in
  Array.iteri
    (fun v k ->
      match k with
      | Dfg.Node.Load { var; indexed; mem } | Dfg.Node.Store { var; indexed; mem }
        ->
          mem_plain.(v) <- mem = Dfg.Node.Plain;
          mem_indexed.(v) <- indexed;
          mem_base.(v) <- Imp.Layout.base_of layout var;
          mem_ext.(v) <- Imp.Layout.extent_of layout var
      | _ -> ())
    c.kinds;
  let mem_addr node i =
    let e = mem_ext.!(node) in
    mem_base.!(node) + (((i mod e) + e) mod e)
  in
  let exec_fast t_done node cid ctx inputs =
    let nobag = Permission.empty_bag in
    let op = c.opcode.!(node) in
    if op = op_binop then
      emit_port ~t_done node 0 cid ctx
        (binop_fn.!(node) inputs.(0) inputs.(1))
        nobag
    else if op = op_const then
      match c.kinds.(node) with
      | Dfg.Node.Const v -> emit_port ~t_done node 0 cid ctx v nobag
      | _ -> assert false
    else if op = op_id || op = op_merge then
      emit_port ~t_done node 0 cid ctx inputs.(0) nobag
    else if op = op_switch then begin
      if Imp.Value.to_bool inputs.(1) then
        emit_port ~t_done node 0 cid ctx inputs.(0) nobag
      else emit_port ~t_done node 1 cid ctx inputs.(0) nobag
    end
    else if op = op_synch then
      emit_port ~t_done node 0 cid ctx dummy_value nobag
    else if op = op_unop then
      match c.kinds.(node) with
      | Dfg.Node.Unop uop ->
          emit_port ~t_done node 0 cid ctx
            (Imp.Value.unop uop inputs.(0))
            nobag
      | _ -> assert false
    else if op = op_sink then ()
    else if op = op_load && mem_plain.!(node) then begin
      let i = if mem_indexed.!(node) then Imp.Value.to_int inputs.(1) else 0 in
      emit_port ~t_done node 0 cid ctx
        (Imp.Value.Int (Imp.Memory.read_addr env.Firing.memory (mem_addr node i)))
        nobag;
      emit_port ~t_done node 1 cid ctx dummy_value nobag
    end
    else if op = op_store && mem_plain.!(node) then begin
      let i = if mem_indexed.!(node) then Imp.Value.to_int inputs.(2) else 0 in
      Imp.Memory.write_addr env.Firing.memory (mem_addr node i)
        (Imp.Value.to_int inputs.(1));
      emit_port ~t_done node 0 cid ctx dummy_value nobag
    end
    else if op = op_loop_entry then begin
      let a = c.loop_ar.(node) in
      let ctx' =
        if Array.length inputs = a then Context.enter ctx else Context.next ctx
      in
      let cid' = intern ctx' in
      for i = 0 to a - 1 do
        emit_port ~t_done node i cid' ctx' inputs.(i) nobag
      done
    end
    else if op = op_loop_exit then begin
      let ctx' = Context.leave ctx in
      let cid' = intern ctx' in
      for i = 0 to Array.length inputs - 1 do
        emit_port ~t_done node i cid' ctx' inputs.(i) nobag
      done
    end
    else
      (* start, end, loads, stores (and their deferred I-structure
         wakeups, which emit from the reader's own ports) share the
         reference firing rule *)
      begin
        cur_t_done := t_done;
        cur_cid := cid;
        cur_ctx := ctx;
        Firing.execute env ~emit:emit_shared ~meta:()
          ~meta_max:(fun () () -> ()) ~on_complete ~double_write ~node ~ctx
          ~inputs
      end
  in
  (* per-node latency, resolved once against this run's config *)
  let lat = Array.init c.n (fun v -> Config.latency config c.kinds.(v)) in
  let count_fire t node ctx group =
    incr firings;
    let op = c.opcode.!(node) in
    op_counts.!(op) <- op_counts.!(op) + 1;
    if c.is_mem.!(node) then incr memory_ops;
    (match on_fire with Some cb -> cb t node ctx | None -> ());
    match san with
    | Some s -> (
        match Sanitize.on_fire s ~node ~ctx ~group with
        | Some v -> violations := v :: !violations
        | None -> ())
    | None -> ()
  in
  let exec t node cid ctx inputs bags =
    count_fire t node ctx (Array.length inputs);
    let t_done = t + lat.!(node) in
    if t_done > !last_cycle then last_cycle := t_done;
    match perm with
    | Some pm -> exec_cert pm t_done node cid ctx inputs bags
    | None -> exec_fast t_done node cid ctx inputs
  in
  (* monadic fast path: merges and single-input operators fire straight
     from the delivery; the routing opcodes skip the input array *)
  let exec1 t node cid ctx v bag =
    match perm with
    | Some _ ->
        exec t node cid ctx [| v |] [ bag ]
    | None ->
        count_fire t node ctx 1;
        let t_done = t + lat.!(node) in
        if t_done > !last_cycle then last_cycle := t_done;
        let op = c.opcode.!(node) in
        if op = op_id || op = op_merge then
          emit_port ~t_done node 0 cid ctx v Permission.empty_bag
        else if op = op_unop then
          match c.kinds.(node) with
          | Dfg.Node.Unop uop ->
              emit_port ~t_done node 0 cid ctx
                (Imp.Value.unop uop v) Permission.empty_bag
          | _ -> assert false
        else if op = op_synch then
          emit_port ~t_done node 0 cid ctx dummy_value
            Permission.empty_bag
        else if op = op_sink then ()
        else exec_fast t_done node cid ctx [| v |]
  in
  (* direct mode: with one unbounded PE, no memory-port limit and FIFO
     scheduling, every enabled firing issues in the cycle it matched, so
     the ready queue is an identity step — execute straight from the
     delivery instead (all latencies >= 1, so emissions never land back
     in the bucket being drained) *)
  let fire t node cid ctx inputs bags =
    if direct then exec t node cid ctx inputs bags
    else
      Queue.add
        {
          fr_node = node;
          fr_cid = cid;
          fr_ctx = ctx;
          fr_inputs = inputs;
          fr_bags = bags;
        }
        ready
  in
  (* --- token delivery and waiting-matching -------------------------- *)
  let deliver t node port cid ctx v bag =
    let op = c.opcode.!(node) in
    if op = op_merge || c.in_ar.!(node) = 1 then begin
      (* no rendezvous needed: a merge fires on every delivery, and a
         single token is already a complete match for a monadic
         operator — neither touches a frame (nor the capacity bound,
         which counts waiting matches) *)
      progressed := true;
      (match san with
      | Some s when op <> op_merge -> Sanitize.on_delivery s ~node ~port
      | _ -> ());
      if direct then exec1 t node cid ctx v bag
      else
        Queue.add
          {
            fr_node = node;
            fr_cid = cid;
            fr_ctx = ctx;
            fr_inputs = [| v |];
            fr_bags = (match perm with None -> [] | Some _ -> [ bag ]);
          }
          ready
    end
    else begin
      let existing = !frames.!(cid) in
      let is_new = existing == nil_frame in
      let at_capacity = is_new && !live >= capk in
      if at_capacity && not !spill then begin
        (* bounded frame store: postpone the rendezvous instead of
           crashing, and account for the pressure *)
        incr throttled;
        incr throttled_this_cycle;
        schedule (t + 1) node port cid ctx v bag
      end
      else begin
        if at_capacity then begin
          (* the one-per-stagnant-cycle overflow admission *)
          spill := false;
          incr spilled
        end;
        progressed := true;
        (match san with
        | Some s -> Sanitize.on_delivery s ~node ~port
        | None -> ());
        let f = if is_new then acquire cid else existing in
        let slot = c.frame_off.!(node) + port in
        if f.f_stamp.!(slot) = f.f_gen then begin
          (* presence bit already set: the single-token-per-arc
             discipline is violated *)
          if config.Config.detect_collisions then
            abort
              (Diagnosis.Collision
                 (Fmt.str "node %d (%s) port %d ctx %s" node
                    (Dfg.Graph.node g node).Dfg.Node.label port
                    (Context.to_string ctx)));
          (* undetected: the late token overwrites the slot, exactly the
             Figure 8 pile-up the sanitizer then reports as Double_fire *)
          f.f_vals.!(slot) <- v;
          f.f_bags.!(slot) <- bag
        end
        else begin
          f.f_stamp.!(slot) <- f.f_gen;
          f.f_vals.!(slot) <- v;
          f.f_bags.!(slot) <- bag;
          f.f_occ <- f.f_occ + 1;
          if f.f_occ = 1 then begin
            incr live;
            if !live > !peak_frames then peak_frames := !live
          end;
          let la = c.loop_ar.!(node) in
          if la = 0 then begin
            if f.f_nstamp.!(node) <> f.f_gen then begin
              f.f_nstamp.!(node) <- f.f_gen;
              f.f_need.!(node) <- c.in_ar.!(node)
            end;
            f.f_need.!(node) <- f.f_need.!(node) - 1;
            if f.f_need.!(node) = 0 then begin
              f.f_nstamp.!(node) <- 0;
              let inputs, bags =
                gather cid f node 0 c.in_ar.!(node) ~extra_pad:false
              in
              fire t node cid ctx inputs bags
            end
          end
          else if port < la then begin
            (* gateway initial group: ports 0..arity-1 *)
            if f.f_nstamp.!(node) <> f.f_gen then begin
              f.f_nstamp.!(node) <- f.f_gen;
              f.f_need.!(node) <- la
            end;
            f.f_need.!(node) <- f.f_need.!(node) - 1;
            if f.f_need.!(node) = 0 then begin
              f.f_nstamp.!(node) <- 0;
              let inputs, bags = gather cid f node 0 la ~extra_pad:false in
              fire t node cid ctx inputs bags
            end
          end
          else begin
            (* gateway back-edge group: ports arity..2*arity-1; the
               fired group is encoded by the input-array length (arity+1
               with a trailing pad), as {!Matching.deliver} does *)
            if f.f_bstamp.!(node) <> f.f_gen then begin
              f.f_bstamp.!(node) <- f.f_gen;
              f.f_need_back.!(node) <- la
            end;
            f.f_need_back.!(node) <- f.f_need_back.!(node) - 1;
            if f.f_need_back.!(node) = 0 then begin
              f.f_bstamp.!(node) <- 0;
              let inputs, bags = gather cid f node la la ~extra_pad:true in
              fire t node cid ctx inputs bags
            end
          end
        end
      end
    end
  in
  (* boot: fire Start at cycle 0.  In direct mode the ready queue would
     otherwise stay empty for the whole run, so the main loop can skip
     the issue machinery entirely *)
  let boot_bags =
    match perm with Some p -> [ Permission.mint p ] | None -> []
  in
  if direct then exec 0 c.start (intern Context.toplevel) Context.toplevel
      [||] boot_bags
  else
    Queue.add
      {
        fr_node = c.start;
        fr_cid = intern Context.toplevel;
        fr_ctx = Context.toplevel;
        fr_inputs = [||];
        fr_bags = boot_bags;
      }
      ready;
  let absorb () =
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
    +
    match config.Config.policy with
    | Config.Fifo -> 0
    | Config.Lifo -> Stack.length lifo
  in
  try
    let finished = ref false in
    while not !finished do
      if !t > config.Config.max_cycles then
        abort (Diagnosis.Diverged config.Config.max_cycles);
      (* the firing count at cycle start: the delta is this cycle's
         parallelism in both the direct and queued modes *)
      let fired_before = !firings in
      (* 1. deliver the tokens scheduled for this cycle (in direct mode
         completed matches execute inline here) *)
      let b = wheel.(!t land mask) in
      let count = b.b_len in
      (* reset before processing: a throttled delivery re-schedules into
         the (t+1) bucket, never back into this one *)
      b.b_len <- 0;
      for i = 0 to count - 1 do
        decr pending;
        deliver !t b.b_node.!(i) b.b_port.!(i) b.b_cid.!(i) b.b_ctx.!(i)
          b.b_val.!(i) b.b_bag.!(i);
        (* release the heap references held by the drained slots *)
        b.b_ctx.!(i) <- Context.toplevel;
        b.b_val.!(i) <- dummy_value;
        b.b_bag.!(i) <- Permission.empty_bag
      done;
      (* 2. issue enabled firings (in direct mode completed matches
         already executed during delivery and the queue is empty) *)
      if not direct then begin
        absorb ();
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
          let port_free =
            match config.Config.memory_ports with
            | None -> true
            | Some k -> (not c.is_mem.(f.fr_node)) || !mem_issued < max 1 k
          in
          if port_free then begin
            if c.is_mem.(f.fr_node) then incr mem_issued;
            exec !t f.fr_node f.fr_cid f.fr_ctx f.fr_inputs f.fr_bags;
            progressed := true;
            incr started
          end
          else begin
            (* out of memory ports this cycle: retry next cycle *)
            deferred_mem := f :: !deferred_mem;
            incr started
          end
        done;
        List.iter (fun f -> Queue.add f ready) (List.rev !deferred_mem)
      end;
      let fired = !firings - fired_before in
      if fired > !peak_parallelism then peak_parallelism := fired;
      (* 3. stagnation: every delivery throttled, nothing fired ->
         admit one over capacity next cycle *)
      if !throttled_this_cycle > 0 && not !progressed then spill := true;
      throttled_this_cycle := 0;
      progressed := false;
      (* 4. quiescence / event-driven skip to the next scheduled cycle *)
      if ready_length () = 0 && !pending = 0 then finished := true
      else if ready_length () > 0 then incr t
      else begin
        (* nothing enabled: jump straight to the next delivery cycle *)
        let j = ref 1 in
        while wheel.((!t + !j) land mask).b_len = 0 do incr j done;
        t := !t + !j
      end
    done;
    let leftover = leftover_count () in
    (match san with
    | Some s ->
        List.iter
          (fun v -> violations := v :: !violations)
          (Sanitize.at_quiescence s ~leftover:(frame_tokens ()))
    | None -> ());
    (match perm with
    | Some p -> ignore (Permission.at_quiescence p : Permission.violation list)
    | None -> ());
    let verdict =
      if not !completed then Diagnosis.Deadlock
      else if leftover <> 0 then Diagnosis.Leftover leftover
      else Diagnosis.Clean
    in
    let firings_by_kind =
      let tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
      Array.iteri
        (fun op n ->
          if n > 0 then
            Hashtbl.replace tbl op_family.(op)
              (n + (try Hashtbl.find tbl op_family.(op) with Not_found -> 0)))
        op_counts;
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
      |> List.sort (fun (_, a) (_, b) -> compare b a)
    in
    let diagnosis = diagnose verdict in
    repool ();
    Ok
      {
        memory;
        cycles = !last_cycle;
        firings = !firings;
        memory_ops = !memory_ops;
        dummy_deliveries = !dummy_deliveries;
        value_deliveries = !value_deliveries;
        peak_parallelism = !peak_parallelism;
        completed = !completed;
        leftover_tokens = leftover;
        peak_frames = !peak_frames;
        peak_in_flight = !peak_in_flight;
        firings_by_kind;
        throttled = !throttled;
        spilled = !spilled;
        diagnosis;
      }
  with Abort d ->
    repool ();
    Error d

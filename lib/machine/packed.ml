(** The packed explicit-token-store execution core (see the interface).

    [compile_graph] lowers a {!Dfg.Graph.t} once into flat instruction
    arrays — int opcode, matching arity, frame offset, flattened
    destination (node, port) pairs — and [run_report] executes the
    compiled code with a real explicit token store: operand slots and
    presence stamps live in preallocated per-context frames recycled
    through a free list, and the schedule is an event-driven ready
    wheel, so empty cycles cost nothing but their samples in a firing
    log, when one is kept.

    The operator semantics are shared with the reference machines: the
    hot ALU/routing opcodes and plain loads and stores are specialised
    inline, certified or not; start, end and the I-structure operations
    with their deferred reads go through {!Firing.execute}.  Determinacy of
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
   exactly as the reference matching store allows.  [f_src] holds each
   slot's producer log index: empty until a run that keeps a log
   acquires the frame. *)
type frame = {
  f_vals : Imp.Value.t array;
  f_bags : Permission.bag array;
  mutable f_src : int array;
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
    f_src = [||];
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
     stale contents invisible to the next run, so the generation counter
     lives here too and never repeats a value across runs *)
  mutable pool : frame list;
  mutable gen : int;
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
    gen = 0;
  }

(* ------------------------------------------------------------------ *)
(* Runtime state                                                      *)

let dummy_value = Firing.dummy_value

(* unchecked array indexing for the per-token hot path; every index is
   bounded by the compiled layout (node < n, slot < slots) or by the
   frames array, which has a slot for every context id minted *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(* One ready-wheel bucket: a reusable growable vector of in-flight
   deliveries held as parallel arrays, so scheduling a token allocates
   nothing.  A token's context rides along as its id, the frame key;
   [b_src] carries its producer's log index, and is empty unless the
   run keeps a log.

   A drained bucket is emptied by resetting [b_len] alone: its slots
   keep their last value and bag until the next push
   overwrites them, so a delivery pays no write barrier to clear them.
   Nothing reads a slot at or past [b_len], and the stale references
   are bounded by the buckets' capacity (the most deliveries ever due
   in one cycle), as a frame's are by the code's frame pool. *)
type bucket = {
  mutable b_node : int array;
  mutable b_port : int array;
  mutable b_cid : int array;
  mutable b_val : Imp.Value.t array;
  mutable b_bag : Permission.bag array;
  mutable b_src : int array;
  mutable b_len : int;
}

let fresh_bucket ~logging n =
  {
    b_node = Array.make n 0;
    b_port = Array.make n 0;
    b_cid = Array.make n 0;
    b_val = Array.make n dummy_value;
    b_bag = Array.make n Permission.empty_bag;
    b_src = (if logging then Array.make n (-1) else [||]);
    b_len = 0;
  }

let bucket_push (b : bucket) node port cid v bag src =
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
    b.b_val <- grow b.b_val dummy_value;
    b.b_bag <- grow b.b_bag Permission.empty_bag;
    if Array.length b.b_src > 0 then b.b_src <- grow b.b_src (-1)
  end;
  b.b_node.!(k) <- node;
  b.b_port.!(k) <- port;
  b.b_cid.!(k) <- cid;
  b.b_val.!(k) <- v;
  b.b_bag.!(k) <- bag;
  if Array.length b.b_src > 0 then b.b_src.!(k) <- src;
  b.b_len <- k + 1

(* [acc] joined with [bags.(i)] for [i] in [\[lo, hi)], in slot order *)
let rec join_slots (bags : Permission.bag array) lo hi acc =
  if lo = hi then acc
  else join_slots bags (lo + 1) hi (Permission.join acc bags.(lo))

type firing = {
  fr_node : int;
  fr_cid : int;
  fr_inputs : Imp.Value.t array;
  fr_held : Permission.bag;
      (** the consumed tokens' joined permission; [] uncertified *)
  fr_pred : int;  (** the producer in the firing log, [-1] *)
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
  peak_matching : int;
  peak_frames : int;  (** most simultaneously live context frames *)
  peak_in_flight : int;
  firings_by_kind : (string * int) list;
  diagnosis : Diagnosis.t;
}

exception Abort of Diagnosis.t

let run_report ?(config = Config.default) ?(sanitize = true)
    ?(log : Trace.t option) ~(layout : Imp.Layout.t) (c : code) :
    (result, Diagnosis.t) Stdlib.result =
  let g = c.g in
  let memory = Imp.Memory.create layout in
  let env = Firing.make_env ?log ~graph:g ~layout memory in
  let ids = env.Firing.ids in
  let logging = Option.is_some log in
  let san = if sanitize then Some (Sanitize.create ~ids g) else None in
  let violations : Sanitize.violation list ref = ref [] in
  let perm =
    match g.Dfg.Graph.cert with
    | Some cert -> Some (Permission.create ~ids g cert)
    | None -> None
  in
  let direct =
    config.Config.pes = None
    && config.Config.memory_ports = None
    &&
    let l = config.Config.latencies in
    l.Config.alu >= 1 && l.Config.memory >= 1 && l.Config.routing >= 1
  in
  (* A token's tag is its context id in the run's {!Context.table},
     minted at the one place contexts are — gateway firings — so the
     per-token path indexes flat arrays and never hashes or structurally
     compares a context list.  Frames live in an id-indexed array,
     recycled through a free list: a context's slot points at
     [nil_frame] whenever it holds no tokens. *)
  let frames = ref (Array.make 64 nil_frame) in
  (* frame pool handed across runs of this code *)
  let free : frame list ref = ref c.pool in
  c.pool <- [];
  let live = ref 0 in
  (* frames holding at least one token *)
  let peak_frames = ref 0 in
  (* waiting-matching entries, counted as {!Matching} counts them: a
     (node, context) holding at least one token, a gateway's two port
     groups sharing one.  Delivery opens and closes them inline, where a
     group is armed and where it fires: a helper closure (the build has
     no flambda to inline it), or one shared test reading both stamps on
     every first token, measurably slows the per-token path *)
  let entries = ref 0 in
  let peak_matching = ref 0 in
  (* a loop gateway's new context id, given a frame slot: every id the
     engine meets indexes [frames] unchecked *)
  let mint step cid =
    let i = Context.move ids step cid in
    let k = Array.length !frames in
    if i >= k then begin
      let b = Array.make (2 * k) nil_frame in
      Array.blit !frames 0 b 0 k;
      frames := b
    end;
    i
  in
  let fresh_frame () =
    {
      f_vals = Array.make (max 1 c.slots) dummy_value;
      f_bags = Array.make (max 1 c.slots) Permission.empty_bag;
      f_src = [||];
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
    if logging && Array.length f.f_src = 0 then
      f.f_src <- Array.make (max 1 c.slots) (-1);
    c.gen <- c.gen + 1;
    f.f_gen <- c.gen;
    f.f_occ <- 0;
    !frames.!(cid) <- f;
    f
  in
  (* a drained frame goes straight back to the pool; in-flight tokens
     address it by context id, so a later arrival re-acquires cleanly *)
  let release cid (f : frame) =
    !frames.!(cid) <- nil_frame;
    free := f :: !free;
    decr live
  in
  (* hand every frame back to the code's pool on the way out (stale
     contents are invisible behind the generation stamp) *)
  let repool () =
    for i = 0 to Context.count ids - 1 do
      let f = !frames.(i) in
      if f != nil_frame then free := f :: !free
    done;
    c.pool <- !free
  in
  (* the ready wheel: schedule offsets are bounded by the largest
     operation latency, so a power-of-two wheel above that can never
     wrap *)
  let wheel_size =
    let l = config.Config.latencies in
    let m = max l.Config.alu (max l.Config.memory l.Config.routing) + 1 in
    let rec pow2 w = if w >= m then w else pow2 (2 * w) in
    pow2 8
  in
  let mask = wheel_size - 1 in
  let wheel =
    Array.init wheel_size (fun _ -> fresh_bucket ~logging 16)
  in
  (* tokens scheduled and not yet delivered; sampled at the end of each
     cycle, as the reference samples its in-flight count *)
  let pending = ref 0 in
  let peak_in_flight = ref 0 in
  (* the ready queue (FIFO) *)
  let ready : firing Queue.t = Queue.create () in
  (* counters *)
  let firings = ref 0 in
  let memory_ops = ref 0 in
  (* firings per node, and the nodes in first-firing order *)
  let by_node = Array.make c.n 0 and order = Array.make c.n 0 in
  let ordered = ref 0 in
  let dummy_deliveries = ref 0 in
  let value_deliveries = ref 0 in
  let peak_parallelism = ref 0 in
  let completed = ref false in
  let last_cycle = ref 0 in
  let t = ref 0 in
  (* --- structured post-mortem ------------------------------------- *)
  let frame_tokens () =
    let acc = ref 0 in
    for i = 0 to Context.count ids - 1 do
      acc := !acc + !frames.(i).f_occ
    done;
    !acc
  in
  let leftover_count () = frame_tokens () + Firing.deferred_count env in
  let diagnose (verdict : Diagnosis.verdict) : Diagnosis.t =
    let fold_frames k init =
      let acc = ref init in
      for i = 0 to Context.count ids - 1 do
        let f = !frames.(i) in
        if f != nil_frame && f.f_occ > 0 then
          acc := k (Context.of_id ids i) f !acc
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
      |> Diagnosis.order_by_count
    in
    {
      Diagnosis.verdict;
      cycles = !t;
      leftover_tokens = leftover_count ();
      blocked;
      deferred_reads = Firing.deferred_reads env;
      tokens_by_context;
      waiting_by_pe = [];
      peak_matching = !peak_matching;
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
  let schedule at node port cid v bag src =
    incr pending;
    bucket_push wheel.(at land mask) node port cid v bag src
  in
  (* the log index of the firing whose tokens are leaving: set as each
     firing is logged, and per emission by the generic path, whose
     deferred wakeups carry their own *)
  let cur_src = ref (-1) in
  (* A firing's permission split: [bags.(j - first)] rides delivery [j]
     of the firing's range, which starts at flattened destination
     [first]; [no_bags] when the firing holds nothing, so every delivery
     carries the empty bag *)
  let no_bags : Permission.bag array = [||] in
  (* deliver the value emitted at (node, port) to every destination of
     that port *)
  let emit_port ~t_done node port cid v bags first =
    let pb = c.port_base.!(node) + port in
    let base = c.dest_base.!(pb) in
    let stop = c.dest_base.!(pb + 1) in
    for j = base to stop - 1 do
      if c.dst_dummy.!(j) then incr dummy_deliveries
      else incr value_deliveries;
      schedule t_done c.dst_node.!(j) c.dst_port.!(j) cid v
        (if bags == no_bags then Permission.empty_bag else bags.!(j - first))
        !cur_src
    done
  in
  (* split [held] over the deliveries of ports [p0, p1) of [node], which
     are contiguous in the flattened destinations and in the reference
     engine's emission-then-arc order *)
  let split_ports node p0 p1 (held : Permission.bag) =
    match (held, perm) with
    | [], _ | _, None -> no_bags
    | _, Some pm ->
        let pb = c.port_base.!(node) in
        Permission.split pm ~node ~held c.dst_tokens
          c.dest_base.!(pb + p0)
          c.dest_base.!(pb + p1)
  in
  (* emit [v] on one port, carrying that port's share of [held] *)
  let emit1 ~t_done node port cid v held =
    emit_port ~t_done node port cid v
      (split_ports node port (port + 1) held)
      c.dest_base.!(c.port_base.!(node) + port)
  in
  (* --- firing execution -------------------------------------------- *)
  let on_complete () = completed := true in
  let double_write msg = abort (Diagnosis.Double_write msg) in
  (* the generic path: start, end, I-structure loads and stores, and
     their deferred wakeups (which emit from the reader's own ports)
     run the reference firing rule, whose emission buffer is read back
     in emission-then-arc order with the held permission split over it,
     as the reference engine splits it *)
  let out = env.Firing.out in
  let exec_generic t_done node cid inputs held =
    Firing.execute env ~meta:!cur_src ~on_complete ~double_write ~node ~cid
      ~value:Fun.id ~inputs;
    let bags =
      match perm with
      | Some pm when held <> [] -> Firing.split env pm ~node ~held
      | _ -> no_bags
    in
    let k = ref 0 in
    for i = 0 to out.Firing.e_len - 1 do
      let pb = c.port_base.(out.Firing.e_node.(i)) + out.Firing.e_port.(i) in
      let base = c.dest_base.(pb) in
      cur_src := out.Firing.e_src.(i);
      emit_port ~t_done out.Firing.e_node.(i) out.Firing.e_port.(i)
        out.Firing.e_cid.(i) out.Firing.e_val.(i) bags (base - !k);
      k := !k + c.dest_base.(pb + 1) - base
    done;
    Firing.clear env
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
  (* per-node latency, resolved once against this run's config *)
  let lat = Array.init c.n (fun v -> Config.latency config c.kinds.(v)) in
  (* what every firing does before its operator: count it (remembering
     which nodes fired first), log it, feed the sanitizer, assert its
     certificate requirement on [held] (the joined permission of its
     consumed tokens) and time it *)
  let begin_fire t node cid group held pred =
    incr firings;
    let seen = by_node.!(node) in
    if seen = 0 then begin
      order.!(!ordered) <- node;
      incr ordered
    end;
    by_node.!(node) <- seen + 1;
    if c.is_mem.!(node) then incr memory_ops;
    (match log with
    | Some l ->
        cur_src :=
          Trace.fire l ~node ~ctx:(Context.of_id ids cid) ~cycle:t ~pe:0 ~pred
    | None -> ());
    (match san with
    | Some s -> (
        match Sanitize.on_fire_id s ~node ~cid ~group with
        | Some v -> violations := v :: !violations
        | None -> ())
    | None -> ());
    (match perm with
    | Some pm ->
        ignore (Permission.require pm ~node ~cid held : Permission.violation list)
    | None -> ());
    let t_done = t + lat.!(node) in
    if t_done > !last_cycle then last_cycle := t_done;
    t_done
  in
  (* a loop gateway: input [i] leaves on port [i], in the new context *)
  let emit_group ~t_done node a cid inputs held =
    let bags = split_ports node 0 a held in
    let first = c.dest_base.!(c.port_base.!(node)) in
    for i = 0 to a - 1 do
      emit_port ~t_done node i cid inputs.(i) bags first
    done
  in
  (* The one dispatcher, for certified and uncertified graphs alike
     ([held] is [] when the graph carries no certificate).  Each
     specialised opcode emits on one contiguous range of its ports, so a
     held bag is split over that range's destination labels and the
     tokens leave inline; the rest take the generic path *)
  let exec t node cid inputs held pred =
    let t_done = begin_fire t node cid (Array.length inputs) held pred in
    let op = c.opcode.!(node) in
    if op = op_binop then
      emit1 ~t_done node 0 cid (binop_fn.!(node) inputs.(0) inputs.(1)) held
    else if op = op_const then
      match c.kinds.(node) with
      | Dfg.Node.Const v -> emit1 ~t_done node 0 cid v held
      | _ -> assert false
    else if op = op_id || op = op_merge then
      emit1 ~t_done node 0 cid inputs.(0) held
    else if op = op_switch then
      emit1 ~t_done node
        (if Imp.Value.to_bool inputs.(1) then 0 else 1)
        cid inputs.(0) held
    else if op = op_synch then emit1 ~t_done node 0 cid dummy_value held
    else if op = op_unop then
      match c.kinds.(node) with
      | Dfg.Node.Unop uop ->
          emit1 ~t_done node 0 cid (Imp.Value.unop uop inputs.(0)) held
      | _ -> assert false
    else if op = op_sink then
      ignore (split_ports node 0 0 held : Permission.bag array)
    else if op = op_load && mem_plain.!(node) then begin
      let i = if mem_indexed.!(node) then Imp.Value.to_int inputs.(1) else 0 in
      let bags = split_ports node 0 2 held in
      let first = c.dest_base.!(c.port_base.!(node)) in
      emit_port ~t_done node 0 cid
        (Imp.Value.Int (Imp.Memory.read_addr env.Firing.memory (mem_addr node i)))
        bags first;
      emit_port ~t_done node 1 cid dummy_value bags first
    end
    else if op = op_store && mem_plain.!(node) then begin
      let i = if mem_indexed.!(node) then Imp.Value.to_int inputs.(2) else 0 in
      Imp.Memory.write_addr env.Firing.memory (mem_addr node i)
        (Imp.Value.to_int inputs.(1));
      emit1 ~t_done node 0 cid dummy_value held
    end
    else if op = op_loop_entry then begin
      let a = c.loop_ar.!(node) in
      let step =
        if Array.length inputs = a then Context.enter else Context.next
      in
      emit_group ~t_done node a (mint step cid) inputs held
    end
    else if op = op_loop_exit then
      emit_group ~t_done node (Array.length inputs) (mint Context.leave cid)
        inputs held
    else exec_generic t_done node cid inputs held
  in
  (* monadic fast path: merges and single-input routing, ALU and
     constant operators fire straight from the delivery, with no input
     array *)
  let exec1 t node cid v bag pred =
    let op = c.opcode.!(node) in
    if op = op_id || op = op_merge || op = op_synch || op = op_unop
       || op = op_const
    then begin
      let t_done = begin_fire t node cid 1 bag pred in
      let out =
        match c.kinds.!(node) with
        | Dfg.Node.Unop uop -> Imp.Value.unop uop v
        | Dfg.Node.Const k -> k
        | Dfg.Node.Synch _ -> dummy_value
        | _ -> v
      in
      emit1 ~t_done node 0 cid out bag
    end
    else exec t node cid [| v |] bag pred
  in
  (* direct mode: with one unbounded PE and no memory-port limit, every
     enabled firing issues in the cycle it matched, so the ready queue
     is an identity step — execute straight from the delivery instead
     (all latencies >= 1, so emissions never land back in the bucket
     being drained) *)
  let fire t node cid inputs held pred =
    if direct then exec t node cid inputs held pred
    else
      Queue.add
        {
          fr_node = node;
          fr_cid = cid;
          fr_inputs = inputs;
          fr_held = held;
          fr_pred = pred;
        }
        ready
  in
  (* --- waiting-matching in frames ---------------------------------- *)
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
  (* consume a completed rendezvous and fire it: ports [p0, p0+count) of
     [node], their stamps cleared and occupancy released, their bags
     joined into the firing's held permission, their producers folded
     into its own.  [extra_pad] appends the trailing pad slot that
     encodes a gateway's back-edge group.  The
     consumed values and bags stay in their slots, unreadable behind the
     cleared stamp, until the next token into the slot overwrites them:
     what a frame can retain is bounded by the code's frame pool *)
  let gather t cid (f : frame) node p0 count ~extra_pad =
    let base = c.frame_off.!(node) + p0 in
    let inputs = take_inputs (count + if extra_pad then 1 else 0) in
    Array.blit f.f_vals base inputs 0 count;
    if extra_pad then inputs.(count) <- dummy_value;
    let held =
      match perm with
      | None -> Permission.empty_bag
      | Some _ -> (
          (* a fraction past the guard empties the bag, as the
             reference machine's join does *)
          try join_slots f.f_bags base (base + count) Permission.empty_bag
          with Permission.Frac.Overflow -> Permission.empty_bag)
    in
    let pred =
      match log with
      | None -> -1
      | Some l ->
          let p = ref (-1) in
          for i = base to base + count - 1 do
            p := Trace.deeper l !p f.f_src.!(i)
          done;
          !p
    in
    for i = 0 to count - 1 do
      f.f_stamp.!(base + i) <- 0
    done;
    f.f_occ <- f.f_occ - count;
    if f.f_occ = 0 then release cid f;
    fire t node cid inputs held pred
  in
  (* --- token delivery and waiting-matching -------------------------- *)
  let deliver t node port cid v bag src =
    let op = c.opcode.!(node) in
    if op = op_merge || c.in_ar.!(node) = 1 then begin
      (* no rendezvous needed: a merge fires on every delivery, and a
         single token is already a complete match for a monadic
         operator — neither touches a frame.  The monadic token is a
         momentary matching entry, as in {!Matching}; a merge makes
         none.  Its one token is the deepest input *)
      if op <> op_merge then begin
        if !entries >= !peak_matching then peak_matching := !entries + 1;
        match san with
        | Some s -> Sanitize.on_delivery s ~node ~port
        | None -> ()
      end;
      if direct then exec1 t node cid v bag src
      else fire t node cid [| v |] bag src
    end
    else begin
      (match san with
      | Some s -> Sanitize.on_delivery s ~node ~port
      | None -> ());
      let existing = !frames.!(cid) in
      let f = if existing == nil_frame then acquire cid else existing in
      let slot = c.frame_off.!(node) + port in
      if f.f_stamp.!(slot) = f.f_gen then begin
        (* presence bit already set: the single-token-per-arc
           discipline is violated *)
        if config.Config.detect_collisions then
          abort
            (Diagnosis.Collision
               (Fmt.str "node %d (%s) port %d ctx %s" node
                  (Dfg.Graph.node g node).Dfg.Node.label port
                  (Context.to_string (Context.of_id ids cid))));
        (* undetected: the late token overwrites the slot, exactly the
           Figure 8 pile-up the sanitizer then reports as Double_fire *)
        f.f_vals.!(slot) <- v;
        f.f_bags.!(slot) <- bag;
        if logging then f.f_src.!(slot) <- src
      end
      else begin
        f.f_stamp.!(slot) <- f.f_gen;
        f.f_vals.!(slot) <- v;
        f.f_bags.!(slot) <- bag;
        if logging then f.f_src.!(slot) <- src;
        f.f_occ <- f.f_occ + 1;
        if f.f_occ = 1 then begin
          incr live;
          if !live > !peak_frames then peak_frames := !live
        end;
        let la = c.loop_ar.!(node) in
        if la = 0 then begin
          if f.f_nstamp.!(node) <> f.f_gen then begin
            f.f_nstamp.!(node) <- f.f_gen;
            f.f_need.!(node) <- c.in_ar.!(node);
            incr entries;
            if !entries > !peak_matching then peak_matching := !entries
          end;
          f.f_need.!(node) <- f.f_need.!(node) - 1;
          if f.f_need.!(node) = 0 then begin
            f.f_nstamp.!(node) <- 0;
            decr entries;
            gather t cid f node 0 c.in_ar.!(node) ~extra_pad:false
          end
        end
        else if port < la then begin
          (* gateway initial group: ports 0..arity-1; the gateway's one
             entry is open while either group holds a token *)
          if f.f_nstamp.!(node) <> f.f_gen then begin
            if f.f_bstamp.!(node) <> f.f_gen then begin
              incr entries;
              if !entries > !peak_matching then peak_matching := !entries
            end;
            f.f_nstamp.!(node) <- f.f_gen;
            f.f_need.!(node) <- la
          end;
          f.f_need.!(node) <- f.f_need.!(node) - 1;
          if f.f_need.!(node) = 0 then begin
            f.f_nstamp.!(node) <- 0;
            if f.f_bstamp.!(node) <> f.f_gen then decr entries;
            gather t cid f node 0 la ~extra_pad:false
          end
        end
        else begin
          (* gateway back-edge group: ports arity..2*arity-1; the fired
             group is encoded by the input-array length (arity+1 with a
             trailing pad), as {!Matching.deliver} does *)
          if f.f_bstamp.!(node) <> f.f_gen then begin
            if f.f_nstamp.!(node) <> f.f_gen then begin
              incr entries;
              if !entries > !peak_matching then peak_matching := !entries
            end;
            f.f_bstamp.!(node) <- f.f_gen;
            f.f_need_back.!(node) <- la
          end;
          f.f_need_back.!(node) <- f.f_need_back.!(node) - 1;
          if f.f_need_back.!(node) = 0 then begin
            f.f_bstamp.!(node) <- 0;
            if f.f_nstamp.!(node) <> f.f_gen then decr entries;
            gather t cid f node la la ~extra_pad:true
          end
        end
      end
    end
  in
  (* boot: fire Start at cycle 0.  In direct mode the ready queue would
     otherwise stay empty for the whole run, so the main loop can skip
     the issue machinery entirely *)
  let boot_held =
    match perm with Some p -> Permission.mint p | None -> Permission.empty_bag
  in
  (* the firings counted into earlier cycles' samples: the delta at a
     cycle's end is its parallelism in both the direct and queued modes,
     a Start executed at boot included *)
  let counted = ref 0 in
  let top = Context.id ids Context.toplevel in
  if direct then exec 0 c.start top [||] boot_held (-1)
  else
    Queue.add
      {
        fr_node = c.start;
        fr_cid = top;
        fr_inputs = [||];
        fr_held = boot_held;
        fr_pred = -1;
      }
      ready;
  (* the single-PE issue rule, with no fault plan to stall it *)
  let is_mem f = c.is_mem.(f.fr_node) and no_stall _ = false in
  let fire_queued f =
    exec !t f.fr_node f.fr_cid f.fr_inputs f.fr_held f.fr_pred
  in
  try
    let finished = ref false in
    while not !finished do
      if !t > config.Config.max_cycles then
        abort (Diagnosis.Diverged config.Config.max_cycles);
      (* 1. deliver the tokens scheduled for this cycle (in direct mode
         completed matches execute inline here) *)
      let b = wheel.(!t land mask) in
      let count = b.b_len in
      b.b_len <- 0;
      for i = 0 to count - 1 do
        decr pending;
        deliver !t b.b_node.!(i) b.b_port.!(i) b.b_cid.!(i) b.b_val.!(i)
          b.b_bag.!(i)
          (if logging then b.b_src.!(i) else -1)
      done;
      (* 2. issue enabled firings (in direct mode completed matches
         already executed during delivery and the queue is empty) *)
      if not direct then
        Firing.issue config ready ~is_mem ~stalled:no_stall ~fire:fire_queued;
      (* 3. end-of-cycle samples *)
      let fired = !firings - !counted in
      counted := !firings;
      if fired > !peak_parallelism then peak_parallelism := fired;
      if !pending > !peak_in_flight then peak_in_flight := !pending;
      (match log with
      | Some l -> Trace.sample l ~fired ~in_flight:!pending ~matching:!entries
      | None -> ());
      (* 4. quiescence / event-driven skip to the next scheduled cycle *)
      if Queue.is_empty ready && !pending = 0 then finished := true
      else if not (Queue.is_empty ready) then incr t
      else begin
        (* nothing enabled: jump straight to the next delivery cycle;
           a skipped cycle fires nothing and moves no token *)
        let j = ref 1 in
        while wheel.((!t + !j) land mask).b_len = 0 do incr j done;
        (match log with
        | Some l ->
            for _ = 2 to !j do
              Trace.sample l ~fired:0 ~in_flight:!pending ~matching:!entries
            done
        | None -> ());
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
    let firings_by_kind = Firing.by_kind g ~fired:by_node ~order !ordered in
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
        peak_matching = !peak_matching;
        peak_frames = !peak_frames;
        peak_in_flight = !peak_in_flight;
        firings_by_kind;
        diagnosis;
      }
  with Abort d ->
    repool ();
    Error d

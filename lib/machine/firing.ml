(** The single-PE machine's rules, shared by the reference machine
    ({!Multiproc}'s run loop) and the packed engine ({!Packed}) (see the
    interface), so each composes them with its own token store and
    schedule instead of forking them. *)

let dummy_value = Imp.Value.Int 0

let family (k : Dfg.Node.kind) : string =
  match k with
  | Dfg.Node.Start _ -> "start"
  | Dfg.Node.End _ -> "end"
  | Dfg.Node.Const _ -> "const"
  | Dfg.Node.Binop _ | Dfg.Node.Unop _ -> "alu"
  | Dfg.Node.Id -> "id"
  | Dfg.Node.Sink -> "sink"
  | Dfg.Node.Load _ -> "load"
  | Dfg.Node.Store _ -> "store"
  | Dfg.Node.Switch -> "switch"
  | Dfg.Node.Merge -> "merge"
  | Dfg.Node.Synch _ -> "synch"
  | Dfg.Node.Loop_entry _ -> "loop-entry"
  | Dfg.Node.Loop_exit _ -> "loop-exit"

let by_kind (g : Dfg.Graph.t) ~(fired : int array) ~(order : int array) n :
    (string * int) list =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    let v = order.(i) in
    let fam = family (Dfg.Graph.kind g v) in
    let before = Option.value ~default:0 (Hashtbl.find_opt tbl fam) in
    Hashtbl.replace tbl fam (fired.(v) + before)
  done;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let issue (config : Config.t) (q : 'f Queue.t) ~is_mem ~stalled ~fire =
  let budget =
    match config.Config.pes with
    | None -> Queue.length q
    | Some k -> min k (Queue.length q)
  in
  let mem_issued = ref 0 and refused = ref [] in
  for _ = 1 to budget do
    let f = Queue.pop q in
    let mem = is_mem f in
    let port_free =
      match config.Config.memory_ports with
      | None -> true
      | Some k -> (not mem) || !mem_issued < max 1 k
    in
    let stall = mem && stalled f in
    if port_free && not stall then begin
      if mem then incr mem_issued;
      fire f
    end
    else refused := f :: !refused
  done;
  List.iter (fun f -> Queue.add f q) (List.rev !refused)

type emissions = {
  mutable e_node : int array;
  mutable e_port : int array;
  mutable e_cid : int array;
  mutable e_src : int array;
  mutable e_val : Imp.Value.t array;
  mutable e_len : int;
}

type env = {
  graph : Dfg.Graph.t;
  layout : Imp.Layout.t;
  memory : Imp.Memory.t;
  present : bool array;
  deferred : (int, (int * int * int) list) Hashtbl.t;
  ids : Context.table;
  log : Trace.t option;
  out : emissions;
  mutable labels : int list array;
}

let make_env ?log ~graph ~layout memory =
  {
    graph;
    layout;
    memory;
    present = Array.make (max 1 layout.Imp.Layout.words) false;
    deferred = Hashtbl.create 16;
    ids = Context.table ();
    log;
    out =
      {
        e_node = Array.make 16 0;
        e_port = Array.make 16 0;
        e_cid = Array.make 16 0;
        e_src = Array.make 16 0;
        e_val = Array.make 16 dummy_value;
        e_len = 0;
      };
    labels = Array.make 16 [];
  }

let deferred_count (env : env) =
  Hashtbl.fold (fun _ ws acc -> acc + List.length ws) env.deferred 0

let deferred_reads (env : env) =
  Hashtbl.fold
    (fun addr ws acc -> (addr, List.length ws) :: acc)
    env.deferred []
  |> List.sort compare

let address (env : env) (kind : Dfg.Node.kind) ~(value : 'tok -> Imp.Value.t)
    (inputs : 'tok array) : int =
  match kind with
  | Dfg.Node.Load { var; indexed; _ } ->
      if indexed then
        Imp.Layout.addr env.layout var (Imp.Value.to_int (value inputs.(1)))
      else Imp.Layout.addr env.layout var 0
  | Dfg.Node.Store { var; indexed; _ } ->
      if indexed then
        Imp.Layout.addr env.layout var (Imp.Value.to_int (value inputs.(2)))
      else Imp.Layout.addr env.layout var 0
  | _ -> assert false

let grow a zero =
  let k = Array.length a in
  let c = Array.make (2 * k) zero in
  Array.blit a 0 c 0 k;
  c

(* append one emission to the buffer *)
let emit (o : emissions) node port cid meta v =
  let k = o.e_len in
  if k = Array.length o.e_node then begin
    o.e_node <- grow o.e_node 0;
    o.e_port <- grow o.e_port 0;
    o.e_cid <- grow o.e_cid 0;
    o.e_src <- grow o.e_src 0;
    o.e_val <- grow o.e_val dummy_value
  end;
  o.e_node.(k) <- node;
  o.e_port.(k) <- port;
  o.e_cid.(k) <- cid;
  o.e_src.(k) <- meta;
  o.e_val.(k) <- v;
  o.e_len <- k + 1

let clear (env : env) =
  let o = env.out in
  Array.fill o.e_val 0 o.e_len dummy_value;
  o.e_len <- 0

(* label the deliveries along [arcs] from [k] on; returns the next *)
let rec label env own (arcs : Dfg.Graph.arc list) k =
  match arcs with
  | [] -> k
  | a :: rest ->
      if k = Array.length env.labels then env.labels <- grow env.labels [];
      env.labels.(k) <- (if own then a.Dfg.Graph.tokens else []);
      label env own rest (k + 1)

let split (env : env) perm ~node ~held =
  let o = env.out and count = ref 0 in
  for i = 0 to o.e_len - 1 do
    let en = o.e_node.(i) in
    count :=
      label env (en = node) (Dfg.Graph.outgoing env.graph en o.e_port.(i)) !count
  done;
  Permission.split perm ~node ~held env.labels 0 !count

(* complete the deferred reads [waiters] with [v]; each depends on both
   the parked load and the store that satisfied it ([meta]) *)
let rec wake env meta v = function
  | [] -> ()
  | (rn, rcid, rmeta) :: rest ->
      let wmeta =
        match env.log with Some l -> Trace.deeper l rmeta meta | None -> rmeta
      in
      emit env.out rn 0 rcid wmeta v;
      emit env.out rn 1 rcid wmeta dummy_value;
      wake env meta v rest

let execute (env : env) ~(meta : int) ~(on_complete : unit -> unit)
    ~(double_write : string -> unit) ~node ~(cid : int)
    ~(value : 'tok -> Imp.Value.t) ~(inputs : 'tok array) : unit =
  let o = env.out in
  let kind = Dfg.Graph.kind env.graph node in
  match kind with
  | Dfg.Node.Start k ->
      for i = 0 to k - 1 do
        emit o node i cid meta dummy_value
      done
  | Dfg.Node.End _ -> on_complete ()
  | Dfg.Node.Const v -> emit o node 0 cid meta v
  | Dfg.Node.Binop op ->
      emit o node 0 cid meta
        (Imp.Value.binop op (value inputs.(0)) (value inputs.(1)))
  | Dfg.Node.Unop op -> emit o node 0 cid meta (Imp.Value.unop op (value inputs.(0)))
  | Dfg.Node.Id | Dfg.Node.Merge -> emit o node 0 cid meta (value inputs.(0))
  | Dfg.Node.Sink -> ()
  | Dfg.Node.Load { mem; _ } -> (
      let a = address env kind ~value inputs in
      match mem with
      | Dfg.Node.I_structure when not env.present.(a) ->
          (* deferred read: completes when the cell is written *)
          Hashtbl.replace env.deferred a
            ((node, cid, meta)
            :: (try Hashtbl.find env.deferred a with Not_found -> []))
      | Dfg.Node.Plain | Dfg.Node.I_structure ->
          emit o node 0 cid meta
            (Imp.Value.Int (Imp.Memory.read_addr env.memory a));
          emit o node 1 cid meta dummy_value)
  | Dfg.Node.Store { mem; _ } -> (
      let a = address env kind ~value inputs in
      let v = Imp.Value.to_int (value inputs.(1)) in
      match mem with
      | Dfg.Node.Plain ->
          Imp.Memory.write_addr env.memory a v;
          emit o node 0 cid meta dummy_value
      | Dfg.Node.I_structure -> (
          if env.present.(a) then
            double_write
              (Fmt.str "I-structure cell %d written twice (node %d)" a node);
          Imp.Memory.write_addr env.memory a v;
          env.present.(a) <- true;
          emit o node 0 cid meta dummy_value;
          (* wake deferred readers: the completed split-phase read emits
             from the load's own output ports, bypassing rendezvous --
             exactly as a real I-fetch response *)
          match Hashtbl.find_opt env.deferred a with
          | Some waiters ->
              Hashtbl.remove env.deferred a;
              wake env meta (Imp.Value.Int v) waiters
          | None -> ()))
  | Dfg.Node.Switch ->
      let data = value inputs.(0) in
      emit o node
        (if Imp.Value.to_bool (value inputs.(1)) then 0 else 1)
        cid meta data
  | Dfg.Node.Synch _ -> emit o node 0 cid meta dummy_value
  | Dfg.Node.Loop_entry { arity; _ } ->
      (* group encoded by input array length (see {!Matching.deliver}):
         the initial group opens iteration 0, the back edge advances the
         iteration tag *)
      let cid =
        Context.move env.ids
          (if Array.length inputs = arity then Context.enter else Context.next)
          cid
      in
      for i = 0 to arity - 1 do
        emit o node i cid meta (value inputs.(i))
      done
  | Dfg.Node.Loop_exit { arity; _ } ->
      let cid = Context.move env.ids Context.leave cid in
      for i = 0 to arity - 1 do
        emit o node i cid meta (value inputs.(i))
      done

(** The dataflow firing rule shared by the reference machine
    ({!Multiproc}'s run loop) and the packed engine ({!Packed}) (see the
    interface), so each composes the same operator semantics with its
    own token store and transport instead of forking them. *)

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

let by_kind iter : (string * int) list =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
  iter (fun fam n ->
      let before = Option.value ~default:0 (Hashtbl.find_opt tbl fam) in
      Hashtbl.replace tbl fam (n + before));
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

type 'meta env = {
  graph : Dfg.Graph.t;
  layout : Imp.Layout.t;
  memory : Imp.Memory.t;
  present : bool array;
  deferred : (int, (int * Context.t * 'meta) list) Hashtbl.t;
}

let make_env ~graph ~layout memory =
  {
    graph;
    layout;
    memory;
    present = Array.make (max 1 layout.Imp.Layout.words) false;
    deferred = Hashtbl.create 16;
  }

let deferred_count (env : 'meta env) =
  Hashtbl.fold (fun _ ws acc -> acc + List.length ws) env.deferred 0

let deferred_reads (env : 'meta env) =
  Hashtbl.fold
    (fun addr ws acc -> (addr, List.length ws) :: acc)
    env.deferred []
  |> List.sort compare

let address (env : 'meta env) (kind : Dfg.Node.kind)
    ~(value : 'tok -> Imp.Value.t) (inputs : 'tok array) : int =
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

let execute (env : 'meta env)
    ~(emit :
       node:int -> port:int -> ctx:Context.t -> meta:'meta -> Imp.Value.t -> unit)
    ~(meta : 'meta) ~(meta_max : 'meta -> 'meta -> 'meta)
    ~(on_complete : unit -> unit) ~(double_write : string -> unit) ~node
    ~(ctx : Context.t) ~(value : 'tok -> Imp.Value.t) ~(inputs : 'tok array) :
    unit =
  let kind = Dfg.Graph.kind env.graph node in
  match kind with
  | Dfg.Node.Start k ->
      for i = 0 to k - 1 do
        emit ~node ~port:i ~ctx ~meta dummy_value
      done
  | Dfg.Node.End _ -> on_complete ()
  | Dfg.Node.Const v -> emit ~node ~port:0 ~ctx ~meta v
  | Dfg.Node.Binop op ->
      emit ~node ~port:0 ~ctx ~meta
        (Imp.Value.binop op (value inputs.(0)) (value inputs.(1)))
  | Dfg.Node.Unop op ->
      emit ~node ~port:0 ~ctx ~meta (Imp.Value.unop op (value inputs.(0)))
  | Dfg.Node.Id | Dfg.Node.Merge ->
      emit ~node ~port:0 ~ctx ~meta (value inputs.(0))
  | Dfg.Node.Sink -> ()
  | Dfg.Node.Load { mem; _ } -> (
      let a = address env kind ~value inputs in
      match mem with
      | Dfg.Node.Plain ->
          emit ~node ~port:0 ~ctx ~meta
            (Imp.Value.Int (Imp.Memory.read_addr env.memory a));
          emit ~node ~port:1 ~ctx ~meta dummy_value
      | Dfg.Node.I_structure ->
          if env.present.(a) then begin
            emit ~node ~port:0 ~ctx ~meta
              (Imp.Value.Int (Imp.Memory.read_addr env.memory a));
            emit ~node ~port:1 ~ctx ~meta dummy_value
          end
          else
            (* deferred read: completes when the cell is written *)
            Hashtbl.replace env.deferred a
              ((node, ctx, meta)
              :: (try Hashtbl.find env.deferred a with Not_found -> [])))
  | Dfg.Node.Store { mem; _ } -> (
      let a = address env kind ~value inputs in
      let v = Imp.Value.to_int (value inputs.(1)) in
      match mem with
      | Dfg.Node.Plain ->
          Imp.Memory.write_addr env.memory a v;
          emit ~node ~port:0 ~ctx ~meta dummy_value
      | Dfg.Node.I_structure ->
          if env.present.(a) then
            double_write
              (Fmt.str "I-structure cell %d written twice (node %d)" a node);
          Imp.Memory.write_addr env.memory a v;
          env.present.(a) <- true;
          emit ~node ~port:0 ~ctx ~meta dummy_value;
          (* wake deferred readers: the completed split-phase read emits
             from the load's own output ports, bypassing rendezvous --
             exactly as a real I-fetch response *)
          (match Hashtbl.find_opt env.deferred a with
          | Some waiters ->
              Hashtbl.remove env.deferred a;
              List.iter
                (fun (rn, rctx, rmeta) ->
                  let wmeta = meta_max rmeta meta in
                  emit ~node:rn ~port:0 ~ctx:rctx ~meta:wmeta (Imp.Value.Int v);
                  emit ~node:rn ~port:1 ~ctx:rctx ~meta:wmeta dummy_value)
                waiters
          | None -> ()))
  | Dfg.Node.Switch ->
      let data = value inputs.(0) in
      emit ~node
        ~port:(if Imp.Value.to_bool (value inputs.(1)) then 0 else 1)
        ~ctx ~meta data
  | Dfg.Node.Synch _ -> emit ~node ~port:0 ~ctx ~meta dummy_value
  | Dfg.Node.Loop_entry { arity; _ } ->
      (* group encoded by input array length (see {!Matching.deliver}):
         the initial group opens iteration 0, the back edge advances the
         iteration tag *)
      let ctx =
        if Array.length inputs = arity then Context.enter ctx
        else Context.next ctx
      in
      for i = 0 to arity - 1 do
        emit ~node ~port:i ~ctx ~meta (value inputs.(i))
      done
  | Dfg.Node.Loop_exit { arity; _ } ->
      let ctx = Context.leave ctx in
      for i = 0 to arity - 1 do
        emit ~node ~port:i ~ctx ~meta (value inputs.(i))
      done

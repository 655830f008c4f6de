(** Online token-conservation sanitizer (see the interface). *)

type violation =
  | Double_fire of { df_node : int; df_ctx : Context.t }
  | Switch_imbalance of { sw_node : int; sw_in : int; sw_fired : int }
  | Loop_imbalance of {
      li_loop : int;
      li_activations : int;  (** distinct initial-entry contexts *)
      li_entries : int;
      li_entry_gates : int;
      li_exits : int;
      li_exit_ctxs : int;  (** distinct exit contexts *)
      li_exit_gates : int;
    }
  | Store_leak of { sl_tokens : int; sl_by_pe : (int * int) list }

let violation_to_string = function
  | Double_fire { df_node; df_ctx } ->
      Fmt.str "double fire: node %d at ctx %s" df_node
        (Context.to_string df_ctx)
  | Switch_imbalance { sw_node; sw_in; sw_fired } ->
      Fmt.str "switch %d fired %d times on %d data tokens" sw_node sw_fired
        sw_in
  | Loop_imbalance { li_loop; li_activations; li_entries; li_entry_gates;
                     li_exits; li_exit_ctxs; li_exit_gates } ->
      Fmt.str
        "loop %d unbalanced: %d activation(s), %d initial entries over %d \
         entry gateway(s), %d exits at %d context(s) over %d exit gateway(s)"
        li_loop li_activations li_entries li_entry_gates li_exits li_exit_ctxs
        li_exit_gates
  | Store_leak { sl_tokens; sl_by_pe } ->
      Fmt.str "%d token(s) leaked in the matching store at quiescence%s"
        sl_tokens
        (match sl_by_pe with
        | [] -> ""
        | by_pe ->
            Fmt.str " (%s)"
              (String.concat ", "
                 (List.map
                    (fun (pe, n) -> Fmt.str "pe %d: %d" pe n)
                    by_pe)))

let pp_violation ppf v = Fmt.string ppf (violation_to_string v)

type t = {
  graph : Dfg.Graph.t;
  mutable recurrent : bool array option;
      (** nodes on a gateway-free cycle, which re-fire in one context;
          found at the first repeated (node, context) *)
  entry_gates : (int, int) Hashtbl.t;  (** loop id -> Loop_entry node count *)
  exit_gates : (int, int) Hashtbl.t;  (** loop id -> Loop_exit node count *)
  mutable fired : (int * Context.t, unit) Hashtbl.t;
  mutable switch_in : int array;  (** data (port 0) deliveries per switch *)
  mutable switch_fired : int array;
  mutable loop_entries : (int, int) Hashtbl.t;  (** initial-group fires *)
  mutable loop_exits : (int, int) Hashtbl.t;
  mutable entry_ctxs : (int * Context.t, unit) Hashtbl.t;
      (** distinct (loop, ctx) of initial entry fires = activations *)
  mutable exit_ctxs : (int * Context.t, unit) Hashtbl.t;
}

let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* The nodes on a cycle: in a strongly connected component of two or
   more nodes, or with an arc to themselves. *)
let on_cycles (g : Dfg.Graph.t) : bool array =
  let gsucc =
    Array.map
      (Array.fold_left
         (List.fold_left (fun acc a -> a.Dfg.Graph.dst.Dfg.Graph.node :: acc))
         [])
      g.Dfg.Graph.outs
  in
  let cyclic = Array.mapi (fun v succs -> List.mem v succs) gsucc in
  List.iter
    (function
      | _ :: _ :: _ as comp -> List.iter (fun v -> cyclic.(v) <- true) comp
      | _ -> ())
    (Cfg.Intervals.sccs
       { Cfg.Intervals.nn = Array.length gsucc; gsucc; gpred = [||]; entry = 0 });
  cyclic

let create (graph : Dfg.Graph.t) : t =
  let n = Dfg.Graph.num_nodes graph in
  let entry_gates = Hashtbl.create 4 and exit_gates = Hashtbl.create 4 in
  Dfg.Graph.iter_nodes graph (fun node ->
      match node.Dfg.Node.kind with
      | Dfg.Node.Loop_entry { loop; _ } -> bump entry_gates loop
      | Dfg.Node.Loop_exit { loop; _ } -> bump exit_gates loop
      | _ -> ());
  {
    graph;
    recurrent = None;
    entry_gates;
    exit_gates;
    fired = Hashtbl.create 256;
    switch_in = Array.make n 0;
    switch_fired = Array.make n 0;
    loop_entries = Hashtbl.create 4;
    loop_exits = Hashtbl.create 4;
    entry_ctxs = Hashtbl.create 16;
    exit_ctxs = Hashtbl.create 16;
  }

let on_delivery (t : t) ~node ~port =
  match Dfg.Graph.kind t.graph node with
  | Dfg.Node.Switch when port = 0 ->
      t.switch_in.(node) <- t.switch_in.(node) + 1
  | _ -> ()

(* A translation gates either every loop (Schemas 2 and 3, whose
   iterations get contexts of their own) or none (Schema 1's single
   circulating token, fig8).  Only a gateway-free graph has cycles whose
   nodes re-fire in one context, and it finds them once, at its first
   repeated firing; a graph with gateways never pays. *)
let recurrent (t : t) node =
  Hashtbl.length t.entry_gates = 0
  &&
  match t.recurrent with
  | Some r -> r.(node)
  | None ->
      let r = on_cycles t.graph in
      t.recurrent <- Some r;
      r.(node)

let on_fire (t : t) ~node ~ctx ~group : violation option =
  (match Dfg.Graph.kind t.graph node with
  | Dfg.Node.Switch -> t.switch_fired.(node) <- t.switch_fired.(node) + 1
  | Dfg.Node.Loop_entry { loop; arity } ->
      (* group length [arity] = initial entry; [arity + 1] = back edge *)
      if group = arity then begin
        bump t.loop_entries loop;
        Hashtbl.replace t.entry_ctxs (loop, ctx) ()
      end
  | Dfg.Node.Loop_exit { loop; _ } ->
      bump t.loop_exits loop;
      Hashtbl.replace t.exit_ctxs (loop, ctx) ()
  | _ -> ());
  let key = (node, ctx) in
  if Hashtbl.mem t.fired key then
    if recurrent t node then None
    else Some (Double_fire { df_node = node; df_ctx = ctx })
  else begin
    Hashtbl.replace t.fired key ();
    None
  end

let at_quiescence ?(by_pe = []) (t : t) ~leftover : violation list =
  let vs = ref [] in
  if leftover > 0 then
    vs :=
      [
        Store_leak
          {
            sl_tokens = leftover;
            sl_by_pe = List.filter (fun (_, n) -> n > 0) by_pe;
          };
      ];
  (* Every loop's activations must balance.  An activation is one
     distinct initial-entry context.  Each activation drives every entry
     gateway exactly once (initial group), and leaves through exactly
     one exit site — all of that site's gateways fire once, at one
     shared exit context.  A loop may have several exit sites (goto
     programs), so exit fires are only bounded by the total gateway
     count; the exact conservation law is on the distinct contexts. *)
  let distinct ctxs l =
    Hashtbl.fold (fun (l', _) () a -> if l' = l then a + 1 else a) ctxs 0
  in
  let loops =
    Hashtbl.fold (fun l _ acc -> l :: acc) t.entry_gates []
    |> List.sort_uniq compare
  in
  List.iter
    (fun l ->
      let e_gates = Option.value ~default:0 (Hashtbl.find_opt t.entry_gates l)
      and x_gates = Option.value ~default:0 (Hashtbl.find_opt t.exit_gates l) in
      let entries = Option.value ~default:0 (Hashtbl.find_opt t.loop_entries l)
      and exits = Option.value ~default:0 (Hashtbl.find_opt t.loop_exits l) in
      let activations = distinct t.entry_ctxs l in
      let exit_ctxs = distinct t.exit_ctxs l in
      if
        e_gates > 0 && x_gates > 0
        && (entries <> activations * e_gates
           || exit_ctxs <> activations
           || exits < exit_ctxs
           || exits > activations * x_gates)
      then
        vs :=
          Loop_imbalance
            {
              li_loop = l;
              li_activations = activations;
              li_entries = entries;
              li_entry_gates = e_gates;
              li_exits = exits;
              li_exit_ctxs = exit_ctxs;
              li_exit_gates = x_gates;
            }
          :: !vs)
    loops;
  Array.iteri
    (fun node inflow ->
      let fired = t.switch_fired.(node) in
      if inflow <> fired then
        vs :=
          Switch_imbalance { sw_node = node; sw_in = inflow; sw_fired = fired }
          :: !vs)
    t.switch_in;
  List.rev !vs

(* Checkpoint support: the sanitizer's memory of what has fired must
   roll back with the machine, or replayed firings would all read as
   double fires. *)
type snap = {
  sn_fired : (int * Context.t, unit) Hashtbl.t;
  sn_switch_in : int array;
  sn_switch_fired : int array;
  sn_loop_entries : (int, int) Hashtbl.t;
  sn_loop_exits : (int, int) Hashtbl.t;
  sn_entry_ctxs : (int * Context.t, unit) Hashtbl.t;
  sn_exit_ctxs : (int * Context.t, unit) Hashtbl.t;
}

let snapshot (t : t) : snap =
  {
    sn_fired = Hashtbl.copy t.fired;
    sn_switch_in = Array.copy t.switch_in;
    sn_switch_fired = Array.copy t.switch_fired;
    sn_loop_entries = Hashtbl.copy t.loop_entries;
    sn_loop_exits = Hashtbl.copy t.loop_exits;
    sn_entry_ctxs = Hashtbl.copy t.entry_ctxs;
    sn_exit_ctxs = Hashtbl.copy t.exit_ctxs;
  }

let restore (t : t) (s : snap) : unit =
  t.fired <- Hashtbl.copy s.sn_fired;
  t.switch_in <- Array.copy s.sn_switch_in;
  t.switch_fired <- Array.copy s.sn_switch_fired;
  t.loop_entries <- Hashtbl.copy s.sn_loop_entries;
  t.loop_exits <- Hashtbl.copy s.sn_loop_exits;
  t.entry_ctxs <- Hashtbl.copy s.sn_entry_ctxs;
  t.exit_ctxs <- Hashtbl.copy s.sn_exit_ctxs

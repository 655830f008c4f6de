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

(* The run's mutable memory, in arrays: one fired bit per (node,
   context id), per-switch counts, and per-loop fire counts with one bit
   per (loop, context id) for the distinct entry and exit contexts.  A
   bit set grows by doubling when a larger context id first shows up.
   This is what {!snapshot} copies and {!restore} puts back. *)
type state = {
  fired : Bytes.t array;  (** per node *)
  switch_in : int array;  (** data (port 0) deliveries per switch *)
  switch_fired : int array;
  entries : int array;  (** per loop: initial-group fires *)
  exits : int array;  (** per loop: exit-gateway fires *)
  entry_ctxs : Bytes.t array;
      (** per loop: contexts of initial entry fires = activations *)
  exit_ctxs : Bytes.t array;
}

let copy_state s =
  {
    fired = Array.map Bytes.copy s.fired;
    switch_in = Array.copy s.switch_in;
    switch_fired = Array.copy s.switch_fired;
    entries = Array.copy s.entries;
    exits = Array.copy s.exits;
    entry_ctxs = Array.map Bytes.copy s.entry_ctxs;
    exit_ctxs = Array.map Bytes.copy s.exit_ctxs;
  }

type t = {
  graph : Dfg.Graph.t;
  ids : Context.table;
  mutable recurrent : bool array option;
      (** nodes on a gateway-free cycle, which re-fire in one context;
          found at the first repeated (node, context) *)
  is_switch : bool array;
  entry_gates : int array;  (** loop id -> Loop_entry node count *)
  exit_gates : int array;  (** loop id -> Loop_exit node count *)
  mutable st : state;
}

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

let create ~ids (graph : Dfg.Graph.t) : t =
  let n = Dfg.Graph.num_nodes graph in
  let loops = ref 0 in
  for v = 0 to n - 1 do
    match Dfg.Graph.kind graph v with
    | Dfg.Node.Loop_entry { loop; _ } | Dfg.Node.Loop_exit { loop; _ } ->
        loops := max !loops (loop + 1)
    | _ -> ()
  done;
  let entry_gates = Array.make !loops 0 and exit_gates = Array.make !loops 0 in
  for v = 0 to n - 1 do
    match Dfg.Graph.kind graph v with
    | Dfg.Node.Loop_entry { loop; _ } ->
        entry_gates.(loop) <- entry_gates.(loop) + 1
    | Dfg.Node.Loop_exit { loop; _ } ->
        exit_gates.(loop) <- exit_gates.(loop) + 1
    | _ -> ()
  done;
  {
    graph;
    ids;
    recurrent = None;
    is_switch =
      Array.init n (fun v ->
          match Dfg.Graph.kind graph v with Dfg.Node.Switch -> true | _ -> false);
    entry_gates;
    exit_gates;
    st =
      {
        fired = Array.make n Bytes.empty;
        switch_in = Array.make n 0;
        switch_fired = Array.make n 0;
        entries = Array.make !loops 0;
        exits = Array.make !loops 0;
        entry_ctxs = Array.make !loops Bytes.empty;
        exit_ctxs = Array.make !loops Bytes.empty;
      };
  }

(* [mark sets i id] sets bit [id] of [sets.(i)], first growing the set
   to fit; true when the bit was already set *)
let mark (sets : Bytes.t array) i id =
  let byte = id lsr 3 and bit = 1 lsl (id land 7) in
  let len = Bytes.length sets.(i) in
  if byte >= len then begin
    let b = Bytes.make (max (byte + 1) (2 * len)) '\000' in
    Bytes.blit sets.(i) 0 b 0 len;
    sets.(i) <- b
  end;
  let b = sets.(i) in
  let x = Char.code (Bytes.unsafe_get b byte) in
  Bytes.unsafe_set b byte (Char.unsafe_chr (x lor bit));
  x land bit <> 0

let popcount (b : Bytes.t) =
  let n = ref 0 in
  Bytes.iter (fun c -> for i = 0 to 7 do n := !n + ((Char.code c lsr i) land 1) done) b;
  !n

let on_delivery (t : t) ~node ~port =
  if port = 0 && t.is_switch.(node) then
    t.st.switch_in.(node) <- t.st.switch_in.(node) + 1

(* A translation gates either every loop (Schemas 2 and 3, whose
   iterations get contexts of their own) or none (Schema 1's single
   circulating token, fig8).  Only a gateway-free graph has cycles whose
   nodes re-fire in one context, and it finds them once, at its first
   repeated firing; a graph with gateways never pays. *)
let recurrent (t : t) node =
  Array.for_all (( = ) 0) t.entry_gates
  &&
  match t.recurrent with
  | Some r -> r.(node)
  | None ->
      let r = on_cycles t.graph in
      t.recurrent <- Some r;
      r.(node)

let on_fire_id (t : t) ~node ~cid ~group : violation option =
  let st = t.st in
  (match Dfg.Graph.kind t.graph node with
  | Dfg.Node.Switch -> st.switch_fired.(node) <- st.switch_fired.(node) + 1
  | Dfg.Node.Loop_entry { loop; arity } ->
      (* group length [arity] = initial entry; [arity + 1] = back edge *)
      if group = arity then begin
        st.entries.(loop) <- st.entries.(loop) + 1;
        ignore (mark st.entry_ctxs loop cid : bool)
      end
  | Dfg.Node.Loop_exit { loop; _ } ->
      st.exits.(loop) <- st.exits.(loop) + 1;
      ignore (mark st.exit_ctxs loop cid : bool)
  | _ -> ());
  if not (mark st.fired node cid) then None
  else if recurrent t node then None
  else Some (Double_fire { df_node = node; df_ctx = Context.of_id t.ids cid })

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
  let st = t.st in
  Array.iteri
    (fun l e_gates ->
      let x_gates = t.exit_gates.(l) in
      let entries = st.entries.(l) and exits = st.exits.(l) in
      let activations = popcount st.entry_ctxs.(l) in
      let exit_ctxs = popcount st.exit_ctxs.(l) in
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
    t.entry_gates;
  Array.iteri
    (fun node inflow ->
      let fired = st.switch_fired.(node) in
      if inflow <> fired then
        vs :=
          Switch_imbalance { sw_node = node; sw_in = inflow; sw_fired = fired }
          :: !vs)
    st.switch_in;
  List.rev !vs

(* Checkpoint support: the sanitizer's memory of what has fired must
   roll back with the machine, or replayed firings would all read as
   double fires.  Context ids stay interned: an id is only a name. *)
type snap = state

let snapshot (t : t) : snap = copy_state t.st
let restore (t : t) (s : snap) : unit = t.st <- copy_state s

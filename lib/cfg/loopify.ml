(** Loop-control insertion (paper, Section 3).

    For every cyclic interval we introduce a {e loop entry} node and
    {e loop exit} nodes: all arcs leading to the header -- from outside the
    interval and back edges alike -- are redirected to the loop entry,
    which then leads to the header; a loop exit is placed on every edge
    [A -> B] where [A] is in the cyclic part of the interval and [B] is
    not.  The translation schemas later turn these nodes into the dataflow
    loop-control operators that re-tag tokens per iteration, which is what
    makes Schema 2 a meaningful dataflow computation on cyclic graphs
    (Figure 8's pile-up problem). *)

type loop_info = {
  id : int;
  header : Core.node;  (** header node in the transformed graph *)
  entry : Core.node;  (** the inserted [Loop_entry] node *)
  exits : Core.node list;  (** the inserted [Loop_exit] nodes *)
  body : Core.node list;
      (** cyclic part in the transformed graph, including [entry] and the
          header, excluding exit nodes *)
  vars : string list;  (** variables referenced by body nodes *)
  parent : int option;  (** immediately enclosing loop, if any *)
}

type t = {
  graph : Core.t;  (** the transformed CFG *)
  loops : loop_info array;  (** indexed by loop id, innermost-first *)
  in_body : bool array array;
      (** [in_body.(l).(n)] iff node [n] of the transformed graph is in
          the body of loop [l] *)
}

(** [loop_entry_of t n] is [Some l] iff node [n] is the entry of loop [l]. *)
let loop_entry_of (t : t) (n : Core.node) : int option =
  match Core.kind t.graph n with Core.Loop_entry l -> Some l | _ -> None

(** [transform cfg] inserts loop-control nodes for every loop of [cfg].
    @raise Intervals.Irreducible on irreducible graphs. *)
let transform (cfg : Core.t) : t =
  let ls = Intervals.loops cfg in
  let n0 = Core.num_nodes cfg in
  let nloops = List.length ls in
  (* Growable graph state. *)
  let next = ref n0 in
  let kinds : (int, Core.kind) Hashtbl.t = Hashtbl.create 16 in
  for i = 0 to n0 - 1 do
    Hashtbl.replace kinds i (Core.kind cfg i)
  done;
  let succ : (int, (bool * int) list) Hashtbl.t = Hashtbl.create 16 in
  let pred : (int, (int * bool) list) Hashtbl.t = Hashtbl.create 16 in
  for i = 0 to n0 - 1 do
    Hashtbl.replace succ i
      (List.map (fun e -> (e.Core.dir, e.Core.dst)) (Core.succ cfg i));
    Hashtbl.replace pred i (Core.pred cfg i)
  done;
  let get tbl k = try Hashtbl.find tbl k with Not_found -> [] in
  let fresh kind =
    let id = !next in
    incr next;
    Hashtbl.replace kinds id kind;
    Hashtbl.replace succ id [];
    Hashtbl.replace pred id [];
    id
  in
  let add_edge s d t_ =
    Hashtbl.replace succ s (get succ s @ [ (d, t_) ]);
    Hashtbl.replace pred t_ (get pred t_ @ [ (s, d) ])
  in
  let redirect_edge s d old_t new_t =
    Hashtbl.replace succ s
      (List.map
         (fun (d', t') -> if d' = d && t' = old_t then (d, new_t) else (d', t'))
         (get succ s));
    (* remove one matching pred entry at old_t *)
    let removed = ref false in
    Hashtbl.replace pred old_t
      (List.filter
         (fun (s', d') ->
           if (not !removed) && s' = s && d' = d then begin
             removed := true;
             false
           end
           else true)
         (get pred old_t));
    Hashtbl.replace pred new_t (get pred new_t @ [ (s, d) ])
  in
  (* Body membership per loop, growable via hashtables keyed by node. *)
  let body_tbl = Array.init nloops (fun _ -> Hashtbl.create 16) in
  List.iter
    (fun (l : Intervals.loop) ->
      List.iter (fun n -> Hashtbl.replace body_tbl.(l.Intervals.id) n ()) l.Intervals.body_list)
    ls;
  let in_body l n = Hashtbl.mem body_tbl.(l) n in
  (* Containment on original bodies: [encloses a b] iff body a strictly
     contains body b (checked via b's header plus size). *)
  let orig_size = Array.make nloops 0 in
  List.iter
    (fun (l : Intervals.loop) ->
      orig_size.(l.Intervals.id) <- List.length l.Intervals.body_list)
    ls;
  let encloses a (b : Intervals.loop) =
    a <> b.Intervals.id
    && in_body a b.Intervals.lheader
    && orig_size.(a) >= orig_size.(b.Intervals.id)
  in
  let entries = Array.make nloops (-1) in
  let exit_lists = Array.make nloops [] in
  (* Innermost first (Intervals.loops guarantees the order). *)
  List.iter
    (fun (l : Intervals.loop) ->
      let lid = l.Intervals.id in
      let h = l.Intervals.lheader in
      (* 1. Loop entry: all edges into the header now go through it. *)
      let e = fresh (Core.Loop_entry lid) in
      List.iter
        (fun (p, d) -> redirect_edge p d h e)
        (get pred h);
      add_edge e true h;
      entries.(lid) <- e;
      (* The entry is part of this loop's cyclic region and of every
         enclosing loop's. *)
      Hashtbl.replace body_tbl.(lid) e ();
      List.iter
        (fun (o : Intervals.loop) ->
          if encloses o.Intervals.id l then
            Hashtbl.replace body_tbl.(o.Intervals.id) e ())
        ls;
      (* 2. Loop exits on every edge leaving the cyclic region. *)
      let body_nodes = Hashtbl.fold (fun n () acc -> n :: acc) body_tbl.(lid) [] in
      List.iter
        (fun a ->
          List.iter
            (fun (d, b) ->
              if not (in_body lid b) then begin
                let x = fresh (Core.Loop_exit lid) in
                redirect_edge a d b x;
                add_edge x true b;
                exit_lists.(lid) <- x :: exit_lists.(lid);
                (* The exit node lives inside every strictly enclosing
                   loop (its source does), but not inside this loop. *)
                List.iter
                  (fun (o : Intervals.loop) ->
                    if encloses o.Intervals.id l then
                      Hashtbl.replace body_tbl.(o.Intervals.id) x ())
                  ls
              end)
            (get succ a))
        (List.sort compare body_nodes))
    ls;
  (* Rebuild an immutable CFG. *)
  let n = !next in
  (* filled in place from a constant: [Array.init] of more than 256
     elements whose first one is freshly allocated forces a minor
     collection *)
  let kind_arr = Array.make n Core.Start in
  for i = 0 to n - 1 do
    kind_arr.(i) <- Hashtbl.find kinds i
  done;
  let edges = ref [] in
  for i = n - 1 downto 0 do
    List.iter (fun (d, t_) -> edges := (i, d, t_) :: !edges) (get succ i)
  done;
  let graph = Core.build ~kinds:kind_arr ~edges:!edges in
  let in_body_arr =
    Array.init nloops (fun l ->
        Array.init n (fun i -> Hashtbl.mem body_tbl.(l) i))
  in
  let loop_arr =
    Array.of_list
      (List.map
         (fun (l : Intervals.loop) ->
           let lid = l.Intervals.id in
           let body =
             List.filter (fun i -> in_body_arr.(lid).(i)) (List.init n Fun.id)
           in
           let vars =
             List.concat_map (Core.referenced_vars graph) body
             |> List.sort_uniq compare
           in
           let parent =
             (* innermost strictly-enclosing loop *)
             List.filter (fun (o : Intervals.loop) -> encloses o.Intervals.id l) ls
             |> List.sort (fun a b ->
                    compare orig_size.(a.Intervals.id) orig_size.(b.Intervals.id))
             |> function
             | [] -> None
             | o :: _ -> Some o.Intervals.id
           in
           {
             id = lid;
             header = l.Intervals.lheader;
             entry = entries.(lid);
             exits = List.rev exit_lists.(lid);
             body;
             vars;
             parent;
           })
         ls)
  in
  { graph; loops = loop_arr; in_body = in_body_arr }

(** [loop_of_entry t n]/[loop_of_exit t n] recover loop ids from node
    kinds in the transformed graph. *)
let loop_of_exit (t : t) (n : Core.node) : int option =
  match Core.kind t.graph n with Core.Loop_exit l -> Some l | _ -> None

(** [is_back_edge_source t l n] holds iff node [n] is inside loop [l]'s
    body -- i.e. an edge [n -> entry l] is a back edge rather than an
    initial entry. *)
let is_back_edge_source (t : t) (l : int) (n : Core.node) : bool =
  t.in_body.(l).(n)

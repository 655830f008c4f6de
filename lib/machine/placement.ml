(** Static node-to-PE placement policies (see the interface). *)

type policy = Hash | Round_robin | Affinity | Hier

let policy_to_string = function
  | Hash -> "hash"
  | Round_robin -> "round-robin"
  | Affinity -> "affinity"
  | Hier -> "hier"

let policy_of_string = function
  | "hash" -> Ok Hash
  | "rr" | "round-robin" | "roundrobin" -> Ok Round_robin
  | "affinity" -> Ok Affinity
  | "hier" | "hierarchical" -> Ok Hier
  | s ->
      Error
        (Fmt.str "unknown placement policy %S (hash | rr | affinity | hier)"
           s)

let all_policies = [ Hash; Round_robin; Affinity; Hier ]

type t = {
  pes : int;
  policy : policy;
  assign : int array;
}

(* Knuth multiplicative hash of the node id: the ETS-style frame hash —
   uniform, structure-blind.  The PE index comes from the HIGH bits of
   the 32-bit product (fixed-point multiply by p); the low bits are
   useless here because 0x9E3779B1 = 1 (mod 16), which would make
   [product mod p] the identity for every power-of-two p up to 16. *)
let hash_pe p n = ((n * 0x9E3779B1 land 0xFFFFFFFF) * p) lsr 32

(* Affinity clustering lives in Sched.Cluster (shared with the
   hierarchical placer); the roots are bit-identical to the seed's
   in-module union-find. *)
let affinity_roots = Sched.Cluster.roots

let default_topo pes = Sched.Topology.make Sched.Topology.Uniform ~pes

let compute ?(tree = []) ?topo policy ~pes (g : Dfg.Graph.t) : t =
  let n = Dfg.Graph.num_nodes g in
  let p = max 1 pes in
  let assign = Array.make n 0 in
  (match policy with
  | Hash -> Array.iteri (fun i _ -> assign.(i) <- hash_pe p i) assign
  | Round_robin -> Array.iteri (fun i _ -> assign.(i) <- i mod p) assign
  | Affinity ->
      let roots = affinity_roots g in
      (* bin-pack largest-first onto the least-loaded PE; ties break on
         the lower root / lower PE index so the placement is a pure
         function of the graph *)
      let clusters = Sched.Cluster.sizes roots in
      let load = Array.make p 0 in
      let cluster_pe : (int, int) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (r, s) ->
          let best = ref 0 in
          for pe = 1 to p - 1 do
            if load.(pe) < load.(!best) then best := pe
          done;
          Hashtbl.replace cluster_pe r !best;
          load.(!best) <- load.(!best) + s)
        clusters;
      Array.iteri
        (fun i r -> assign.(i) <- Hashtbl.find cluster_pe r)
        roots
  | Hier ->
      let topo = match topo with Some t -> t | None -> default_topo p in
      let h = Sched.Hplace.compute ~tree ~topo ~pes:p g in
      Array.blit h.Sched.Hplace.assign 0 assign 0 n);
  { pes = p; policy; assign }

let hier_stats ?(tree = []) ?topo ~pes (g : Dfg.Graph.t) =
  let p = max 1 pes in
  let topo = match topo with Some t -> t | None -> default_topo p in
  (Sched.Hplace.compute ~tree ~topo ~pes:p g).Sched.Hplace.stats

type stats = {
  cut_arcs : int;
  total_arcs : int;
  cut_fraction : float;
  per_pe_nodes : int array;
  balance : float;
}

let stats (g : Dfg.Graph.t) (t : t) : stats =
  let cut = ref 0 in
  Array.iter
    (fun (a : Dfg.Graph.arc) ->
      if
        t.assign.(a.Dfg.Graph.src.Dfg.Graph.node)
        <> t.assign.(a.Dfg.Graph.dst.Dfg.Graph.node)
      then incr cut)
    g.Dfg.Graph.arcs;
  let total = Dfg.Graph.num_arcs g in
  let per_pe = Array.make t.pes 0 in
  Array.iter (fun pe -> per_pe.(pe) <- per_pe.(pe) + 1) t.assign;
  let n = Dfg.Graph.num_nodes g in
  let ideal = float_of_int n /. float_of_int t.pes in
  {
    cut_arcs = !cut;
    total_arcs = total;
    cut_fraction =
      (if total = 0 then 0.0 else float_of_int !cut /. float_of_int total);
    per_pe_nodes = per_pe;
    balance =
      (if n = 0 then 1.0
       else float_of_int (Array.fold_left max 0 per_pe) /. ideal);
  }

let pp_stats ppf (s : stats) =
  Fmt.pf ppf "cut %d/%d arcs (%.1f%%), balance %.2f, nodes per PE [%a]"
    s.cut_arcs s.total_arcs (100.0 *. s.cut_fraction) s.balance
    Fmt.(array ~sep:(any " ") int)
    s.per_pe_nodes

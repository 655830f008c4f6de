(** Static placement of dataflow-graph nodes onto processing elements.

    A multiprocessor run fixes one [t] up front: every node lives on
    exactly one PE, tokens between co-resident nodes bypass the network,
    and every arc whose endpoints live on different PEs is a {e cut}
    arc paid for in interconnect traffic.  Three policies:

    - {!Hash} — an ETS-style node-id hash, the Monsoon baseline: spread
      work uniformly, ignore structure entirely;
    - {!Round_robin} — node id modulo [p]: adjacent ids (which the
      translation schemas allocate roughly per statement) often land on
      different PEs, a deliberately communication-hostile strawman;
    - {!Affinity} — cluster each variable's access-token chain (all
      memory operations on one variable plus the switches/merges gating
      its token) and each statement's expression tree, then bin-pack
      clusters largest-first onto the least-loaded PE: minimise cut
      arcs while keeping the load balanced;
    - {!Hier} — hierarchical: carve the PE space into contiguous
      sub-grids, one per top-level loop region (sized by node count),
      then bin-pack each region's affinity clusters into its own
      sub-grid ({!Sched.Hplace}).  With no loop tree available the
      placement degrades to flat affinity packing.

    All policies are deterministic functions of the graph, so placements
    are reproducible and cut/balance statistics are static quantities
    comparable across policies without running the machine. *)

type policy = Hash | Round_robin | Affinity | Hier

val policy_to_string : policy -> string

(** Accepts ["hash"], ["rr"]/["round-robin"], ["affinity"], ["hier"]. *)
val policy_of_string : string -> (policy, string) result

val all_policies : policy list

type t = {
  pes : int;
  policy : policy;
  assign : int array;  (** node id -> PE, [0 <= assign.(n) < pes] *)
}

(** [compute ?tree ?topo policy ~pes g] — deterministic placement of
    [g]'s nodes onto [max 1 pes] PEs.  [tree] is the loop-nesting
    forest [(loop id, parent)] and [topo] the interconnect shape; both
    matter only to {!Hier} (regions and hop statistics) and default to
    no tree / uniform. *)
val compute :
  ?tree:(int * int option) list ->
  ?topo:Sched.Topology.t ->
  policy ->
  pes:int ->
  Dfg.Graph.t ->
  t

(** The hierarchical placer's own per-level report for the latest
    {!Hier} computation on this graph, recomputed on demand. *)
val hier_stats :
  ?tree:(int * int option) list ->
  ?topo:Sched.Topology.t ->
  pes:int ->
  Dfg.Graph.t ->
  Sched.Hplace.level_stats

(** Static placement quality: cut arcs (endpoints on different PEs) and
    load balance (largest PE population relative to the ideal [n/p]). *)
type stats = {
  cut_arcs : int;
  total_arcs : int;
  cut_fraction : float;  (** [cut_arcs / total_arcs], 0 when no arcs *)
  per_pe_nodes : int array;
  balance : float;
      (** [max per_pe_nodes / (nodes / pes)]; 1.0 is perfect balance,
          [pes] is everything on one PE *)
}

val stats : Dfg.Graph.t -> t -> stats
val pp_stats : Format.formatter -> stats -> unit

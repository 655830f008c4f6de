(** Machine observability: post-run profiles computed from a run's
    firing log ({!Trace.t}) and its {!Interp.result}, plus exporters —
    Chrome [trace_event] JSON and a compact JSON summary.  Both engines
    write the same log, so every view here is the same under either. *)

type node_firings = {
  nf_node : int;
  nf_label : string;
  nf_family : string;  (** operator family: "alu", "load", "switch", ... *)
  nf_count : int;
}

type t = {
  cycles : int;
  firings : int;
  avg_parallelism : float;
  peak_parallelism : int;
  parallelism_curve : int array;  (** firings started per cycle *)
  in_flight_curve : int array;  (** tokens between operators, per cycle *)
  matching_curve : int array;  (** waiting-matching occupancy, per cycle *)
  peak_matching : int;
  node_firings : node_firings list;  (** descending firing count *)
  overlap : int array;  (** distinct iteration contexts firing, per cycle *)
  max_overlap : int;
  per_context : (Context.t * int) list;
  dynamic_critical_path : int;
      (** longest dependence chain actually executed, in firings *)
  critical_chain : (int * Context.t) list;
  static_critical_path : int;
      (** single-iteration operator chain from {!Dfg.Stats} *)
}

(** [make ~graph ~log result] assembles the profile of one run.  [log]
    must be the one the run that returned [result] wrote. *)
val make : graph:Dfg.Graph.t -> log:Trace.t -> Interp.result -> t

(** [chrome_trace ?config ~graph log] — the run as Chrome
    [trace_event] JSON ([ph:"X"] duration events; ts = cycle, dur =
    the configured latency).  Tracks: one per access-token variable
    ("access x"), one shared "control" track (switches, merges, synchs,
    loop control), and greedy "alu-<i>" lanes so simultaneous ALU
    firings render side by side.  Load the output in [chrome://tracing]
    or {{:https://ui.perfetto.dev}Perfetto}. *)
val chrome_trace : ?config:Config.t -> graph:Dfg.Graph.t -> Trace.t -> Json.t

(** [chrome_trace_pes ?config ~graph log] — a multiprocessor run's log
    as Chrome [trace_event] JSON with one track per processing element;
    the per-PE lanes make the placement's load balance and
    network-induced idle gaps directly visible. *)
val chrome_trace_pes :
  ?config:Config.t -> graph:Dfg.Graph.t -> Trace.t -> Json.t

(** Compact JSON rendering of a profile (curves included). *)
val summary_json : t -> Json.t

(** [sparkline curve] — one glyph per sample
    ([' '=0 '.'=1 ':'=2 '|'=3 '#'=4+]). *)
val sparkline : int array -> string

(** [resample curve w] — downsample to at most [w] columns, taking the
    max over each bucket, so long runs fit a terminal line. *)
val resample : int array -> int -> int array

(** Terminal rendering: headline metrics, sparkline curves, hottest
    operators, and the critical chain. *)
val pp : Format.formatter -> t -> unit

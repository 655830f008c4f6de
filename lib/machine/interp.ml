(** The single-PE explicit-token-store machine (see the interface): a
    dispatcher over two engines that run one machine.  The reference
    engine is the single-PE transport of {!Multiproc}'s run loop; the
    packed engine is {!Packed}.  Both results are projected onto one
    record here. *)

exception Token_collision of string
exception Double_write of string
exception Divergence of string

type program = Multiproc.program = {
  graph : Dfg.Graph.t;
  layout : Imp.Layout.t;
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
  peak_in_flight : int;
  firings_by_kind : (string * int) list;
  diagnosis : Diagnosis.t;
}

let avg_parallelism (r : result) : float =
  if r.cycles <= 0 then float_of_int r.firings
  else float_of_int r.firings /. float_of_int r.cycles

(* Packed-engine path: compile the graph once and run it on the explicit
   token store ({!Packed}), then project the packed result onto the
   single-PE result. *)
let run_packed ~(config : Config.t) ?log (p : program) :
    (result, Diagnosis.t) Stdlib.result =
  let code = Packed.compile_graph p.graph in
  match Packed.run_report ~config ?log ~layout:p.layout code with
  | Error d -> Error d
  | Ok r ->
      Ok
        {
          memory = r.Packed.memory;
          cycles = r.Packed.cycles;
          firings = r.Packed.firings;
          memory_ops = r.Packed.memory_ops;
          dummy_deliveries = r.Packed.dummy_deliveries;
          value_deliveries = r.Packed.value_deliveries;
          peak_parallelism = r.Packed.peak_parallelism;
          completed = r.Packed.completed;
          leftover_tokens = r.Packed.leftover_tokens;
          peak_matching = r.Packed.peak_matching;
          peak_in_flight = r.Packed.peak_in_flight;
          firings_by_kind = r.Packed.firings_by_kind;
          diagnosis = r.Packed.diagnosis;
        }

(* Reference-engine path: the single-PE transport of the one run loop,
   projected onto the single-PE result. *)
let of_machine (r : Multiproc.result) : result =
  {
    memory = r.Multiproc.memory;
    cycles = r.Multiproc.cycles;
    firings = r.Multiproc.firings;
    memory_ops = r.Multiproc.memory_ops;
    dummy_deliveries = r.Multiproc.dummy_deliveries;
    value_deliveries = r.Multiproc.value_deliveries;
    peak_parallelism = r.Multiproc.peak_parallelism;
    completed = r.Multiproc.completed;
    leftover_tokens = r.Multiproc.leftover_tokens;
    peak_matching = r.Multiproc.peak_matching;
    peak_in_flight = r.Multiproc.peak_in_flight;
    firings_by_kind = r.Multiproc.firings_by_kind;
    diagnosis = r.Multiproc.diagnosis;
  }

let run_report ?(config = Config.default) ?(faults : Fault.plan option) ?log
    (p : program) : (result, Diagnosis.t) Stdlib.result =
  match (config.Config.engine, faults) with
  | Config.Packed, None -> run_packed ~config ?log p
  | Config.Packed, Some _ ->
      (* fault injection is a reference-engine feature; running another
         machine than the one asked for would be a silent fallback *)
      invalid_arg
        "Interp.run_report: the packed engine has no fault injection; use \
         the reference engine"
  | Config.Reference, _ ->
      Result.map of_machine (Multiproc.run_single ~config ?faults ?log p)

let run ?config ?faults ?log (p : program) : result =
  match run_report ?config ?faults ?log p with
  | Ok r -> r
  | Error d -> (
      let dump detail = Fmt.str "%s@.%s" detail (Diagnosis.to_string d) in
      match d.Diagnosis.verdict with
      | Diagnosis.Collision m -> raise (Token_collision (dump m))
      | Diagnosis.Double_write m -> raise (Double_write (dump m))
      | Diagnosis.Diverged bound ->
          raise (Divergence (dump (Fmt.str "exceeded %d cycles" bound)))
      | Diagnosis.Clean | Diagnosis.Deadlock | Diagnosis.Leftover _
      | Diagnosis.Corrupted _ ->
          assert false)

let run_exn ?config ?faults (p : program) : result =
  let r = run ?config ?faults p in
  if not r.completed then
    failwith
      (Fmt.str "dataflow execution deadlocked (%d leftover tokens)@.%s"
         r.leftover_tokens
         (Diagnosis.to_string r.diagnosis));
  if r.leftover_tokens <> 0 then
    failwith
      (Fmt.str "%d tokens left at quiescence (End fired: %b)@.%s"
         r.leftover_tokens r.completed
         (Diagnosis.to_string r.diagnosis));
  r

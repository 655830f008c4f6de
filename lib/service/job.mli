(** One job model for both doors, the [df_compile] subcommands and the
    [serve] protocol: an op, a source program, a schema, the Section 6
    transforms, the optimizer switch and the machine options.  Every
    option is declared once ({!decl}) under its CLI flag's name, which
    is also its JSON field; both doors decode through {!decode} and
    {!validate}, execute through {!run} or {!simulate} (compiling via
    {!Dflow.Memo}), and render the same results: serve with {!reply},
    the CLI as text.  So no option is honoured by one door and ignored
    by the other, and a refused job is refused by both with one
    message. *)

type op = Compile | Run | Simulate

(** Each field is the option of the same name (see {!decl}). *)
type t = {
  op : op;
  source : string;
  schema : Dflow.Driver.spec;
  transforms : Dflow.Driver.transforms;
  optimize : bool;
  pes : int option;  (** [None]: unbounded on a run, 4 on a simulation *)
  mem_latency : int;
  engine : Machine.Config.engine;
  fault_seed : int option;
  fault_rate : float;
  fault_classes : Machine.Fault.classes;
  recover : bool;
  placement : Machine.Placement.policy;
  net : Sched.Topology.kind;
  steal : bool;
  net_latency : int;
  net_bandwidth : int;
  net_queue : int;
  modules : int option;
  certify : bool;  (** false under [no-certify] *)
}

exception Invalid of string
(** A value or a combination the job model refuses.  The message names
    the flag and its valid values; the CLI exits 2 with it, serve
    returns it as the job's error. *)

(** {1 Declarations} *)

type decl = {
  name : string;  (** the CLI long flag without dashes; the JSON field *)
  short : string list;  (** one-letter CLI aliases *)
  docv : string;  (** [""] for a switch: present means true *)
  doc : string;  (** states the default and the valid range *)
  default : string;  (** the text an absent option decodes from; [""]: unset *)
}

val decl : string -> decl
(** The declaration of the option of that name.
    @raise Not_found for an undeclared name. *)

(** A raw option value: a CLI flag's text or a JSON field. *)
type value = Text of string | Json of Machine.Json.t

val decode : op -> source:string -> (string -> value option) -> t
(** [decode op ~source lookup] reads every declared option through
    [lookup] (absent means the declared default), then {!validate}s.
    @raise Invalid on an ill-typed or out-of-range value, an unknown
    name, or a refused combination. *)

val source : Machine.Json.t -> string
(** A request's required [source] field. @raise Invalid without one. *)

val of_json : op -> Machine.Json.t -> t
(** {!decode} over a serve request object. *)

val field : (string -> value -> 'a) -> Machine.Json.t -> string -> 'a option
(** [field parse req name]: a request field through one of the value
    readers below; [None] when absent or null. *)

val text : string -> value -> string
val switch : string -> value -> bool
(** Value readers; [name] goes into the {!Invalid} message. *)

val validate : t -> unit
(** The ranges and the refused combinations: the packed engine has no
    fault injection and no multiprocessor model.
    @raise Invalid *)

val spec_of_string : string -> (Dflow.Driver.spec, string) result
(** Schema names ("1", "2p", "2opt", "schema3-components", "fig8", ...). *)

val message : exn -> string
(** The user-facing text of a job failure: the {!Invalid} message, a
    parse or type error, or the exception. *)

(** {1 Execution} *)

val program : t -> Imp.Ast.program
(** The memoized parse of [source]. *)

val compile : t -> Dflow.Driver.compiled
(** Memoized compile, checked; under [no-certify] the graph is a copy
    without the certificate (the cached graph is never touched). *)

val config : t -> Machine.Config.t
val topology : t -> Sched.Topology.t option
val sim_pes : t -> int
(** The machine the job names: its configuration, its interconnect
    ([None] for the uniform wire) and its multiprocessor PE count. *)

val run :
  ?log:Machine.Trace.t ->
  t ->
  Dflow.Driver.compiled * (Machine.Interp.result, Machine.Diagnosis.t) result
(** {!compile}, then execute on the single-PE machine with the job's
    engine, PEs, memory latency and fault plan, writing [log] when
    given (either engine writes the same one).  [Error d] is a hard
    machine failure (collision, double write, divergence).
    @raise whatever compiling raises (parse, type, aliasing,
    irreducible). *)

val simulate :
  ?log:Machine.Trace.t ->
  t ->
  Dflow.Driver.compiled
  * (Machine.Multiproc.result, Machine.Diagnosis.t) result
(** {!compile}, then execute on the multiprocessor: [sim_pes] PEs, the
    placement (with the loop tree for [hier]), the interconnect,
    stealing, the fault plan and recovery, writing [log] when given.
    Exceptions as for {!run}. *)

val reference : t -> Imp.Memory.t -> string
(** A final store against the memoized reference interpreter's: ["ok"],
    ["mismatch"] or ["out-of-fuel"]. *)

val reply : t -> ((string * Machine.Json.t) list, string) result
(** Execute the job's op and render the serve reply's fields after
    [id], [op] and [ok]; [Error] is the per-job error of a failed or
    incomplete run. *)

(** Deterministic fault injection for the ETS machine.

    A fault plan is a pure function of a seed: decision [i] depends only
    on [(seed, i)], never on wall-clock time or global random state, so
    the same seed on the same program and configuration reproduces the
    same faults, the same detections and the same diagnosis — the
    property the robustness tests rely on.

    Faults are injected at the two boundaries the machine exposes:

    - {e token delivery} (every token scheduled onto an arc): the token
      can be dropped, duplicated, bit-flipped or delayed;
    - {e memory issue} (every load/store leaving the ready queue): the
      memory port can stall, bouncing the operation to a later cycle.

    Each corruption class maps to a detection mechanism rather than a
    silently wrong store: duplicates trip the single-token-per-arc
    check ({!Interp.Token_collision}), drops starve the graph and are
    reported by the stall diagnosis ({!Diagnosis.t}'s blocked frontier),
    delays and port stalls perturb timing only (determinacy keeps the
    store intact), and bit-flips are recorded in the fault log carried
    by the diagnosis so a downstream store comparison can attribute the
    corruption. *)

type fault =
  | Drop  (** the token never arrives *)
  | Duplicate  (** the token arrives twice in the same cycle *)
  | Bit_flip of int  (** payload corrupted: bit [i] of an Int flipped,
                         Bools negated *)
  | Delay of int  (** delivery postponed by that many cycles *)
  | Port_stall of int
      (** the memory port refuses issue; the operation retries *)
  | Reorder of int
      (** wire fault: the frame is held back that many cycles so later
          traffic on the link overtakes it *)
  | Pe_death  (** fail-stop: the PE stops executing (see {!Recovery}) *)

val fault_to_string : fault -> string

(** Which fault classes the plan may draw from. *)
type classes = {
  drop : bool;
  duplicate : bool;
  bit_flip : bool;
  delay : bool;
  port_stall : bool;
  reorder : bool;
}

val no_classes : classes
val all_classes : classes

(** The classes a lossy inter-PE link exhibits and the reliable
    transport masks: drop, duplicate, delay, reorder — no bit flips
    (unmasked payload corruption) and no port stalls. *)
val link_classes : classes

(** [classes_of_string "drop,dup,flip,delay,stall,reorder"] (or "all").
    @raise Failure on an unknown class name; the message lists the valid
    class names. *)
val classes_of_string : string -> classes

type spec = {
  seed : int;
  rate : float;  (** per-event injection probability in [0, 1] *)
  classes : classes;
  max_faults : int;  (** total injections are capped at this many *)
}

val spec :
  ?rate:float -> ?classes:classes -> ?max_faults:int -> seed:int -> unit -> spec

(** One injected fault, as it actually happened during a run. *)
type event = {
  ev_index : int;  (** delivery (or memory-issue) sequence number *)
  ev_cycle : int;  (** cycle the event was scheduled for *)
  ev_node : int;  (** destination node (delivery) or issuing node (stall) *)
  ev_fault : fault;
}

val pp_event : Format.formatter -> event -> unit

(** A live plan: the spec plus the log of injections performed so far.
    Plans are single-use — make a fresh one per run. *)
type plan

val make : spec -> plan
val seed : plan -> int

(** Faults injected so far, in injection order. *)
val events : plan -> event list

(** What the machine should do with one token delivery. *)
type action = Pass | Act of fault

(** [on_delivery plan ~cycle ~node ~value] decides the fate of the next
    token delivery and logs any injection.  Only delivery classes (drop,
    duplicate, bit-flip, delay) are drawn here. *)
val on_delivery : plan -> cycle:int -> node:int -> value:Imp.Value.t -> action

(** [on_memory_issue plan ~cycle ~node] decides whether the next memory
    issue is refused by a stalled port (and logs it). *)
val on_memory_issue : plan -> cycle:int -> node:int -> bool

(** [on_link plan ~cycle ~dst] decides the fate of the next frame put on
    the inter-PE wire (and logs any injection, with [ev_node] carrying
    the {e destination PE}).  Draws from the link classes of the spec
    (drop, duplicate, delay, reorder, bit-flip); a fresh decision stream,
    independent of the delivery and memory-issue streams. *)
val on_link : plan -> cycle:int -> dst:int -> action

(** [record_death plan ~cycle ~pe] logs a fail-stop PE death (scheduled
    by {!Recovery}, not drawn per-event) so the diagnosis carries it. *)
val record_death : plan -> cycle:int -> pe:int -> unit

(** [flip_value bit v] — the corrupted payload: Ints get [bit] flipped
    (modulo the int width), Bools are negated. *)
val flip_value : int -> Imp.Value.t -> Imp.Value.t

(** [decision spec i] — the pure decision function underlying
    {!on_delivery}: what the plan will do to delivery event [i].  Exposed
    so tests can enumerate a plan without running the machine. *)
val decision : spec -> int -> action

(** [mix seed stream i] — the avalanche hash every decision stream draws
    from: a pure function of its arguments, stable across runs and OCaml
    versions.  Exposed so other seeded schedules (e.g. {!Recovery}'s
    fail-stop plan) stay on the same deterministic footing. *)
val mix : int -> int -> int -> int

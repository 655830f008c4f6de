(** Dynamic fractional-permission certificates: per-run translation
    validation in the WaveCert style.

    A translated graph circulates access tokens to serialise memory
    operations; the {e certificate} checks, during execution, that the
    circulation actually enforces the paper's cover discipline.  Each
    cover element starts as one unit of permission, minted by the Start
    firing.  Permission rides token payloads: fan-out splits an
    element's fraction equally over the arcs labelled with it
    ({!Dfg.Graph.arc.tokens}), synchs and merges rejoin the pieces, and
    every memory operation asserts ownership against the {e true} access
    sets recorded in {!Dfg.Graph.cert} — a store must own its elements
    outright (fraction exactly 1), a read must hold a positive fraction.
    At End the permissions retire; quiescence checks each element
    retired exactly 1.

    Because the requirement metadata comes from the alias/cover analysis
    and not from the graph's own token wiring, a mistranslated graph
    cannot vouch for itself: Schema 2 without loop control lets a
    colliding token overwrite another's payload, destroying permission
    that the quiescence account then finds missing; a deliberately
    truncated access set reaches its store without the aliased element's
    permission and fails the ownership assertion outright.

    This subsumes token conservation: the sanitizer counts tokens, the
    certificate tracks {e which right} each token carries.  Certificate
    state snapshots and restores with recovery epochs, so replayed
    firings re-earn their permissions instead of double-counting. *)

(** Exact rationals (normalized, native ints).  A pathological
    denominator blow-up raises {!Frac.Overflow} internally and is
    absorbed as a certificate failure, never silent wrap-around. *)
module Frac : sig
  type t

  exception Overflow

  val zero : t
  val one : t
  val is_zero : t -> bool
  val is_one : t -> bool
  val positive : t -> bool
  val add : t -> t -> t
  val div_int : t -> int -> t
  val to_string : t -> string
end

type frac = Frac.t

type bag = (int * frac) list
(** element index -> positive fraction; sorted, no zeros.  The payload
    a token carries. *)

val empty_bag : bag
val join : bag -> bag -> bag
val join_all : bag list -> bag
val bag_to_string : string array -> bag -> string

type violation =
  | Missing of {
      p_node : int;
      p_label : string;
      p_ctx : Context.t;
      p_elem : string;
      p_need : string;
      p_held : string;
    }  (** a memory operation fired without the required permission *)
  | Lost of { p_node : int; p_label : string; p_elem : string; p_frac : string }
      (** positive permission reached a firing with no labelled outgoing
          delivery to carry it (and the node is not End) *)
  | Unretired of { p_elem : string; p_retired : string }
      (** at quiescence the element's retired total differs from 1:
          permission was destroyed (< 1) or duplicated (> 1) *)

val violation_to_string : violation -> string
val pp_violation : Format.formatter -> violation -> unit

type t

(** [create ~ids graph cert] — the account of one run whose context ids
    are [ids]. *)
val create : ids:Context.table -> Dfg.Graph.t -> Dfg.Graph.cert -> t
val elements : t -> int
val checks : t -> int

(** All violations recorded so far, in detection order. *)
val violations : t -> violation list

(** The Start firing's bag: full permission for every element. *)
val mint : t -> bag

(** [require t ~node ~cid held] — assert the certificate requirement of
    [node], fired in the context whose id is [cid], if it is a memory
    operation, against the joined bag [held]:
    the {!join} of the consumed tokens' bags in port order (a
    {!Frac.Overflow} while joining leaves the firing holding nothing).
    Returns the fresh violations (also recorded). *)
val require : t -> node:int -> cid:int -> bag -> violation list

(** [split t ~node ~held labels first stop] — distribute [held] over
    the firing's actual deliveries [first .. stop - 1] of [labels]:
    delivery [i] carries [labels.(i)] and gets bag [i - first] of the
    result; each element splits equally over the deliveries labelled
    with it.  At End the bag retires instead.  Positive permission no
    delivery takes is recorded as a Lost violation.  The packed engine
    passes its flattened destination labels and one firing's range. *)
val split :
  t -> node:int -> held:bag -> int list array -> int -> int -> bag array

(** The quiescence account: every element retired exactly 1.  Records
    and returns the discrepancies. *)
val at_quiescence : t -> violation list

(** {1 Checkpoint support} *)

type snap

val snapshot : t -> snap
val restore : t -> snap -> unit

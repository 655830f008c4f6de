(** Dynamic fractional-permission certificates (see the interface). *)

(* Exact rationals on native ints, normalized (den > 0, gcd = 1).  The
   fractions a run manipulates come from repeated halving/fan-out and
   rejoining, so denominators stay tiny; the [guard] bound turns a
   pathological blow-up into an explicit certificate failure instead of
   silent wrap-around. *)
module Frac = struct
  type t = { num : int; den : int }

  exception Overflow

  let guard = 1 lsl 40

  let rec gcd a b = if b = 0 then a else gcd b (a mod b)

  let mk num den =
    if den = 0 then invalid_arg "Frac.mk: zero denominator";
    let s = if den < 0 then -1 else 1 in
    let num = s * num and den = s * den in
    if num = 0 then { num = 0; den = 1 }
    else begin
      let g = gcd (abs num) den in
      let num = num / g and den = den / g in
      if abs num > guard || den > guard then raise Overflow;
      { num; den }
    end

  let zero = { num = 0; den = 1 }
  let one = { num = 1; den = 1 }
  let is_zero f = f.num = 0
  let is_one f = f.num = 1 && f.den = 1
  let positive f = f.num > 0
  let add a b = mk ((a.num * b.den) + (b.num * a.den)) (a.den * b.den)
  let div_int a k = mk a.num (a.den * k)

  (* a > 1? *)
  let gt_one a = a.num > a.den

  let to_string f =
    if f.den = 1 then string_of_int f.num else Fmt.str "%d/%d" f.num f.den
end

type frac = Frac.t

(* A permission bag: element index -> positive fraction, sorted by
   element, zero entries absent.  Bags ride token payloads; almost all
   tokens carry a singleton bag or none, so an assoc list wins over any
   heavier structure. *)
type bag = (int * frac) list

let empty_bag : bag = []

let join (a : bag) (b : bag) : bag =
  let rec go a b =
    match (a, b) with
    | [], r | r, [] -> r
    | (e1, f1) :: t1, (e2, f2) :: t2 ->
        if e1 < e2 then (e1, f1) :: go t1 b
        else if e2 < e1 then (e2, f2) :: go a t2
        else
          let f = Frac.add f1 f2 in
          if Frac.is_zero f then go t1 t2 else (e1, f) :: go t1 t2
  in
  go a b

let join_all (bags : bag list) : bag = List.fold_left join empty_bag bags

let find (b : bag) (e : int) : frac =
  match List.assoc_opt e b with Some f -> f | None -> Frac.zero

let bag_to_string (names : string array) (b : bag) : string =
  if b = [] then "{}"
  else
    Fmt.str "{%s}"
      (String.concat ", "
         (List.map
            (fun (e, f) -> Fmt.str "%s:%s" names.(e) (Frac.to_string f))
            b))

type violation =
  | Missing of {
      p_node : int;
      p_label : string;
      p_ctx : Context.t;
      p_elem : string;
      p_need : string;  (** "all of it" for stores, "a fraction" for loads *)
      p_held : string;
    }
  | Lost of { p_node : int; p_label : string; p_elem : string; p_frac : string }
  | Unretired of { p_elem : string; p_retired : string }

let violation_to_string = function
  | Missing { p_node; p_label; p_ctx; p_elem; p_need; p_held } ->
      Fmt.str
        "permission violation: %s (node %d) at ctx %s needs %s of %s, holds %s"
        p_label p_node (Context.to_string p_ctx) p_need p_elem p_held
  | Lost { p_node; p_label; p_elem; p_frac } ->
      Fmt.str "permission lost: %s of %s destroyed at %s (node %d)" p_frac
        p_elem p_label p_node
  | Unretired { p_elem; p_retired } ->
      Fmt.str "certificate incomplete: %s retired %s of 1 at quiescence" p_elem
        p_retired

let pp_violation ppf v = Fmt.string ppf (violation_to_string v)

type t = {
  graph : Dfg.Graph.t;
  cert : Dfg.Graph.cert;
  ids : Context.table;
  mutable retired : frac array;  (** per element, accumulated at End *)
  mutable violations : violation list;  (** reverse order *)
  mutable checks : int;  (** memory-op ownership assertions performed *)
}

let create ~ids (graph : Dfg.Graph.t) (cert : Dfg.Graph.cert) : t =
  {
    graph;
    cert;
    ids;
    retired = Array.make (Array.length cert.Dfg.Graph.cert_elements) Frac.zero;
    violations = [];
    checks = 0;
  }

let elements (t : t) = Array.length t.cert.Dfg.Graph.cert_elements
let checks (t : t) = t.checks
let violations (t : t) = List.rev t.violations
let record (t : t) (v : violation) = t.violations <- v :: t.violations

(** The initial bag: full permission for every element, held by the
    Start firing. *)
let mint (t : t) : bag =
  List.init (elements t) (fun e -> (e, Frac.one))

(* The ownership assertion of one firing, on the join of its consumed
   bags: for memory operations, check the certificate's requirement — a
   store must own each required element outright, a load must hold a
   positive fraction of it (and never more than the whole). *)
let require (t : t) ~(node : int) ~(cid : int) (held : bag) :
    violation list =
  match t.cert.Dfg.Graph.cert_require.(node) with
  | [] -> []
  | required ->
      let names = t.cert.Dfg.Graph.cert_elements in
      let label = (Dfg.Graph.node t.graph node).Dfg.Node.label in
      let is_store =
        match Dfg.Graph.kind t.graph node with
        | Dfg.Node.Store _ -> true
        | _ -> false
      in
      let fresh =
        List.filter_map
          (fun e ->
            t.checks <- t.checks + 1;
            let h = find held e in
            let ok =
              if is_store then Frac.is_one h
              else Frac.positive h && not (Frac.gt_one h)
            in
            if ok then None
            else
              Some
                (Missing
                   {
                     p_node = node;
                     p_label = label;
                     p_ctx = Context.of_id t.ids cid;
                     p_elem = names.(e);
                     p_need = (if is_store then "all" else "a fraction");
                     p_held = Frac.to_string h;
                   }))
          required
      in
      List.iter (record t) fresh;
      fresh

(* Distribute the firing's held bag over its deliveries [first, stop) of
   [labels]: [labels.(i)] is the token-label set of delivery [i]; each
   element's fraction splits equally over the deliveries labelled with
   it.  At [End] the whole bag retires instead.  Any positive fraction
   with no labelled delivery (and no End) has been destroyed — a Lost
   violation.  The elements are visited in descending order so each
   taker's bag is built by consing, every taker sharing the element's
   one (element, share) cell; an element with one taker keeps its
   fraction undivided. *)
let rec split_elems t node labels first stop out = function
  | [] -> []
  | (e, f) :: rest ->
      let lost = split_elems t node labels first stop out rest in
      let takers = ref 0 in
      for i = first to stop - 1 do
        if List.mem e labels.(i) then incr takers
      done;
      if !takers > 0 then begin
        let share =
          if !takers = 1 then f
          else try Frac.div_int f !takers with Frac.Overflow -> Frac.zero
        in
        (if not (Frac.is_zero share) then
           let cell = (e, share) in
           for i = first to stop - 1 do
             if List.mem e labels.(i) then
               out.(i - first) <- cell :: out.(i - first)
           done);
        lost
      end
      else
        match Dfg.Graph.kind t.graph node with
        | Dfg.Node.End _ ->
            t.retired.(e) <-
              (try Frac.add t.retired.(e) f with Frac.Overflow -> t.retired.(e));
            lost
        | _ ->
            Lost
              {
                p_node = node;
                p_label = (Dfg.Graph.node t.graph node).Dfg.Node.label;
                p_elem = t.cert.Dfg.Graph.cert_elements.(e);
                p_frac = Frac.to_string f;
              }
            :: lost

let split (t : t) ~(node : int) ~(held : bag) (labels : int list array) first
    stop : bag array =
  let out = Array.make (stop - first) empty_bag in
  (match split_elems t node labels first stop out held with
  | [] -> ()
  | lost -> List.iter (record t) lost);
  out

(* The global account, checkable only once the machine is quiet: every
   element's permission must have retired in full at End — exactly 1.
   Undershoot means permission was dropped or is stuck in a matching
   store (a collision overwrite, a leak); overshoot means it was
   duplicated somewhere along the way. *)
let at_quiescence (t : t) : violation list =
  let vs = ref [] in
  Array.iteri
    (fun e r ->
      if not (Frac.is_one r) then
        vs :=
          Unretired
            {
              p_elem = t.cert.Dfg.Graph.cert_elements.(e);
              p_retired = Frac.to_string r;
            }
          :: !vs)
    t.retired;
  let vs = List.rev !vs in
  List.iter (record t) vs;
  vs

(* Checkpoint support: certificate memory must roll back with the
   machine so replayed firings re-earn (not double-count) their
   permissions. *)
type snap = {
  sn_retired : frac array;
  sn_violations : violation list;
  sn_checks : int;
}

let snapshot (t : t) : snap =
  {
    sn_retired = Array.copy t.retired;
    sn_violations = t.violations;
    sn_checks = t.checks;
  }

let restore (t : t) (s : snap) : unit =
  t.retired <- Array.copy s.sn_retired;
  t.violations <- s.sn_violations;
  t.checks <- s.sn_checks

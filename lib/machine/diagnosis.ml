(** Structured post-mortems of dataflow execution (see the interface).
    Each engine builds its own; this module owns the types and the
    rendering. *)

type blocked = {
  b_node : int;
  b_label : string;
  b_ctx : Context.t;
  b_present : int list;
  b_missing : int list;
  b_pe : int option;
}

type net_pressure = {
  net_messages : int;
  net_backpressure : int;
  net_peak_queue : int;
  net_peak_in_flight : int;
}

type verdict =
  | Clean
  | Deadlock
  | Leftover of int
  | Collision of string
  | Double_write of string
  | Diverged of int
  | Corrupted of string

type t = {
  verdict : verdict;
  cycles : int;
  leftover_tokens : int;
  blocked : blocked list;
  deferred_reads : (int * int) list;
  tokens_by_context : (Context.t * int) list;
  waiting_by_pe : (int * int) list;
  peak_matching : int;
  network : net_pressure option;
  faults : Fault.event list;
  sanitizer : Sanitize.violation list;
  permission : Permission.violation list;
  certified : (int * int) option;
      (** (elements, ownership checks) when the run carried a
          fractional-permission certificate; [None] = not certified *)
}

let is_clean (d : t) =
  d.verdict = Clean && d.faults = [] && d.sanitizer = [] && d.permission = []

let order_by_count (counts : (Context.t * int) list) =
  List.sort
    (fun (c1, a) (c2, b) ->
      match Int.compare b a with 0 -> Context.compare c1 c2 | o -> o)
    counts

let verdict_to_string = function
  | Clean -> "clean"
  | Deadlock -> "deadlock (End never fired)"
  | Leftover n -> Fmt.str "completed with %d leftover tokens" n
  | Collision m -> Fmt.str "token collision: %s" m
  | Double_write m -> Fmt.str "I-structure double write: %s" m
  | Diverged bound -> Fmt.str "diverged (exceeded %d cycles)" bound
  | Corrupted m -> Fmt.str "corrupted (sanitizer): %s" m

let pp_blocked ppf (b : blocked) =
  (match b.b_pe with
  | Some pe -> Fmt.pf ppf "[pe %d] " pe
  | None -> ());
  Fmt.pf ppf "node %d (%s) ctx %s: have ports {%a}, missing {%a}" b.b_node
    b.b_label
    (Context.to_string b.b_ctx)
    Fmt.(list ~sep:comma int)
    b.b_present
    Fmt.(list ~sep:comma int)
    b.b_missing

let pp ppf (d : t) =
  Fmt.pf ppf "verdict: %s@." (verdict_to_string d.verdict);
  Fmt.pf ppf "cycles reached: %d, leftover tokens: %d@." d.cycles
    d.leftover_tokens;
  if d.peak_matching > 0 then
    Fmt.pf ppf "matching store: peak %d entries (unbounded)@." d.peak_matching;
  (match d.network with
  | Some n ->
      Fmt.pf ppf
        "network: %d cross-PE messages, %d backpressured enqueues, peak \
         queue %d, peak in flight %d@."
        n.net_messages n.net_backpressure n.net_peak_queue n.net_peak_in_flight
  | None -> ());
  if d.blocked <> [] then begin
    Fmt.pf ppf "blocked frontier (%d partial matches):@."
      (List.length d.blocked);
    List.iteri
      (fun i b -> if i < 20 then Fmt.pf ppf "  %a@." pp_blocked b)
      d.blocked;
    if List.length d.blocked > 20 then
      Fmt.pf ppf "  ... and %d more@." (List.length d.blocked - 20)
  end;
  if d.deferred_reads <> [] then begin
    Fmt.pf ppf "deferred I-structure reads:@.";
    List.iter
      (fun (addr, n) -> Fmt.pf ppf "  address %d: %d reader(s)@." addr n)
      d.deferred_reads
  end;
  if d.tokens_by_context <> [] then begin
    Fmt.pf ppf "waiting tokens per context:@.";
    List.iteri
      (fun i (ctx, n) ->
        if i < 10 then Fmt.pf ppf "  %-16s %d@." (Context.to_string ctx) n)
      d.tokens_by_context
  end;
  if d.waiting_by_pe <> [] then begin
    Fmt.pf ppf "waiting tokens per PE:@.";
    List.iter
      (fun (pe, n) -> Fmt.pf ppf "  pe %-3d %d@." pe n)
      d.waiting_by_pe
  end;
  if d.sanitizer <> [] then begin
    Fmt.pf ppf "sanitizer violations (%d):@." (List.length d.sanitizer);
    List.iteri
      (fun i v -> if i < 20 then Fmt.pf ppf "  %a@." Sanitize.pp_violation v)
      d.sanitizer
  end;
  if d.permission <> [] then begin
    Fmt.pf ppf "permission violations (%d):@." (List.length d.permission);
    List.iteri
      (fun i v ->
        if i < 20 then Fmt.pf ppf "  %a@." Permission.pp_violation v)
      d.permission;
    if List.length d.permission > 20 then
      Fmt.pf ppf "  ... and %d more@." (List.length d.permission - 20)
  end;
  if d.faults <> [] then begin
    Fmt.pf ppf "injected faults (%d):@." (List.length d.faults);
    List.iteri
      (fun i e -> if i < 20 then Fmt.pf ppf "  %a@." Fault.pp_event e)
      d.faults;
    if List.length d.faults > 20 then
      Fmt.pf ppf "  ... and %d more@." (List.length d.faults - 20)
  end

let to_string (d : t) = Fmt.str "%a" pp d

(* A waiter holds the flight it found, so it gets the result even if the
   entry is evicted or reset before it wakes. *)
type 'a flight = { mutable outcome : ('a, exn) result option }

type 'a slot =
  | Computing of 'a flight  (** some domain is running the compute function *)
  | Ready of 'a ready

(* Resident entries form a doubly linked list in recency order, so a
   touch and an eviction are O(1): a byte budget can hold thousands of
   small entries. *)
and 'a ready = {
  key : string;
  result : ('a, exn) result;
  bytes : int;  (** charged once, at insert *)
  mutable newer : 'a ready option;
  mutable older : 'a ready option;
}

type 'a t = {
  mutex : Mutex.t;
  cond : Condition.t;
  table : (string, 'a slot) Hashtbl.t;
  budget : int;
  size : 'a -> int;
  mutable newest : 'a ready option;
  mutable oldest : 'a ready option;
  mutable bytes : int;  (** sum of the resident entries' sizes *)
  mutable entries : int;  (** resident (Ready) entries *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  bytes : int;
  budget : int;
}

let failure_bytes = 256

let create ~budget ~size () =
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    table = Hashtbl.create 64;
    budget = max 0 budget;
    size;
    newest = None;
    oldest = None;
    bytes = 0;
    entries = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let unlink (t : 'a t) r =
  (match r.newer with
  | Some n -> n.older <- r.older
  | None -> t.newest <- r.older);
  (match r.older with
  | Some o -> o.newer <- r.newer
  | None -> t.oldest <- r.newer);
  r.newer <- None;
  r.older <- None

let push_newest (t : 'a t) r =
  r.older <- t.newest;
  (match t.newest with
  | Some n -> n.newer <- Some r
  | None -> t.oldest <- Some r);
  t.newest <- Some r

let touch t r =
  unlink t r;
  push_newest t r

(* Evict least-recently-used resident entries until the resident bytes
   fit the budget.  In-flight entries are neither counted nor evicted:
   their waiters hold the flight, not the table slot.  The entry just
   inserted is the most recently used, so it goes only if it alone
   exceeds the budget. *)
let evict_to_budget (t : 'a t) =
  while t.bytes > t.budget do
    match t.oldest with
    | None -> assert false (* bytes > 0 implies a resident entry *)
    | Some r ->
        unlink t r;
        Hashtbl.remove t.table r.key;
        t.bytes <- t.bytes - r.bytes;
        t.entries <- t.entries - 1;
        t.evictions <- t.evictions + 1
  done

let unwrap = function Ok v -> v | Error e -> raise e

let find_or_compute (t : 'a t) ~(key : string) (f : unit -> 'a) : 'a =
  Mutex.lock t.mutex;
  (* Classified once, at first observation: present (ready or in
     flight) is a hit, absent is a miss. *)
  match Hashtbl.find_opt t.table key with
  | Some (Ready r) ->
      t.hits <- t.hits + 1;
      touch t r;
      Mutex.unlock t.mutex;
      unwrap r.result
  | Some (Computing fl) ->
      t.hits <- t.hits + 1;
      while Option.is_none fl.outcome do
        Condition.wait t.cond t.mutex
      done;
      Mutex.unlock t.mutex;
      unwrap (Option.get fl.outcome)
  | None ->
      t.misses <- t.misses + 1;
      let fl = { outcome = None } in
      Hashtbl.replace t.table key (Computing fl);
      Mutex.unlock t.mutex;
      (* computed and sized outside the lock *)
      let result, bytes =
        try
          let v = f () in
          (Ok v, t.size v)
        with e -> (Error e, failure_bytes)
      in
      Mutex.lock t.mutex;
      fl.outcome <- Some result;
      (* a reset while in flight dropped the slot: the result is handed
         to this flight's callers but not kept *)
      (match Hashtbl.find_opt t.table key with
      | Some (Computing fl') when fl' == fl ->
          let r = { key; result; bytes; newer = None; older = None } in
          push_newest t r;
          Hashtbl.replace t.table key (Ready r);
          t.bytes <- t.bytes + bytes;
          t.entries <- t.entries + 1;
          evict_to_budget t
      | _ -> ());
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex;
      unwrap result

let stats (t : 'a t) : stats =
  Mutex.lock t.mutex;
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
      size = t.entries;
      bytes = t.bytes;
      budget = t.budget;
    }
  in
  Mutex.unlock t.mutex;
  s

let hit_rate (s : stats) : float =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

let diff ~(after : stats) ~(before : stats) : stats =
  {
    after with
    hits = after.hits - before.hits;
    misses = after.misses - before.misses;
    evictions = after.evictions - before.evictions;
  }

let add (a : stats) (b : stats) : stats =
  {
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    evictions = a.evictions + b.evictions;
    size = a.size + b.size;
    bytes = a.bytes + b.bytes;
    budget = a.budget + b.budget;
  }

let reset (t : 'a t) =
  Mutex.lock t.mutex;
  Hashtbl.reset t.table;
  t.newest <- None;
  t.oldest <- None;
  t.bytes <- 0;
  t.entries <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0;
  Mutex.unlock t.mutex

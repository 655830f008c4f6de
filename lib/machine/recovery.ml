(** Checkpoint/replay recovery policy for the multiprocessor machine
    (see the interface).  The machine-state snapshot itself lives in
    {!Multiproc} (it is made of that module's private state); this
    module owns everything policy-shaped: when to checkpoint, which PE
    dies when, how the dead PE's work is remapped, and the cost
    accounting. *)

type spec = {
  interval : int;
  failover : int;
  deaths : (int * int) list;
  max_rollbacks : int;
}

let spec ?(interval = 50) ?(failover = 10) ?(deaths = []) ?(max_rollbacks = 8)
    () =
  {
    interval = max 1 interval;
    failover = max 0 failover;
    deaths = List.sort compare deaths;
    max_rollbacks = max 0 max_rollbacks;
  }

(* One seeded fail-stop: pure function of the seed, drawn from the same
   avalanche mixer as the fault plan (streams 9 and 10 — disjoint from
   the delivery/memory/link streams).  No death on a uniprocessor:
   there is nobody left to recover onto. *)
let seeded_deaths ~seed ~pes ~window : (int * int) list =
  if pes < 2 then []
  else
    let cycle = 1 + (Fault.mix seed 9 0 mod max 1 window) in
    let pe = Fault.mix seed 10 0 mod pes in
    [ (cycle, pe) ]

(* [substitute ~pes ~alive] — where each PE's responsibilities live now:
   identity for survivors; the k-th dead PE maps to the k-th survivor
   round-robin.  Used to translate memory-module homes and resend
   sources off dead PEs. *)
let substitute ~pes ~(alive : bool array) : int array =
  let survivors =
    Array.to_list (Array.init pes (fun i -> i))
    |> List.filter (fun i -> alive.(i))
  in
  if survivors = [] then invalid_arg "Recovery.substitute: no survivors";
  let n = List.length survivors in
  let k = ref 0 in
  Array.init pes (fun i ->
      if alive.(i) then i
      else begin
        let s = List.nth survivors (!k mod n) in
        incr k;
        s
      end)

(* [remap place ~alive] — a placement for the surviving PEs: nodes on
   live PEs stay put (their matching state is restored in place), nodes
   of dead PEs are rebalanced round-robin over the survivors in node
   order.  [pes] keeps its original value: PE indices, network geometry
   and memory interleaving are unchanged — the dead PE is simply never
   assigned work again. *)
let remap (p : Placement.t) ~(alive : bool array) : Placement.t =
  let survivors =
    Array.to_list (Array.init p.Placement.pes (fun i -> i))
    |> List.filter (fun i -> alive.(i))
  in
  if survivors = [] then invalid_arg "Recovery.remap: no survivors";
  let n = List.length survivors in
  let k = ref 0 in
  let assign =
    Array.map
      (fun pe ->
        if alive.(pe) then pe
        else begin
          let s = List.nth survivors (!k mod n) in
          incr k;
          s
        end)
      p.Placement.assign
  in
  { p with Placement.assign }

(* A one-deep checkpoint journal: replay always restarts from the most
   recent epoch, so older snapshots are dead weight. *)
type 'state journal = { mutable last : (int * 'state) option }

let journal_create () = { last = None }
let record (j : 'state journal) ~cycle state = j.last <- Some (cycle, state)
let last (j : 'state journal) = j.last

type metrics = {
  mutable m_checkpoints : int;
  mutable m_rollbacks : int;
  mutable m_deaths : int;
  mutable m_lost_cycles : int;
  mutable m_replayed_firings : int;
}

let metrics_create () =
  {
    m_checkpoints = 0;
    m_rollbacks = 0;
    m_deaths = 0;
    m_lost_cycles = 0;
    m_replayed_firings = 0;
  }

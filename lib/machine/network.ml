(** Cycle-driven token interconnect (see the interface). *)

type config = {
  latency : int;
  bandwidth : int;
  queue_capacity : int option;
  modules : int option;
}

let default =
  { latency = 2; bandwidth = 2; queue_capacity = Some 8; modules = None }

let fast =
  { latency = 1; bandwidth = max_int; queue_capacity = None; modules = None }

let home_pe (c : config) ~pes ~addr =
  let m = match c.modules with Some m -> max 1 m | None -> max 1 pes in
  addr mod m mod max 1 pes

type 'msg t = {
  cfg : config;
  hops : int -> int -> int;
      (** links crossed src -> dst; the constant 1 reproduces the seed's
          uniform-latency wire bit for bit *)
  queues : (int * 'msg) Queue.t array;  (** per-PE: (dst, msg) *)
  flight : (int, (int * 'msg) list) Hashtbl.t;
      (** arrival cycle -> reversed (dst, msg) list *)
  mutable flying : int;
  mutable messages : int;
  mutable hop_sum : int;
  mutable backpressure : int;
  mutable peak_queue : int;
  mutable peak_in_flight : int;
}

let create ?(config = default) ?(hops = fun _ _ -> 1) ~pes () =
  {
    cfg = config;
    hops;
    queues = Array.init (max 1 pes) (fun _ -> Queue.create ());
    flight = Hashtbl.create 64;
    flying = 0;
    messages = 0;
    hop_sum = 0;
    backpressure = 0;
    peak_queue = 0;
    peak_in_flight = 0;
  }

let queued t = Array.fold_left (fun a q -> a + Queue.length q) 0 t.queues
let in_transit t = t.flying + queued t

let note_peaks t =
  let it = in_transit t in
  if it > t.peak_in_flight then t.peak_in_flight <- it

let inject t ~src ~dst msg =
  (match t.cfg.queue_capacity with
  | Some cap when Queue.length t.queues.(src) >= cap ->
      (* full queue: count the stall, never drop the token *)
      t.backpressure <- t.backpressure + 1
  | _ -> ());
  Queue.add (dst, msg) t.queues.(src);
  t.messages <- t.messages + 1;
  let ql = Queue.length t.queues.(src) in
  if ql > t.peak_queue then t.peak_queue <- ql;
  note_peaks t

let step t ~now =
  Array.iteri
    (fun src q ->
      let budget = min t.cfg.bandwidth (Queue.length q) in
      for _ = 1 to budget do
        let (dst, _) as m = Queue.pop q in
        (* pipelined (wormhole) per-hop charge under the topology: the
           head pays the injection latency once, then one cycle per
           additional link; one hop (the default) reduces to the seed's
           uniform [latency] *)
        let h = max 1 (t.hops src dst) in
        t.hop_sum <- t.hop_sum + h;
        let at = now + max 1 (t.cfg.latency + h - 1) in
        Hashtbl.replace t.flight at
          (m :: (try Hashtbl.find t.flight at with Not_found -> []));
        t.flying <- t.flying + 1
      done)
    t.queues;
  note_peaks t

let arrivals t ~now =
  match Hashtbl.find_opt t.flight now with
  | Some l ->
      Hashtbl.remove t.flight now;
      t.flying <- t.flying - List.length l;
      List.rev l
  | None -> []

type stats = {
  s_messages : int;
  s_hops : int;
  s_backpressure : int;
  s_peak_queue : int;
  s_peak_in_flight : int;
}

let stats t =
  {
    s_messages = t.messages;
    s_hops = t.hop_sum;
    s_backpressure = t.backpressure;
    s_peak_queue = t.peak_queue;
    s_peak_in_flight = t.peak_in_flight;
  }

(* ------------------------------------------------------------------ *)
(* Reliable transport: exactly-once delivery over an at-least-once    *)
(* wire.  Every payload gets a per-channel sequence number; the       *)
(* receiver acks each data frame and drops duplicates it has already  *)
(* delivered; the sender retransmits on timeout with exponential      *)
(* backoff up to a budget.  Every data frame carries the sender's     *)
(* payload checksum; a frame that fails it is discarded unacked, so a *)
(* bit flip costs a retransmit like a drop.  Wire faults (drop /      *)
(* duplicate / delay / reorder / bit-flip) are applied per frame by   *)
(* the [fault] hook — acks ride the same lossy wire and are just as   *)
(* faultable.                                                         *)
(* ------------------------------------------------------------------ *)

type 'msg frame =
  | Data of { d_seq : int; d_src : int; d_sum : int; d_payload : 'msg }
      (** [d_sum]: the sender's {!checksum} of [d_payload] *)
  | Ack of { a_seq : int; a_src : int; a_dst : int }
      (** acknowledges data frame [(a_src, a_dst, a_seq)]; routed on the
          wire back to PE [a_src] *)

type 'msg pending = {
  q_payload : 'msg;
  mutable q_deadline : int;
  mutable q_rto : int;
  mutable q_tries : int;
}

type 'msg rt = {
  rt_net : 'msg frame t;
  rt_fault : (cycle:int -> dst:int -> Fault.action) option;
  rt_corrupt : (int -> 'msg -> 'msg) option;
  rt_budget : int;
  rt_rto0 : int;
  rt_seq : (int * int, int) Hashtbl.t;  (** (src, dst) -> next seq *)
  rt_unacked : (int * int * int, 'msg pending) Hashtbl.t;
      (** (src, dst, seq) -> awaiting ack *)
  rt_delivered : (int * int * int, unit) Hashtbl.t;
      (** receiver-side dedup: data frames already handed up *)
  rt_held : (int, (int * int * 'msg frame) list) Hashtbl.t;
      (** release cycle -> reversed (src, dst, frame): delayed/reordered *)
  mutable rt_held_n : int;
  mutable rt_sends : int;
  mutable rt_retransmits : int;
  mutable rt_dups_dropped : int;
  mutable rt_acks : int;
  mutable rt_wire_faults : int;
  mutable rt_losses : int;
}

(* The payload checksum: the machine's payloads are small records, all
   of whose fields lie within [Hashtbl.hash]'s traversal bound. *)
let checksum = Hashtbl.hash

let data ~seq ~src payload =
  Data
    { d_seq = seq; d_src = src; d_sum = checksum payload; d_payload = payload }

let rt_create ?(config = default) ?hops ?fault ?corrupt ?(budget = 16) ~pes ()
    =
  {
    rt_net = create ~config ?hops ~pes ();
    rt_fault = fault;
    rt_corrupt = corrupt;
    rt_budget = budget;
    rt_rto0 = (4 * max 1 config.latency) + 2;
    rt_seq = Hashtbl.create 16;
    rt_unacked = Hashtbl.create 64;
    rt_delivered = Hashtbl.create 256;
    rt_held = Hashtbl.create 16;
    rt_held_n = 0;
    rt_sends = 0;
    rt_retransmits = 0;
    rt_dups_dropped = 0;
    rt_acks = 0;
    rt_wire_faults = 0;
    rt_losses = 0;
  }

(* One frame onto the wire, through the fault hook.  Drop loses the
   frame (the retransmit timer recovers data; a lost ack just provokes a
   retransmit the receiver dedups); Duplicate injects twice; Delay and
   Reorder hold the frame back so later traffic overtakes it; Bit_flip
   corrupts a data payload after its checksum was taken. *)
let put_on_wire rt ~now ~src ~dst frame =
  let go f = inject rt.rt_net ~src ~dst f in
  match rt.rt_fault with
  | None -> go frame
  | Some hook -> (
      match hook ~cycle:now ~dst with
      | Fault.Pass -> go frame
      | Fault.Act f -> (
          rt.rt_wire_faults <- rt.rt_wire_faults + 1;
          match f with
          | Fault.Drop -> ()
          | Fault.Duplicate ->
              go frame;
              go frame
          | Fault.Delay d | Fault.Reorder d ->
              let at = now + max 1 d in
              Hashtbl.replace rt.rt_held at
                ((src, dst, frame)
                :: (try Hashtbl.find rt.rt_held at with Not_found -> []));
              rt.rt_held_n <- rt.rt_held_n + 1
          | Fault.Bit_flip b -> (
              match (frame, rt.rt_corrupt) with
              | Data d, Some c ->
                  go (Data { d with d_payload = c b d.d_payload })
              | _ -> go frame)
          | Fault.Port_stall _ | Fault.Pe_death -> go frame))

let rt_send rt ~now ~src ~dst msg =
  let ch = (src, dst) in
  let seq = try Hashtbl.find rt.rt_seq ch with Not_found -> 0 in
  Hashtbl.replace rt.rt_seq ch (seq + 1);
  Hashtbl.replace rt.rt_unacked (src, dst, seq)
    {
      q_payload = msg;
      q_deadline = now + rt.rt_rto0;
      q_rto = rt.rt_rto0;
      q_tries = 1;
    };
  rt.rt_sends <- rt.rt_sends + 1;
  put_on_wire rt ~now ~src ~dst (data ~seq ~src msg)

let rt_arrivals rt ~now =
  arrivals rt.rt_net ~now
  |> List.filter_map (fun (pe, frame) ->
         match frame with
         | Ack { a_seq; a_src; a_dst } ->
             Hashtbl.remove rt.rt_unacked (a_src, a_dst, a_seq);
             None
         | Data { d_sum; d_payload; _ } when checksum d_payload <> d_sum ->
             (* corrupted in flight: unacked, so the sender's timer
                resends it *)
             None
         | Data { d_seq; d_src; d_payload; _ } ->
             (* always re-ack: the sender may be retransmitting because
                our previous ack was lost *)
             rt.rt_acks <- rt.rt_acks + 1;
             put_on_wire rt ~now ~src:pe ~dst:d_src
               (Ack { a_seq = d_seq; a_src = d_src; a_dst = pe });
             if Hashtbl.mem rt.rt_delivered (d_src, pe, d_seq) then begin
               rt.rt_dups_dropped <- rt.rt_dups_dropped + 1;
               None
             end
             else begin
               Hashtbl.replace rt.rt_delivered (d_src, pe, d_seq) ();
               Some (pe, d_payload)
             end)

let rt_step rt ~now =
  (* release frames a Delay/Reorder fault held back until this cycle *)
  (match Hashtbl.find_opt rt.rt_held now with
  | Some l ->
      Hashtbl.remove rt.rt_held now;
      rt.rt_held_n <- rt.rt_held_n - List.length l;
      List.iter
        (fun (src, dst, frame) -> inject rt.rt_net ~src ~dst frame)
        (List.rev l)
  | None -> ());
  (* retransmit timers, in sorted channel order for determinism *)
  let due =
    Hashtbl.fold
      (fun key p acc -> if p.q_deadline <= now then key :: acc else acc)
      rt.rt_unacked []
    |> List.sort compare
  in
  List.iter
    (fun ((src, dst, seq) as key) ->
      let p = Hashtbl.find rt.rt_unacked key in
      if p.q_tries >= rt.rt_budget then begin
        (* budget exhausted: give up.  If the receiver never saw the
           frame this is a genuine token loss — the machine quiesces
           into a diagnosable deadlock instead of spinning forever. *)
        Hashtbl.remove rt.rt_unacked key;
        if not (Hashtbl.mem rt.rt_delivered (src, dst, seq)) then
          rt.rt_losses <- rt.rt_losses + 1
      end
      else begin
        p.q_tries <- p.q_tries + 1;
        (* exponential backoff with a ceiling: uncapped doubling over a
           full budget would stretch past any reasonable cycle bound *)
        p.q_rto <- min (p.q_rto * 2) (8 * rt.rt_rto0);
        p.q_deadline <- now + p.q_rto;
        rt.rt_retransmits <- rt.rt_retransmits + 1;
        put_on_wire rt ~now ~src ~dst (data ~seq ~src p.q_payload)
      end)
    due;
  step rt.rt_net ~now

let rt_pending rt =
  in_transit rt.rt_net + rt.rt_held_n + Hashtbl.length rt.rt_unacked

(* Checkpoint view: payloads sent but not yet handed to the receiver —
   exactly what a restore must resend.  A delivered-but-unacked frame is
   excluded: its effect is already inside the checkpointed receiver
   state, and the fresh transport made at restore has an empty dedup
   set, so resending it would double-deliver.  Sorted by (src, dst, seq)
   for determinism. *)
let rt_undelivered rt =
  Hashtbl.fold
    (fun ((src, dst, _) as key) p acc ->
      if Hashtbl.mem rt.rt_delivered key then acc
      else (key, (src, dst, p.q_payload)) :: acc)
    rt.rt_unacked []
  |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2)
  |> List.map snd

type rt_stats = {
  r_sends : int;
  r_retransmits : int;
  r_dups_dropped : int;
  r_acks : int;
  r_wire_faults : int;
  r_losses : int;
}

let rt_stats rt =
  {
    r_sends = rt.rt_sends;
    r_retransmits = rt.rt_retransmits;
    r_dups_dropped = rt.rt_dups_dropped;
    r_acks = rt.rt_acks;
    r_wire_faults = rt.rt_wire_faults;
    r_losses = rt.rt_losses;
  }

let rt_wire_stats rt = stats rt.rt_net

(** The firing log (see the interface): growable columns, one entry per
    firing and one sample per cycle.  As lists of boxed entries they
    would be promoted and traced by the major collector for the whole
    run. *)

type 'a vec = { mutable data : 'a array; mutable len : int }

let vec x = { data = Array.make 256 x; len = 0 }

let grow v x =
  let d = Array.make (2 * v.len) x in
  Array.blit v.data 0 d 0 v.len;
  v.data <- d

let push v x =
  if v.len = Array.length v.data then grow v x;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

(* [push] for the int columns: typed [int], the store is a plain word
   write, where the polymorphic one goes through the generic array
   store *)
let push_int (v : int vec) (x : int) =
  if v.len = Array.length v.data then grow v x;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let contents v = Array.sub v.data 0 v.len

type t = {
  node : int vec;
  ctx : Context.t vec;
  cycle : int vec;
  pe : int vec;
  pred : int vec;
  depth : int vec;  (** chain depth: the producer's plus one *)
  fired : int vec;
  in_flight : int vec;
  matching : int vec;
}

let create () =
  {
    node = vec 0;
    ctx = vec Context.toplevel;
    cycle = vec 0;
    pe = vec 0;
    pred = vec 0;
    depth = vec 0;
    fired = vec 0;
    in_flight = vec 0;
    matching = vec 0;
  }

let length t = t.node.len

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Trace: no such firing";
  v.data.(i)

let node t i = get t.node i
let ctx t i = get t.ctx i
let cycle t i = get t.cycle i
let pe t i = get t.pe i
let pred t i = get t.pred i
let depth t i = if i < 0 then 0 else t.depth.data.(i)
let deeper t a b = if depth t b > depth t a then b else a

let fire t ~node ~ctx ~cycle ~pe ~pred =
  let i = t.node.len in
  push_int t.node node;
  push t.ctx ctx;
  push_int t.cycle cycle;
  push_int t.pe pe;
  push_int t.pred pred;
  push_int t.depth (depth t pred + 1);
  i

let sample t ~fired ~in_flight ~matching =
  push_int t.fired fired;
  push_int t.in_flight in_flight;
  push_int t.matching matching

let rollback t n =
  List.iter
    (fun v -> v.len <- min n v.len)
    [ t.node; t.cycle; t.pe; t.pred; t.depth ];
  t.ctx.len <- min n t.ctx.len

let parallelism_curve t = contents t.fired
let in_flight_curve t = contents t.in_flight
let matching_curve t = contents t.matching

(* the first firing of greatest depth; [-1] for an empty log *)
let deepest t =
  let best = ref (-1) in
  for i = 0 to length t - 1 do
    if depth t i > depth t !best then best := i
  done;
  !best

let critical_path t = depth t (deepest t)

let critical_chain t =
  let rec walk i acc =
    if i < 0 then acc
    else walk t.pred.data.(i) ((t.node.data.(i), t.ctx.data.(i)) :: acc)
  in
  walk (deepest t) []

(* [groups t f] calls [f cycle first stop] for each run of firings
   [first, stop) logged in one cycle, in cycle order *)
let groups t f =
  let n = length t in
  let rec go first =
    if first < n then begin
      let c = t.cycle.data.(first) in
      let stop = ref (first + 1) in
      while !stop < n && t.cycle.data.(!stop) = c do
        incr stop
      done;
      f c first !stop;
      go !stop
    end
  in
  go 0

let pp_timeline ?(max_cycles = 60) ~(graph : Dfg.Graph.t) ppf t =
  let shown = ref 0 and cycles = ref 0 in
  groups t (fun c first stop ->
      incr cycles;
      if !shown < max_cycles then begin
        incr shown;
        Fmt.pf ppf "%5d | %a@." c
          (Fmt.list ~sep:(Fmt.any ",  ") (fun ppf i ->
               let node = Dfg.Graph.node graph t.node.data.(i) in
               let label = node.Dfg.Node.label and ctx = t.ctx.data.(i) in
               if Context.depth ctx = 0 then Fmt.string ppf label
               else Fmt.pf ppf "%s %s" label (Context.to_string ctx)))
          (List.init (stop - first) (fun k -> stop - 1 - k))
      end);
  if !cycles > max_cycles then
    Fmt.pf ppf "      | ... (%d more cycles)@." (!cycles - max_cycles)

let per_context t =
  let tbl = Hashtbl.create 16 in
  for i = 0 to length t - 1 do
    let c = t.ctx.data.(i) in
    Hashtbl.replace tbl c (1 + Option.value ~default:0 (Hashtbl.find_opt tbl c))
  done;
  Hashtbl.fold (fun c n acc -> (c, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare (List.rev a) (List.rev b))

let pp_per_context ppf t =
  List.iter
    (fun (ctx, n) -> Fmt.pf ppf "  %-16s %d@." (Context.to_string ctx) n)
    (per_context t)

let overlap t =
  let n = length t in
  let last = if n = 0 then 0 else t.cycle.data.(n - 1) in
  let ov = Array.make (last + 1) 0 in
  groups t (fun c first stop ->
      let seen = ref [] in
      for i = first to stop - 1 do
        let c = t.ctx.data.(i) in
        if not (List.mem c !seen) then seen := c :: !seen
      done;
      ov.(c) <- List.length !seen);
  ov

let max_context_overlap t = Array.fold_left max 0 (overlap t)

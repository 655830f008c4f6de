(** The waiting-matching store of the reference machine (see the
    interface): one int-keyed table of slot arrays per store, a slot
    holding the caller's [pad] while it is empty. *)

(* The table indexes its buckets by a key's low bits, and a key
   [cid * nodes + node] repeats its low bits across contexts whenever
   [nodes] is even, so the hash folds the high bits of a multiplicative
   mix down: one node's contexts spread over the buckets instead of
   chaining in a few. *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let h = k * 0x9E3779B1 in
    (h lxor (h lsr 29)) land max_int
end)

type 'slot store = {
  nodes : int;  (** the key is [cid * nodes + node] *)
  ids : Context.table;
  pad : 'slot;
  tbl : 'slot array Tbl.t;
}

let create ~nodes ~ids ~pad = { nodes; ids; pad; tbl = Tbl.create 64 }
let entries (s : 'slot store) = Tbl.length s.tbl

type 'slot outcome =
  | Collision
  | Wait
  | Fire of 'slot array

(* slots [a, a + len) all hold a token *)
let full (s : 'slot store) (slots : 'slot array) a len =
  let ok = ref true in
  for i = a to a + len - 1 do
    if slots.(i) == s.pad then ok := false
  done;
  !ok

let is_empty (s : 'slot store) slots = not (Array.exists (fun x -> x != s.pad) slots)

(* A loop gateway's group [a, a + arity) leaves as a fresh input array,
   with a trailing pad for the back-edge group; the entry stays while
   the other group holds a token. *)
let take_group s key slots a arity ~back =
  let ins = Array.make (if back then arity + 1 else arity) s.pad in
  Array.blit slots a ins 0 arity;
  Array.fill slots a arity s.pad;
  if is_empty s slots then Tbl.remove s.tbl key;
  Fire ins

let deliver ~(kind : Dfg.Node.kind) ~detect_collisions
    ?(on_insert = fun () -> ()) (s : 'slot store) ~node ~cid ~port
    (slot : 'slot) : 'slot outcome =
  let key = (cid * s.nodes) + node in
  let slots =
    match Tbl.find_opt s.tbl key with
    | Some a -> a
    | None ->
        let a = Array.make (max 1 (Dfg.Node.in_arity kind)) s.pad in
        Tbl.add s.tbl key a;
        a
  in
  if slots.(port) != s.pad && detect_collisions then Collision
  else begin
    slots.(port) <- slot;
    on_insert ();
    match kind with
    | Dfg.Node.Loop_entry { arity; _ } ->
        if full s slots 0 arity then take_group s key slots 0 arity ~back:false
        else if full s slots arity arity then
          take_group s key slots arity arity ~back:true
        else Wait
    | _ ->
        if full s slots 0 (Array.length slots) then begin
          (* the slot array leaves the store as the firing's inputs *)
          Tbl.remove s.tbl key;
          Fire slots
        end
        else Wait
  end

let copy (s : 'slot store) : 'slot store =
  let c = { s with tbl = Tbl.create (max 16 (Tbl.length s.tbl)) } in
  Tbl.iter (fun k a -> Tbl.replace c.tbl k (Array.copy a)) s.tbl;
  c

let copy_into (s : 'slot store) ~(dst : int -> 'slot store) =
  Tbl.iter
    (fun k a -> Tbl.replace (dst (k mod s.nodes)).tbl k (Array.copy a))
    s.tbl

let occupied (s : 'slot store) slots =
  Array.fold_left (fun a x -> if x == s.pad then a else a + 1) 0 slots

let leftover (stores : 'slot store list) : int =
  List.fold_left
    (fun acc s -> Tbl.fold (fun _ slots a -> a + occupied s slots) s.tbl acc)
    0 stores

let partial_matches (stores : 'slot store list) :
    (int * Context.t * int list * int list) list =
  List.concat_map
    (fun s ->
      Tbl.fold
        (fun k slots acc ->
          let present = ref [] and missing = ref [] in
          for i = Array.length slots - 1 downto 0 do
            if slots.(i) == s.pad then missing := i :: !missing
            else present := i :: !present
          done;
          if !present = [] then acc
          else
            (k mod s.nodes, Context.of_id s.ids (k / s.nodes), !present, !missing)
            :: acc)
        s.tbl [])
    stores
  |> List.sort (fun (a, b, _, _) (c, d, _, _) -> compare (a, b) (c, d))

let tokens_by_context (stores : 'slot store list) : (Context.t * int) list =
  List.fold_left
    (fun acc s ->
      Tbl.fold
        (fun k slots acc ->
          let n = occupied s slots in
          if n = 0 then acc
          else
            let ctx = Context.of_id s.ids (k / s.nodes) in
            match List.assoc_opt ctx acc with
            | Some m -> (ctx, m + n) :: List.remove_assoc ctx acc
            | None -> (ctx, n) :: acc)
        s.tbl acc)
    [] stores
  |> Diagnosis.order_by_count

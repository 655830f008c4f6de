(** The waiting-matching store of the reference machine (see the
    interface).  The slot type is polymorphic so the machine stores its
    own token record. *)

type 'slot store = (int * Context.t, 'slot option array) Hashtbl.t

let create () : 'slot store = Hashtbl.create 64
let entries : 'slot store -> int = Hashtbl.length

(* Enabledness given a slot array and node kind: loop entries match on
   complete groups (initial ports 0..arity-1 or back ports
   arity..2*arity-1), everything else on all ports. *)
let full (slots : 'slot option array) a b =
  let ok = ref true in
  for i = a to b do
    if slots.(i) = None then ok := false
  done;
  !ok

let enabled (kind : Dfg.Node.kind) (slots : 'slot option array) : bool =
  match kind with
  | Dfg.Node.Loop_entry { arity; _ } ->
      full slots 0 (arity - 1) || full slots arity ((2 * arity) - 1)
  | _ -> Array.for_all (fun s -> s <> None) slots

type 'slot outcome =
  | Collision
  | Wait
  | Fire of 'slot array

let deliver ~(kind : Dfg.Node.kind) ~detect_collisions ~(pad : 'slot)
    ?(on_insert = fun () -> ()) (store : 'slot store) ~node ~ctx ~port
    (slot : 'slot) : 'slot outcome =
  let key = (node, ctx) in
  let slots =
    match Hashtbl.find_opt store key with
    | Some s -> s
    | None ->
        let s = Array.make (max 1 (Dfg.Node.in_arity kind)) None in
        Hashtbl.replace store key s;
        s
  in
  match slots.(port) with
  | Some _ when detect_collisions -> Collision
  | _ ->
      slots.(port) <- Some slot;
      on_insert ();
      if not (enabled kind slots) then Wait
      else begin
        (* consume: for loop entries, only the full group *)
        let inputs =
          match kind with
          | Dfg.Node.Loop_entry { arity; _ } ->
              if full slots 0 (arity - 1) then begin
                let ins = Array.init arity (fun i -> Option.get slots.(i)) in
                for i = 0 to arity - 1 do
                  slots.(i) <- None
                done;
                (* which group fired is encoded in the array length:
                   arity -> initial; arity+1 (trailing pad) -> back *)
                ins
              end
              else begin
                let ins =
                  Array.init (arity + 1) (fun i ->
                      if i < arity then Option.get slots.(arity + i) else pad)
                in
                for i = arity to (2 * arity) - 1 do
                  slots.(i) <- None
                done;
                ins
              end
          | _ ->
              let ins =
                Array.init (Array.length slots) (fun i ->
                    Option.get slots.(i))
              in
              Array.fill slots 0 (Array.length slots) None;
              ins
        in
        (* drop empty slot arrays to keep the leftover count honest *)
        if Array.for_all (fun s -> s = None) slots then Hashtbl.remove store key;
        Fire inputs
      end

let occupied slots =
  Array.fold_left (fun a s -> if s = None then a else a + 1) 0 slots

let leftover (stores : 'slot store list) : int =
  List.fold_left
    (fun acc store ->
      Hashtbl.fold (fun _ slots a -> a + occupied slots) store acc)
    0 stores

let partial_matches (stores : 'slot store list) :
    (int * Context.t * int list * int list) list =
  List.concat_map
    (fun store ->
      Hashtbl.fold
        (fun (n, ctx) slots acc ->
          let present, missing =
            Array.to_seqi slots
            |> Seq.fold_left
                 (fun (h, m) (i, s) ->
                   match s with Some _ -> (i :: h, m) | None -> (h, i :: m))
                 ([], [])
          in
          if present = [] then acc
          else (n, ctx, List.rev present, List.rev missing) :: acc)
        store [])
    stores
  |> List.sort (fun (a, b, _, _) (c, d, _, _) -> compare (a, b) (c, d))

let tokens_by_context (stores : 'slot store list) : (Context.t * int) list =
  List.fold_left
    (fun acc store ->
      Hashtbl.fold
        (fun (_, ctx) slots acc ->
          let n = occupied slots in
          if n = 0 then acc
          else
            match List.assoc_opt ctx acc with
            | Some m -> (ctx, m + n) :: List.remove_assoc ctx acc
            | None -> (ctx, n) :: acc)
        store acc)
    [] stores
  |> List.sort (fun (_, a) (_, b) -> compare b a)

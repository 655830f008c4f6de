(* The host speed probe's work (see probe.ml): a fixed amount of string
   hashing, sorting and balanced-map building from the OCaml standard
   library, sharing no code with the program under test.  A process of
   its own, so that nothing of the benchmark's state (its heap above
   all) changes what one probe costs. *)

let unit_of_work () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 1999 do
    Hashtbl.replace h (string_of_int (i * 7919 mod 10007)) i
  done;
  let l = List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) h []) in
  let module M = Map.Make (String) in
  let m = List.fold_left (fun m (k, v) -> M.add k v m) M.empty l in
  M.fold (fun _ v a -> a + v) m 0

(* About 0.1 s at full speed. *)
let units = 50

let () =
  for _ = 1 to units do
    ignore (Sys.opaque_identity (unit_of_work ()))
  done

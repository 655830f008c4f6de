(* FNV-1a, 64-bit: the classic byte-at-a-time multiply-xor hash.  OCaml's
   native int is 63-bit, so the arithmetic runs in Int64 and only the
   rendering truncates nothing.  The loop has no closure and its
   accumulator never escapes, so the compiler keeps it unboxed. *)

let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let fnv1a ?(seed = offset_basis) (s : string) : int64 =
  let h = ref seed in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        prime
  done;
  !h

(* Length-prefix framing: hash "len(part):part" for every part so the
   part boundaries are part of the digest. *)
let feed seed parts =
  List.fold_left
    (fun h part ->
      let h = fnv1a ~seed:h (string_of_int (String.length part) ^ ":") in
      fnv1a ~seed:h part)
    seed parts

let key (parts : string list) : string =
  let a = feed offset_basis parts in
  (* a second independent stream from a perturbed basis: 128 bits total,
     so collisions are out of reach for any realistic cache population *)
  let b = feed (Int64.add offset_basis 0x9e3779b97f4a7c15L) parts in
  Printf.sprintf "%016Lx%016Lx" a b

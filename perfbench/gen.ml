(* Seeded inputs for the three workloads.

   Every job is a pure function of (seed, stream tag, index), so any
   prefix of a stream can be regenerated on demand and two runs with the
   same seed see the same jobs.  The canonical sets use their own tags,
   so they are identical for every seed and never collide with a
   window stream. *)

module J = Machine.Json

let schemas = [| "1"; "2p"; "2optp"; "3" |]

let rng seed tag i = Random.State.make [| seed; tag; i |]

(* Random programs are banded by size, counted in AST nodes (about 4.6
   source characters each): compile time grows with size, and an
   unbanded draw has a tail heavy enough that a run's median moves with
   the seed. *)
let rec expr_size = function
  | Imp.Ast.Int _ | Imp.Ast.Bool _ | Imp.Ast.Var _ -> 1
  | Imp.Ast.Index (_, e) | Imp.Ast.Unop (_, e) -> 1 + expr_size e
  | Imp.Ast.Binop (_, a, b) -> 1 + expr_size a + expr_size b

let rec size = function
  | Imp.Ast.Skip | Imp.Ast.Label _ | Imp.Ast.Goto _ | Imp.Ast.Call _ -> 1
  | Imp.Ast.Assign (Imp.Ast.Lvar _, e) -> 2 + expr_size e
  | Imp.Ast.Assign (Imp.Ast.Lindex (_, i), e) -> 2 + expr_size i + expr_size e
  | Imp.Ast.Seq (a, b) -> size a + size b
  | Imp.Ast.If (e, a, b) -> 1 + expr_size e + size a + size b
  | Imp.Ast.While (e, a) -> 1 + expr_size e + size a
  | Imp.Ast.Cond_goto (e, _) -> 1 + expr_size e
  | Imp.Ast.Case (e, arms, d) ->
      1 + expr_size e + List.fold_left (fun n (_, s) -> n + size s) 0 arms + size d

let program_size (p : Imp.Ast.program) =
  List.fold_left (fun n pr -> n + size pr.Imp.Ast.pbody) (size p.Imp.Ast.body) p.Imp.Ast.procs

let band = (110, 220)
let in_band (lo, hi) n = n >= lo && n < hi

let rec banded_program ?(band = band) rand =
  let p = Workloads.Random_gen.structured rand in
  if in_band band (program_size p) then p else banded_program ~band rand

(* Blocks of a large program take a wider band: a sum of eight draws
   is steady without a tight band, and a wide one keeps generation
   cheap. *)
let body_band = (80, 400)

let rec banded_body rand =
  let b =
    Workloads.Random_gen.structured_body Workloads.Random_gen.default_config
      rand
  in
  if in_band body_band (size b) then b else banded_body rand

(* A large program is [large_blocks] banded blocks in sequence: its cost
   is a sum of independent draws, so the large class is about
   [large_blocks] times the small median without a seed-dependent tail. *)
let large_blocks = 8

let large_program rand =
  let p = banded_program rand in
  let extra = List.init (large_blocks - 1) (fun _ -> banded_body rand) in
  { p with Imp.Ast.body = Imp.Ast.seq (p.Imp.Ast.body :: extra) }

type compile_job = { c_source : string; c_schema : string; c_optimize : bool }

(* Job [i] of a compile stream.  The schema cycles with period 4, the
   optimize flag with period 8, and every fourth block of 8 jobs is
   large: the mix is stratified, not drawn, so every run has the same
   share of each (schema, optimize, size) class. *)
let compile_job ?(small_band = band) ?(large_class = true) ~seed ~tag i =
  let rand = rng seed tag i in
  let large = large_class && (i / 8) mod 4 = 3 in
  let p =
    if large then large_program rand else banded_program ~band:small_band rand
  in
  {
    c_source = Imp.Pretty.program_to_string p;
    c_schema = schemas.(i mod 4);
    c_optimize = (i / 4) mod 2 = 1;
  }

(* Distinct compile jobs: a repeated source would be a Memo hit, which
   compile-cold must never see.  Redraws are deterministic. *)
let distinct_compile_jobs ?small_band ?large_class ?(first = 0) ~seed ~tag
    ~seen n =
  Array.init n (fun i ->
      let rec draw k =
        let j =
          compile_job ?small_band ?large_class ~seed ~tag:(tag + (1000 * k))
            (first + i)
        in
        if Hashtbl.mem seen j.c_source then draw (k + 1)
        else begin
          Hashtbl.add seen j.c_source ();
          j
        end
      in
      draw 0)

let compile_line id j =
  J.to_string
    (J.Assoc
       [
         ("id", J.Int id);
         ("op", J.String "compile");
         ("source", J.String j.c_source);
         ("schema", J.String j.c_schema);
         ("optimize", J.Bool j.c_optimize);
       ])

type run_job = { r_prog : int; r_schema : string; r_engine : string }

let run_line ~sources id j =
  J.to_string
    (J.Assoc
       [
         ("id", J.Int id);
         ("op", J.String "run");
         ("source", J.String sources.(j.r_prog));
         ("schema", J.String j.r_schema);
         ("engine", J.String j.r_engine);
       ])

let read_file path = In_channel.with_open_bin path In_channel.input_all

let example_names = [| "bypass"; "spaghetti"; "stencil"; "subroutine"; "sum" |]

let examples () =
  Array.map
    (fun n -> read_file (Filename.concat "examples/programs" (n ^ ".imp")))
    example_names

(* The fixed run working set: the five examples and eleven small random
   programs drawn from a constant seed. *)
let random_sources ?band k =
  Array.init k (fun i ->
      Imp.Pretty.program_to_string (banded_program ?band (rng 0 200 i)))

let working_set () = Array.append (examples ()) (random_sources 11)

(* run-warm's distinct jobs: every program x schema x engine. *)
let warm_cells (sources : string array) : run_job array =
  Array.of_list
    (List.concat_map
       (fun p ->
         List.concat_map
           (fun s ->
             List.map
               (fun e -> { r_prog = p; r_schema = s; r_engine = e })
               [ "packed"; "reference" ])
           (Array.to_list schemas))
       (List.init (Array.length sources) Fun.id))

let permutation rand n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rand (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* --- batch-mixed ----------------------------------------------------- *)

let batch_lines = 100


(* Run job [k] of a batch: 32 (source, schema) cells, the engine fixed
   per cell, so a batch of 50 run jobs repeats 18 cells. *)
let batch_run_job k =
  let c = k mod 32 in
  {
    r_prog = c mod 8;
    r_schema = schemas.(c / 8 mod 4);
    r_engine = (if (c + (c / 8)) mod 2 = 0 then "packed" else "reference");
  }

(* Batch [b]: compile jobs on distinct programs (even lines) interleaved
   with run jobs on the fixed sources (odd lines).  Batch programs are
   smaller than compile-cold's small class and never large: a large one
   would set the batch latency by itself.  Each batch process starts
   with an empty Memo, so programs need only be distinct within a
   batch: a batch draws its 50 from a pool of [batch_pool] programs. *)
let batch_band = (90, 175)
let batch_pool = 400

(* The eight run sources: the five examples and three small random
   programs. *)
let batch_sources () = Array.append (examples ()) (random_sources ~band:batch_band 3)

let batch_programs ~seed ~tag =
  distinct_compile_jobs ~small_band:batch_band ~large_class:false ~seed ~tag
    ~seen:(Hashtbl.create batch_pool) batch_pool

let batch ~seed ~tag ~pool ~sources b : string array =
  let pick = permutation (rng seed tag b) (Array.length pool) in
  Array.init batch_lines (fun i ->
      if i mod 2 = 0 then
        (* schema and optimize follow the line, not the pooled job *)
        let k = i / 2 in
        compile_line i
          {
            (pool.(pick.(k))) with
            c_schema = schemas.(k mod 4);
            c_optimize = (k / 4) mod 2 = 1;
          }
      else run_line ~sources i (batch_run_job (i / 2)))

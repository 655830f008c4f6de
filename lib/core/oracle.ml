(** The differential schema oracle (see the interface).  Compile under
    every applicable schema × transform × cover combination, execute on
    the ETS machine, compare against the reference interpreter, and
    shrink any divergence to a minimal reproducer. *)

module Iter = QCheck.Iter

type combo = {
  c_spec : Driver.spec;
  c_transforms : Driver.transforms;
  c_name : string;
  c_broken : bool;
  c_multiproc : (Machine.Placement.policy * int * Machine.Network.config) option;
  c_faulty : bool;
  c_engine : Machine.Config.engine;
  c_topo : Sched.Topology.kind option;
  c_steal : bool;
}

let transforms_suffix (t : Driver.transforms) : string =
  String.concat ""
    (List.filter_map
       (fun (on, name) -> if on then Some ("+" ^ name) else None)
       [
         (t.Driver.value_passing, "value");
         (t.Driver.parallel_reads, "reads");
         (t.Driver.array_parallel, "arrays");
         (t.Driver.istructure, "istructures");
       ])

let combo ?(broken = false) ?multiproc ?(faulty = false) ?topo
    ?(steal = false) ?(engine = Machine.Config.Reference) spec transforms =
  let mp_suffix =
    match multiproc with
    | None -> ""
    | Some (policy, pes, net) ->
        Fmt.str "@p%d-%s%s%s%s%s" pes
          (Machine.Placement.policy_to_string policy)
          (if net = Machine.Network.fast then "-fast" else "")
          (match topo with
          | None -> ""
          | Some k -> "-" ^ Sched.Topology.kind_to_string k)
          (if steal then "+steal" else "")
          (if faulty then "+faults+recover" else "")
  in
  {
    c_spec = spec;
    c_transforms = transforms;
    c_name =
      Driver.spec_to_string spec ^ transforms_suffix transforms ^ mp_suffix
      ^ (match engine with
        | Machine.Config.Reference -> ""
        | Machine.Config.Packed -> "+packed");
    c_broken = broken;
    c_multiproc = multiproc;
    c_faulty = faulty;
    c_engine = engine;
    c_topo = topo;
    c_steal = steal;
  }

let combos_for ?(include_broken = false) (p : Imp.Ast.program) : combo list =
  let aliasing = Analysis.Alias.has_aliasing (Analysis.Alias.of_program p) in
  let t0 = Driver.no_transforms in
  let reads = { t0 with Driver.parallel_reads = true } in
  let value = { t0 with Driver.value_passing = true } in
  let arrays = { t0 with Driver.array_parallel = true } in
  let open Driver in
  let base = [ combo Schema1 t0; combo Schema1 reads ] in
  let s3 =
    [
      combo (Schema3 (Singleton, Engine.Barrier)) t0;
      combo (Schema3 (Classes, Engine.Barrier)) t0;
      combo (Schema3 (Components, Engine.Barrier)) t0;
      combo (Schema3 (Singleton, Engine.Pipelined)) t0;
      combo (Schema3 (Components, Engine.Pipelined)) reads;
    ]
  in
  let s2 =
    if aliasing then []
    else
      [
        combo (Schema2 Engine.Barrier) t0;
        combo (Schema2 Engine.Pipelined) t0;
        combo (Schema2_opt Engine.Barrier) t0;
        combo (Schema2_opt Engine.Pipelined) t0;
        combo (Schema2 Engine.Pipelined) value;
        combo (Schema2 Engine.Pipelined) reads;
        combo (Schema2 Engine.Pipelined) arrays;
        combo (Schema2 Engine.Pipelined) all_transforms;
        combo (Schema2_opt Engine.Pipelined)
          { t0 with Driver.value_passing = true; parallel_reads = true };
      ]
  in
  let broken =
    (* two seeded miscompilations: Figure 8 (loop control omitted;
       alias-free programs only — Schema 2 territory) and the truncated
       cover (meaningful only where aliasing exists to be missed) *)
    (if include_broken && not aliasing then
       [ combo ~broken:true Schema2_unsafe_no_loop_control t0 ]
     else [])
    @
    if include_broken && aliasing then
      [ combo ~broken:true Schema3_unsafe_bad_cover t0 ]
    else []
  in
  (* the multiprocessor tier: the same differential bar — final store
     equal to the reference — with nodes partitioned over PEs and tokens
     crossing a modelled interconnect.  Two placements, two network
     configurations, and the aliasing side covered through Schema 3. *)
  let mp =
    let deflt = Machine.Network.default and fast = Machine.Network.fast in
    [
      combo ~multiproc:(Machine.Placement.Hash, 2, deflt) Schema1 t0;
      combo
        ~multiproc:(Machine.Placement.Affinity, 4, deflt)
        (Schema3 (Classes, Engine.Barrier))
        t0;
    ]
    @
    if aliasing then []
    else
      [
        combo
          ~multiproc:(Machine.Placement.Affinity, 4, deflt)
          (Schema2_opt Engine.Pipelined) t0;
        combo
          ~multiproc:(Machine.Placement.Round_robin, 3, fast)
          (Schema2 Engine.Pipelined) value;
      ]
  in
  (* faulty multiprocessor points: seeded link faults and one seeded PE
     fail-stop under reliable transport + checkpoint/replay — the
     recovered store must still equal the reference, zero divergences.
     Schema 3 keeps the aliasing side covered here too. *)
  let mp_faulty =
    let deflt = Machine.Network.default in
    [
      combo ~faulty:true
        ~multiproc:(Machine.Placement.Hash, 2, deflt)
        (Schema3 (Classes, Engine.Barrier))
        t0;
    ]
    @
    if aliasing then []
    else
      [
        combo ~faulty:true
          ~multiproc:(Machine.Placement.Affinity, 4, deflt)
          (Schema2_opt Engine.Pipelined) t0;
      ]
  in
  (* the scheduling tier: topology-aware interconnects, hierarchical
     placement and work stealing at a PE count the static grid never
     reaches — the differential bar is unchanged, which is precisely
     the determinacy-under-stealing claim.  Schema 3 keeps the aliasing
     side covered. *)
  let mp_sched =
    let deflt = Machine.Network.default in
    [
      combo
        ~multiproc:(Machine.Placement.Hash, 16, deflt)
        ~topo:Sched.Topology.Mesh ~steal:true
        (Schema3 (Classes, Engine.Barrier))
        t0;
    ]
    @
    if aliasing then []
    else
      [
        combo
          ~multiproc:(Machine.Placement.Hier, 16, deflt)
          ~topo:Sched.Topology.Mesh ~steal:true (Schema2_opt Engine.Pipelined)
          t0;
        combo
          ~multiproc:(Machine.Placement.Hier, 8, deflt)
          ~topo:Sched.Topology.Torus (Schema2 Engine.Pipelined) t0;
      ]
  in
  (* the packed-engine tier: the same differential bar again on the
     compiled single-PE core — bit-identical final stores are exactly
     what the packed engine promises.  Fault injection and the
     multiprocessor stay reference-only, so no faulty or multi-PE
     packed points *)
  let packed =
    let pk = combo ~engine:Machine.Config.Packed in
    [ pk Schema1 t0; pk (Schema3 (Classes, Engine.Barrier)) t0 ]
    @
    if aliasing then []
    else
      [
        pk (Schema2 Engine.Pipelined) t0;
        pk (Schema2_opt Engine.Pipelined) all_transforms;
      ]
  in
  base @ s2 @ s3 @ mp @ mp_faulty @ mp_sched @ packed @ broken

type status =
  | Agree
  | Skip of string
  | Fail of string

(* A modest cycle bound: generated structured programs finish orders of
   magnitude below it, while a broken schema's pile-up or livelock is
   cut off quickly. *)
let default_machine =
  { Machine.Config.default with Machine.Config.max_cycles = 200_000 }

let run_combo ?(machine = default_machine) ?(certify_only = false) (c : combo)
    (p : Imp.Ast.program) : status =
  (* certify-only mode: collision detection off, reference comparison
     off — a Fail means the fractional-permission certificate ALONE
     rejected the run.  This is the mode that proves the checker needs
     no ground truth to catch a miscompilation. *)
  let machine = { machine with Machine.Config.engine = c.c_engine } in
  let machine =
    if certify_only then
      { machine with Machine.Config.detect_collisions = false }
    else machine
  in
  (* both the reference store and the compiled graph come from the
     process-global memo: a program's 20+ combos (and any number of
     shrink probes) evaluate the reference once and run the front end /
     per-schema translation once per distinct (spec, transforms) *)
  match Memo.reference ~fuel:1_000_000 p with
  | exception Imp.Eval.Out_of_fuel -> Skip "reference out of fuel"
  | reference -> (
      match Memo.compile ~transforms:c.c_transforms c.c_spec p with
      | exception Cfg.Intervals.Irreducible m -> Skip ("irreducible: " ^ m)
      | exception Driver.Aliasing_unsupported m -> Skip ("aliasing: " ^ m)
      | exception Dfg.Check.Invalid m -> Fail ("ill-formed graph: " ^ m)
      | exception exn -> Fail ("compile: " ^ Printexc.to_string exn)
      | compiled -> (
          let prog =
            {
              Machine.Interp.graph = compiled.Driver.graph;
              layout = compiled.Driver.layout;
            }
          in
          let perm_fail (diag : Machine.Diagnosis.t) =
            match diag.Machine.Diagnosis.permission with
            | [] -> None
            | v :: _ ->
                Some
                  ("permission: "
                  ^ Machine.Permission.violation_to_string v)
          in
          let finish (diag : Machine.Diagnosis.t)
              (memory : Imp.Memory.t) =
            if certify_only then
              match perm_fail diag with Some m -> Fail m | None -> Agree
            else if
              diag.Machine.Diagnosis.verdict <> Machine.Diagnosis.Clean
            then
              Fail
                (Machine.Diagnosis.verdict_to_string
                   diag.Machine.Diagnosis.verdict)
            else
              match perm_fail diag with
              | Some m -> Fail m
              | None ->
                  if not (Imp.Memory.equal reference memory) then
                    Fail
                      (Fmt.str
                         "store mismatch@.reference:@.%a@.machine:@.%a"
                         Imp.Memory.pp reference Imp.Memory.pp memory)
                  else Agree
          in
          let hard_fail (d : Machine.Diagnosis.t) =
            if certify_only then
              match perm_fail d with Some m -> Fail m | None -> Agree
            else
              Fail
                (Machine.Diagnosis.verdict_to_string
                   d.Machine.Diagnosis.verdict)
          in
          match c.c_multiproc with
          | None -> (
              match Machine.Interp.run_report ~config:machine prog with
              | exception exn ->
                  Fail ("machine: " ^ Printexc.to_string exn)
              | Error d -> hard_fail d
              | Ok r ->
                  finish r.Machine.Interp.diagnosis
                    r.Machine.Interp.memory)
          | Some (placement, pes, net) -> (
              (* faulty points derive their whole fault schedule from
                 the program text, so any divergence replays *)
              let faults, recovery =
                if not c.c_faulty then (None, None)
                else
                  let seed =
                    1
                    + (Hashtbl.hash (Imp.Pretty.program_to_string p)
                      land 0xFFFF)
                  in
                  ( Some
                      (Machine.Fault.make
                         (Machine.Fault.spec ~seed ~rate:0.01
                            ~classes:Machine.Fault.link_classes ())),
                    Some
                      (Machine.Recovery.spec
                         ~deaths:
                           (Machine.Recovery.seeded_deaths ~seed ~pes
                              ~window:60)
                         ()) )
              in
              let topo =
                Option.map
                  (fun k -> Sched.Topology.make k ~pes)
                  c.c_topo
              in
              let steal =
                if c.c_steal then Some Sched.Steal.default else None
              in
              match
                Machine.Multiproc.run ~config:machine ~net ~placement
                  ~tree:compiled.Driver.ltree ?topo ?steal ?faults
                  ?recovery ~pes prog
              with
              | exception exn ->
                  Fail ("multiproc: " ^ Printexc.to_string exn)
              | Error d -> hard_fail d
              | Ok r ->
                  finish r.Machine.Multiproc.diagnosis
                    r.Machine.Multiproc.memory)))

let check_program ?machine ?certify_only ?include_broken
    (p : Imp.Ast.program) : (string * status) list =
  List.map
    (fun c -> (c.c_name, run_combo ?machine ?certify_only c p))
    (combos_for ?include_broken p)

(* --- shrinking ------------------------------------------------------- *)

open Imp.Ast

let ( <+> ) = Iter.( <+> )

let is_bool_op = function
  | Lt | Le | Gt | Ge | Eq | Ne | And | Or -> true
  | Add | Sub | Mul | Div | Mod -> false

let rec shrink_expr (e : expr) : expr Iter.t =
  match e with
  | Int 0 | Bool false -> Iter.empty
  | Int n -> Iter.map (fun m -> Int m) (QCheck.Shrink.int n)
  | Bool true -> Iter.return (Bool false)
  | Var _ -> Iter.return (Int 0)
  | Index (x, e1) ->
      Iter.return (Int 0) <+> Iter.return e1
      <+> Iter.map (fun e' -> Index (x, e')) (shrink_expr e1)
  | Binop (op, a, b) ->
      (if is_bool_op op then Iter.of_list [ Bool false; Bool true ]
       else Iter.of_list [ Int 0; a; b ])
      <+> (if op = And || op = Or then Iter.of_list [ a; b ] else Iter.empty)
      <+> Iter.map (fun a' -> Binop (op, a', b)) (shrink_expr a)
      <+> Iter.map (fun b' -> Binop (op, a, b')) (shrink_expr b)
  | Unop (Neg, a) ->
      Iter.of_list [ Int 0; a ]
      <+> Iter.map (fun a' -> Unop (Neg, a')) (shrink_expr a)
  | Unop (Not, a) ->
      Iter.of_list [ Bool false; Bool true ]
      <+> Iter.map (fun a' -> Unop (Not, a')) (shrink_expr a)

let rec shrink_stmt (s : stmt) : stmt Iter.t =
  match s with
  | Skip -> Iter.empty
  | Label _ | Goto _ | Cond_goto _ | Call _ -> Iter.return Skip
  | Assign (lv, e) ->
      Iter.return Skip
      <+> (match lv with
          | Lvar _ -> Iter.empty
          | Lindex (x, i) ->
              Iter.return (Assign (Lvar x, e))
              <+> Iter.map (fun i' -> Assign (Lindex (x, i'), e)) (shrink_expr i))
      <+> Iter.map (fun e' -> Assign (lv, e')) (shrink_expr e)
  | Seq (a, b) ->
      Iter.of_list [ a; b ]
      <+> Iter.map (fun a' -> Seq (a', b)) (shrink_stmt a)
      <+> Iter.map (fun b' -> Seq (a, b')) (shrink_stmt b)
  | If (e, a, b) ->
      Iter.of_list [ a; b ]
      <+> Iter.map (fun a' -> If (e, a', b)) (shrink_stmt a)
      <+> Iter.map (fun b' -> If (e, a, b')) (shrink_stmt b)
      <+> Iter.map (fun e' -> If (e', a, b)) (shrink_expr e)
  | While (e, a) ->
      Iter.return Skip
      <+> Iter.map (fun a' -> While (e, a')) (shrink_stmt a)
      <+> Iter.map (fun e' -> While (e', a)) (shrink_expr e)
  | Case (e, arms, default) ->
      Iter.of_list (default :: List.map snd arms)
      <+> Iter.of_list
            (List.mapi
               (fun i _ ->
                 Case (e, List.filteri (fun j _ -> j <> i) arms, default))
               arms)
      <+> Iter.map (fun e' -> Case (e', arms, default)) (shrink_expr e)
      <+> Iter.map (fun d' -> Case (e, arms, d')) (shrink_stmt default)

let rec strip_calls = function
  | Call _ -> Skip
  | Seq (a, b) -> Seq (strip_calls a, strip_calls b)
  | If (e, a, b) -> If (e, strip_calls a, strip_calls b)
  | While (e, a) -> While (e, strip_calls a)
  | Case (e, arms, d) ->
      Case (e, List.map (fun (k, s) -> (k, strip_calls s)) arms, strip_calls d)
  | s -> s

let shrink_program (p : program) : program Iter.t =
  let decls =
    (if p.procs <> [] then
       Iter.return { p with procs = []; body = strip_calls p.body }
     else Iter.empty)
    <+> (if p.equiv <> [] then Iter.return { p with equiv = [] } else Iter.empty)
    <+> (if p.may_alias <> [] then Iter.return { p with may_alias = [] }
         else Iter.empty)
    <+>
    let used = stmt_vars_acc p.body [] in
    let used =
      List.fold_left (fun acc pr -> stmt_vars_acc pr.pbody acc) used p.procs
    in
    Iter.of_list
      (List.filter_map
         (fun (x, _) ->
           if List.mem x used then None
           else
             Some
               { p with arrays = List.filter (fun (y, _) -> y <> x) p.arrays })
         p.arrays)
  in
  decls <+> Iter.map (fun b -> { p with body = b }) (shrink_stmt p.body)

let well_typed (p : program) : bool =
  match Imp.Typecheck.check_program p with
  | () -> true
  | exception _ -> false

let minimize (fails : program -> bool) (p0 : program) : program * int =
  let steps = ref 0 in
  let rec go p budget =
    if budget <= 0 then p
    else
      match
        Iter.find (fun q -> well_typed q && fails q) (shrink_program p)
      with
      | Some q ->
          incr steps;
          go q (budget - 1)
      | None -> p
  in
  let minimal = go p0 400 in
  (minimal, !steps)

(* --- selfcheck ------------------------------------------------------- *)

type divergence = {
  dv_index : int;
  dv_combo : string;
  dv_reason : string;
  dv_program : Imp.Ast.program;
  dv_shrunk : Imp.Ast.program;
  dv_steps : int;
}

type report = {
  r_seed : int;
  r_count : int;
  r_agreements : int;
  r_skips : int;
  r_matrix : (string * int) list;
  r_divergences : divergence list;
  r_broken_caught : divergence list;
}

let selfcheck ?(gen = Workloads.Random_gen.default_config) ?machine
    ?certify_only ?(include_broken = false) ?(max_shrunk = 3) ?(jobs = 1)
    ~seed ~count () : report =
  let rand = Random.State.make [| seed |] in
  let agreements = ref 0 in
  let skips = ref 0 in
  let matrix : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let matrix_order = ref [] in
  let divergences = ref [] in
  let broken_caught = ref [] in
  let bump name =
    if not (Hashtbl.mem matrix name) then
      matrix_order := name :: !matrix_order;
    Hashtbl.replace matrix name
      (1 + (try Hashtbl.find matrix name with Not_found -> 0))
  in
  (* The whole (program x combo) grid is materialised up front — random
     generation stays a single sequential draw from [rand] — and then
     submitted as one batch to the domain pool.  run_combo is pure
     modulo the single-flight memo, so statuses are independent of
     scheduling; folding them back in submission order makes the report
     (matrix order, shrink budget consumption) identical at any [jobs],
     including the sequential jobs=1 of the original loop. *)
  let grid =
    Array.concat
      (List.init count (fun index ->
           let p = Workloads.Random_gen.structured ~config:gen rand in
           Array.of_list
             (List.map (fun c -> (index, p, c)) (combos_for ~include_broken p))))
  in
  let statuses =
    Service.Pool.map ~jobs
      (fun (_, p, c) -> run_combo ?machine ?certify_only c p)
      grid
  in
  Array.iteri
    (fun i st ->
      let index, p, c = grid.(i) in
      let st =
        match st with Ok st -> st | Error f -> Service.Pool.reraise f
      in
      match st with
      | Agree ->
          bump c.c_name;
          incr agreements
      | Skip _ -> incr skips
      | Fail reason ->
          bump c.c_name;
          let bucket = if c.c_broken then broken_caught else divergences in
          (* shrinking stays sequential, after the parallel phase: it
             consumes the bounded per-bucket budget in grid order *)
          let shrunk, steps =
            if List.length !bucket < max_shrunk then
              minimize
                (fun q ->
                  match run_combo ?machine ?certify_only c q with
                  | Fail _ -> true
                  | Agree | Skip _ -> false)
                p
            else (p, 0)
          in
          bucket :=
            {
              dv_index = index;
              dv_combo = c.c_name;
              dv_reason = reason;
              dv_program = p;
              dv_shrunk = shrunk;
              dv_steps = steps;
            }
            :: !bucket)
    statuses;
  {
    r_seed = seed;
    r_count = count;
    r_agreements = !agreements;
    r_skips = !skips;
    r_matrix =
      List.rev_map
        (fun name -> (name, Hashtbl.find matrix name))
        !matrix_order;
    r_divergences = List.rev !divergences;
    r_broken_caught = List.rev !broken_caught;
  }

let pp_divergence ppf (d : divergence) =
  Fmt.pf ppf "program %d under %s: %s@." d.dv_index d.dv_combo d.dv_reason;
  Fmt.pf ppf "minimal reproducer (%d shrink steps, size %d -> %d):@."
    d.dv_steps
    (Imp.Ast.stmt_size d.dv_program.Imp.Ast.body)
    (Imp.Ast.stmt_size d.dv_shrunk.Imp.Ast.body);
  Fmt.pf ppf "%s@." (Imp.Pretty.program_to_string d.dv_shrunk)

let pp_report ppf (r : report) =
  Fmt.pf ppf "selfcheck: seed %d, %d programs@." r.r_seed r.r_count;
  Fmt.pf ppf "schema-agreement matrix (combo -> programs exercised):@.";
  List.iter
    (fun (name, n) -> Fmt.pf ppf "  %-36s %4d@." name n)
    r.r_matrix;
  Fmt.pf ppf "%d agreements, %d skips, %d divergences, %d broken-schema catches@."
    r.r_agreements r.r_skips
    (List.length r.r_divergences)
    (List.length r.r_broken_caught);
  List.iter
    (fun d -> Fmt.pf ppf "@.DIVERGENCE: %a" pp_divergence d)
    r.r_divergences;
  List.iter
    (fun d -> Fmt.pf ppf "@.broken schema caught: %a" pp_divergence d)
    r.r_broken_caught

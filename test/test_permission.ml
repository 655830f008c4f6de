(* The fractional-permission certificate: unit tests for the exact
   rational arithmetic and bag algebra, plus the central soundness
   property — on random programs, under a rotating schema, at p=1 and
   p=4 under both placements, with and without seeded link faults and
   one PE fail-stop, any run that lands on the reference store must
   carry a clean certificate.  Zero false positives is what makes the
   checker usable as a per-run gate. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

module Perm = Machine.Permission
module Frac = Machine.Permission.Frac
module P = Machine.Placement
module MP = Machine.Multiproc
module F = Machine.Fault
module R = Machine.Recovery

(* ------------------------------------------------------------------ *)
(* Exact rationals                                                    *)

let test_frac_basics () =
  checkb "one is one" true (Frac.is_one Frac.one);
  checkb "one is positive" true (Frac.positive Frac.one);
  checkb "zero is zero" true (Frac.is_zero Frac.zero);
  checkb "zero not positive" false (Frac.positive Frac.zero);
  let third = Frac.div_int Frac.one 3 in
  checkb "1/3 positive" true (Frac.positive third);
  checkb "1/3 not one" false (Frac.is_one third);
  checks "1/3 renders" "1/3" (Frac.to_string third);
  checks "1 renders" "1" (Frac.to_string Frac.one)

let test_frac_split_rejoin () =
  (* splitting into n equal parts and adding them back is exact: no
     floating-point leakage, which is the whole point of rationals *)
  List.iter
    (fun n ->
      let part = Frac.div_int Frac.one n in
      let total = ref Frac.zero in
      for _ = 1 to n do
        total := Frac.add !total part
      done;
      checkb (Fmt.str "n=%d rejoins to one" n) true (Frac.is_one !total))
    [ 2; 3; 4; 7; 12; 60 ];
  (* uneven recombination: 1/2 + 1/3 + 1/6 = 1 *)
  let half = Frac.div_int Frac.one 2
  and third = Frac.div_int Frac.one 3
  and sixth = Frac.div_int Frac.one 6 in
  checkb "1/2+1/3+1/6 = 1" true
    (Frac.is_one (Frac.add half (Frac.add third sixth)))

(* ------------------------------------------------------------------ *)
(* Permission bags                                                    *)

let test_bag_join () =
  let half = Frac.div_int Frac.one 2 in
  (match Perm.join [ (0, half) ] [ (0, half) ] with
  | [ (0, f) ] -> checkb "halves rejoin" true (Frac.is_one f)
  | _ -> Alcotest.fail "join of matching elements must merge");
  (match Perm.join [ (1, half) ] [ (0, half) ] with
  | [ (0, _); (1, _) ] -> ()
  | _ -> Alcotest.fail "join must keep elements sorted");
  checkb "empty is neutral" true (Perm.join Perm.empty_bag [ (2, half) ] = [ (2, half) ]);
  (match Perm.join_all [ [ (0, Frac.div_int Frac.one 3) ]; [ (0, Frac.div_int Frac.one 3) ]; [ (0, Frac.div_int Frac.one 3) ] ] with
  | [ (0, f) ] -> checkb "thirds rejoin" true (Frac.is_one f)
  | _ -> Alcotest.fail "join_all of matching elements must merge")

let test_bag_render () =
  let names = [| "access_M"; "access_x" |] in
  checks "empty bag" "{}" (Perm.bag_to_string names Perm.empty_bag);
  checks "full bag" "{access_M:1, access_x:1/2}"
    (Perm.bag_to_string names
       [ (0, Frac.one); (1, Frac.div_int Frac.one 2) ])

(* ------------------------------------------------------------------ *)
(* End-to-end: certified runs on a known program                      *)

let compile spec src =
  Dflow.Driver.compile_string spec src

let sum_src = "s := 0 i := 1 while i <= 5 do s := s + i; i := i + 1 end"

let test_certified_clean_run () =
  List.iter
    (fun (name, spec) ->
      let c = compile spec sum_src in
      let r =
        Machine.Interp.run
          { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout }
      in
      checkb (name ^ " completed") true r.Machine.Interp.completed;
      let d = r.Machine.Interp.diagnosis in
      checkb (name ^ " certified") true
        (d.Machine.Diagnosis.certified <> None);
      checki (name ^ " no violations") 0
        (List.length d.Machine.Diagnosis.permission);
      match d.Machine.Diagnosis.certified with
      | Some (_, chk) -> checkb (name ^ " checked something") true (chk > 0)
      | None -> ())
    [
      ("schema1", Dflow.Driver.Schema1);
      ("schema2", Dflow.Driver.Schema2 Dflow.Engine.Barrier);
      ("schema2-opt", Dflow.Driver.Schema2_opt Dflow.Engine.Barrier);
      ( "schema3-classes",
        Dflow.Driver.Schema3 (Dflow.Driver.Classes, Dflow.Engine.Barrier) );
    ]

let test_uncertified_when_stripped () =
  let c = compile (Dflow.Driver.Schema2 Dflow.Engine.Barrier) sum_src in
  let r =
    Machine.Interp.run
      {
        Machine.Interp.graph = { c.Dflow.Driver.graph with Dfg.Graph.cert = None };
        layout = c.Dflow.Driver.layout;
      }
  in
  checkb "still completes" true r.Machine.Interp.completed;
  checkb "uncertified" true
    (r.Machine.Interp.diagnosis.Machine.Diagnosis.certified = None)

(* certificate-only detection of both seeded miscompilations: with
   collision detection off and the reference store never compared, the
   permission checker alone must reject the Figure 8 pathology (token
   collision destroys permission the quiescence account misses) and the
   truncated-cover variant (a memory operation fires without the aliased
   element's permission) — while certifying every sound combo on the
   same programs (zero false positives) *)
let test_broken_caught_by_certificate_alone () =
  let gen =
    { Workloads.Random_gen.default_config with allow_alias = true }
  in
  let r =
    Dflow.Oracle.selfcheck ~gen ~certify_only:true ~include_broken:true
      ~max_shrunk:0 ~seed:2 ~count:7 ()
  in
  checki "no false certificate rejections" 0
    (List.length r.Dflow.Oracle.r_divergences);
  let caught_under prefix =
    List.exists
      (fun d ->
        let n = d.Dflow.Oracle.dv_combo in
        String.length n >= String.length prefix
        && String.sub n 0 (String.length prefix) = prefix)
      r.Dflow.Oracle.r_broken_caught
  in
  checkb "fig8 caught by the certificate alone" true
    (caught_under "schema2-no-loop-control");
  checkb "bad cover caught by the certificate alone" true
    (caught_under "schema3-bad-cover")

(* ------------------------------------------------------------------ *)
(* The soundness property                                             *)

let gen_cfg =
  {
    Workloads.Random_gen.default_config with
    num_vars = 4;
    num_arrays = 1;
    array_extent = 4;
    max_depth = 2;
    max_len = 3;
    loop_bound = 3;
    allow_alias = true;
  }

let arb_program =
  QCheck.make ~print:Imp.Pretty.program_to_string
    (Workloads.Random_gen.structured ~config:gen_cfg)

(* rotate deterministically through every certified schema; fall back to
   the aliasing-sound or universally applicable ones where needed *)
let rotating_specs =
  Dflow.Driver.
    [
      Schema1;
      Schema2 Dflow.Engine.Barrier;
      Schema2 Dflow.Engine.Pipelined;
      Schema2_opt Dflow.Engine.Barrier;
      Schema3 (Singleton, Dflow.Engine.Barrier);
      Schema3 (Classes, Dflow.Engine.Barrier);
      Schema3 (Components, Dflow.Engine.Barrier);
    ]

let compile_rotating (p : Imp.Ast.program) : Dflow.Driver.compiled =
  let i =
    Hashtbl.hash (Imp.Pretty.program_to_string p) mod List.length rotating_specs
  in
  match Dflow.Driver.compile (List.nth rotating_specs i) p with
  | c -> c
  | exception Dflow.Driver.Aliasing_unsupported _ ->
      Dflow.Driver.compile
        (Dflow.Driver.Schema3 (Dflow.Driver.Classes, Dflow.Engine.Barrier)) p
  | exception Cfg.Intervals.Irreducible _ ->
      Dflow.Driver.compile Dflow.Driver.Schema1 p

(* certificate soundness: a run that reproduces the reference store must
   certify cleanly — any standing violation on a store-correct run is a
   false positive *)
let certificate_ok (d : Machine.Diagnosis.t) reference mem =
  (not (Imp.Memory.equal reference mem)) || d.Machine.Diagnosis.permission = []

let prop_certificate_sound (p : Imp.Ast.program) =
  let reference = Imp.Eval.run_program ~fuel:1_000_000 p in
  let c = compile_rotating p in
  let prog =
    { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout }
  in
  (* the rotation only picks schemas the driver certifies *)
  let certified = c.Dflow.Driver.graph.Dfg.Graph.cert <> None in
  let single pes =
    let config = { Machine.Config.default with Machine.Config.pes } in
    let r = Machine.Interp.run ~config prog in
    certificate_ok r.Machine.Interp.diagnosis reference r.Machine.Interp.memory
  in
  let multi ~faulty policy =
    let seed = 1 + (Hashtbl.hash (Imp.Pretty.program_to_string p) land 0xFFFF) in
    let faults =
      if faulty then
        Some (F.make (F.spec ~rate:0.01 ~classes:F.link_classes ~seed ()))
      else None
    in
    let recovery =
      if faulty then
        Some
          (R.spec ~interval:40 ~deaths:(R.seeded_deaths ~seed ~pes:4 ~window:60) ())
      else None
    in
    match MP.run ~placement:policy ~pes:4 ?faults ?recovery prog with
    | Ok r -> certificate_ok r.MP.diagnosis reference r.MP.memory
    | Error d ->
        (* an aborted run never reproduced the store; nothing to claim *)
        ignore (d : Machine.Diagnosis.t);
        true
  in
  certified
  && single (Some 1)
  && single None
  && List.for_all (fun pl -> multi ~faulty:false pl) [ P.Hash; P.Affinity ]
  && List.for_all (fun pl -> multi ~faulty:true pl) [ P.Hash; P.Affinity ]

let qcheck_certificate =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0xCE27 |])
    (QCheck.Test.make
       ~name:
         "certificate holds whenever the store matches (random programs, \
          rotating schemas, p=1/4, faults, fail-stop)"
       ~count:100 arb_program prop_certificate_sound)

let () =
  Alcotest.run "permission"
    [
      ( "frac",
        [
          Alcotest.test_case "basics" `Quick test_frac_basics;
          Alcotest.test_case "split/rejoin exact" `Quick test_frac_split_rejoin;
        ] );
      ( "bags",
        [
          Alcotest.test_case "join" `Quick test_bag_join;
          Alcotest.test_case "render" `Quick test_bag_render;
        ] );
      ( "certified-runs",
        [
          Alcotest.test_case "clean on every schema" `Quick
            test_certified_clean_run;
          Alcotest.test_case "stripped graph is uncertified" `Quick
            test_uncertified_when_stripped;
          Alcotest.test_case "broken schemas caught by certificate alone" `Slow
            test_broken_caught_by_certificate_alone;
        ] );
      ("property", [ qcheck_certificate ]);
    ]

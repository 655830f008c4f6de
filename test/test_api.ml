(* Direct unit tests for small public-API surfaces that the integration
   suites exercise only indirectly: token universes, pretty-printers,
   statistics strings, spec names, and the names docs/PAPER_MAP.md
   cites. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Token universes                                                    *)

let test_token_single () =
  let t = Dflow.Token_map.single in
  checki "arity" 1 (Dflow.Token_map.arity t);
  Alcotest.(check (list int)) "access set" [ 0 ] (t.Dflow.Token_map.access_set "anything");
  Alcotest.(check (list int)) "all" [ 0 ] (Dflow.Token_map.all t)

let test_token_per_variable () =
  let t = Dflow.Token_map.per_variable [ "b"; "a"; "b" ] in
  checki "dedup + sort" 2 (Dflow.Token_map.arity t);
  checks "name" "access_a" (Dflow.Token_map.name t 0);
  Alcotest.(check (list int)) "a" [ 0 ] (t.Dflow.Token_map.access_set "a");
  Alcotest.(check (list int)) "b" [ 1 ] (t.Dflow.Token_map.access_set "b");
  (match t.Dflow.Token_map.access_set "zz" with
  | _ -> Alcotest.fail "expected invalid_arg"
  | exception Invalid_argument _ -> ());
  (* degenerate: empty pool falls back to the single token *)
  checki "empty pool" 1 (Dflow.Token_map.arity (Dflow.Token_map.per_variable []))

let test_token_of_cover () =
  let alias =
    Analysis.Alias.of_pairs [ "x"; "y"; "z" ] ~equiv:[]
      ~may_alias:[ ("x", "z"); ("y", "z") ]
  in
  let t = Dflow.Token_map.of_cover alias (Analysis.Cover.singleton alias) in
  checki "arity = |V|" 3 (Dflow.Token_map.arity t);
  (* ops on z collect all three singleton tokens *)
  checki "z collects 3" 3 (List.length (t.Dflow.Token_map.access_set "z"));
  checki "x collects 2" 2 (List.length (t.Dflow.Token_map.access_set "x"));
  Alcotest.(check (list int))
    "union over x,y" [ 0; 1; 2 ]
    (Dflow.Token_map.vars_to_tokens t [ "x"; "y" ])

(* ------------------------------------------------------------------ *)
(* Printers and names                                                 *)

let test_context_to_string () =
  let c = Machine.Context.enter (Machine.Context.enter Machine.Context.toplevel) in
  let c = Machine.Context.next c in
  checks "nested" "<0.1>" (Machine.Context.to_string c);
  checks "toplevel" "<>" (Machine.Context.to_string Machine.Context.toplevel)

let test_value_printing () =
  checks "int" "-3" (Imp.Value.to_string (Imp.Value.Int (-3)));
  checks "bool" "true" (Imp.Value.to_string (Imp.Value.Bool true));
  checkb "equal" true (Imp.Value.equal (Imp.Value.Int 5) (Imp.Value.Int 5));
  checkb "kind mismatch" false
    (Imp.Value.equal (Imp.Value.Int 1) (Imp.Value.Bool true))

let test_spec_names_distinct () =
  let specs =
    Dflow.Driver.
      [
        Schema1;
        Schema2 Dflow.Engine.Barrier;
        Schema2 Dflow.Engine.Pipelined;
        Schema2_unsafe_no_loop_control;
        Schema3 (Singleton, Dflow.Engine.Barrier);
        Schema3 (Classes, Dflow.Engine.Barrier);
        Schema3 (Components, Dflow.Engine.Barrier);
        Schema2_opt Dflow.Engine.Barrier;
        Schema2_opt Dflow.Engine.Pipelined;
      ]
  in
  let names = List.map Dflow.Driver.spec_to_string specs in
  checki "all distinct" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_stats_to_string () =
  let c =
    Dflow.Driver.compile (Dflow.Driver.Schema2 Dflow.Engine.Barrier)
      (Imp.Factory.running_example ())
  in
  let s = Dfg.Stats.to_string (Dfg.Stats.of_graph c.Dflow.Driver.graph) in
  checkb "mentions switches" true
    (let rec has i =
       i + 8 <= String.length s && (String.sub s i 8 = "switches" || has (i + 1))
     in
     has 0)

let test_cover_pp () =
  let alias = Analysis.Alias.identity [ "a"; "b" ] in
  checks "singleton render" "{{a}; {b}}"
    (Fmt.str "%a" Analysis.Cover.pp (Analysis.Cover.singleton alias))

let test_kind_to_string_total () =
  (* every node kind renders without raising *)
  List.iter
    (fun k -> checkb "nonempty" true (String.length (Dfg.Node.kind_to_string k) > 0))
    [
      Dfg.Node.Start 1;
      Dfg.Node.End 1;
      Dfg.Node.Const (Imp.Value.Int 0);
      Dfg.Node.Binop Imp.Ast.And;
      Dfg.Node.Unop Imp.Ast.Neg;
      Dfg.Node.Id;
      Dfg.Node.Sink;
      Dfg.Node.Load { var = "v"; indexed = false; mem = Dfg.Node.I_structure };
      Dfg.Node.Store { var = "v"; indexed = true; mem = Dfg.Node.Plain };
      Dfg.Node.Switch;
      Dfg.Node.Merge;
      Dfg.Node.Synch 2;
      Dfg.Node.Loop_entry { loop = 0; arity = 1 };
      Dfg.Node.Loop_exit { loop = 0; arity = 1 };
    ]

let test_avg_parallelism () =
  let c =
    Dflow.Driver.compile (Dflow.Driver.Schema2 Dflow.Engine.Barrier)
      (Imp.Factory.independent_straightline ~k:4 ())
  in
  let r =
    Machine.Interp.run_exn ~config:Machine.Config.ideal
      { Machine.Interp.graph = c.Dflow.Driver.graph; layout = c.Dflow.Driver.layout }
  in
  let avg = Machine.Interp.avg_parallelism r in
  checkb "avg = firings / cycles" true
    (abs_float
       (avg
       -. float_of_int r.Machine.Interp.firings
          /. float_of_int r.Machine.Interp.cycles)
    < 1e-9);
  (* firings by kind sums to total *)
  checki "kind sum" r.Machine.Interp.firings
    (List.fold_left (fun a (_, n) -> a + n) 0 r.Machine.Interp.firings_by_kind)

(* ------------------------------------------------------------------ *)
(* docs/PAPER_MAP.md cites only names that exist                      *)

(* the libraries under lib/, by OCaml name *)
let libraries =
  [
    ("Analysis", "analysis"); ("Cfg", "cfg"); ("Dflow", "core"); ("Dfg", "dfg");
    ("Imp", "imp"); ("Machine", "machine"); ("Sched", "sched");
    ("Serve", "service"); ("Service", "service"); ("Ssa", "ssa");
    ("Workloads", "workloads");
  ]

let read path = In_channel.with_open_bin path In_channel.input_all

let root =
  List.find_opt
    (fun r -> Sys.file_exists (Filename.concat r "docs/PAPER_MAP.md"))
    [ ".."; "." ]
  |> Option.value ~default:".."

(* the interface of module [m] in one of [dirs]: its .mli, or its .ml
   when it has none *)
let interface dirs m =
  List.find_map
    (fun dir ->
      List.find_opt Sys.file_exists
        (List.map
           (fun ext ->
             Filename.concat root
               (Fmt.str "lib/%s/%s%s" dir (String.uncapitalize_ascii m) ext))
           [ ".mli"; ".ml" ]))
    dirs

(* the identifiers and one-character symbols of OCaml source, comments
   and string literals dropped *)
let tokens src =
  let n = String.length src in
  let ident c =
    match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false
  in
  let rec go i depth acc =
    if i >= n then List.rev acc
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then go (i + 2) (depth + 1) acc
    else if i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' && depth > 0 then
      go (i + 2) (depth - 1) acc
    else if depth > 0 then go (i + 1) depth acc
    else if src.[i] = '"' then
      let j = ref (i + 1) in
      while !j < n && src.[!j] <> '"' do
        if src.[!j] = '\\' then incr j;
        incr j
      done;
      go (!j + 1) depth acc
    else if ident src.[i] then begin
      let j = ref i in
      while !j < n && ident src.[!j] do incr j done;
      go !j depth (String.sub src i (!j - i) :: acc)
    end
    else if src.[i] = ' ' || src.[i] = '\n' || src.[i] = '\t' then go (i + 1) depth acc
    else go (i + 1) depth (String.make 1 src.[i] :: acc)
  in
  go 0 0 []

(* [name] is declared in [toks] as a value, type, exception, module,
   constructor or record field *)
let declares toks name =
  let toks = Array.of_list toks in
  let n = Array.length toks in
  let rec after_params i =
    (* skip back over a type's parameters: 'a, ('a, 'b), +'a *)
    if i >= 0 && (toks.(i).[0] = '\'' || List.mem toks.(i) [ ","; "("; ")"; "+"; "-" ])
    then after_params (i - 1)
    else i
  in
  let at i =
    toks.(i) = name
    && i > 0
    &&
    let prev = toks.(i - 1) in
    List.mem prev [ "val"; "external"; "exception"; "module" ]
    || (name.[0] >= 'A' && name.[0] <= 'Z' && List.mem prev [ "|"; "=" ])
    || (i + 1 < n && toks.(i + 1) = ":" && List.mem prev [ "{"; ";"; "mutable" ])
    || (let j = after_params (i - 1) in
        j >= 0 && List.mem toks.(j) [ "type"; "and" ])
  in
  List.exists at (List.init n Fun.id)

(* the backticked dotted names of the map: [Lib.Module.name],
   [Module.name] or [Lib.Module] *)
let cited_names () =
  let text = read (Filename.concat root "docs/PAPER_MAP.md") in
  let dotted s =
    String.length s > 0
    && s.[0] >= 'A' && s.[0] <= 'Z'
    && String.contains s '.'
    && String.for_all
         (fun c ->
           match c with
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' | '.' -> true
           | _ -> false)
         s
    && List.for_all (fun p -> p <> "") (String.split_on_char '.' s)
  in
  List.filteri (fun i _ -> i mod 2 = 1) (String.split_on_char '`' text)
  |> List.filter dotted
  |> List.sort_uniq compare

let test_paper_map_names () =
  let unresolved =
    List.filter
      (fun name ->
        let dirs, m, rest =
          match String.split_on_char '.' name with
          | lib :: m :: rest when List.mem_assoc lib libraries ->
              ([ List.assoc lib libraries ], m, rest)
          | m :: rest -> (List.map snd libraries, m, rest)
          | [] -> assert false
        in
        match (interface dirs m, List.rev rest) with
        | None, _ -> true
        | Some _, [] -> false
        | Some file, last :: _ -> not (declares (tokens (read file)) last))
      (cited_names ())
  in
  checkb "the map cites names" true (List.length (cited_names ()) > 30);
  Alcotest.(check (list string)) "names that resolve to no declaration" [] unresolved

let () =
  Alcotest.run "api"
    [
      ( "token universes",
        [
          Alcotest.test_case "single" `Quick test_token_single;
          Alcotest.test_case "per variable" `Quick test_token_per_variable;
          Alcotest.test_case "of cover" `Quick test_token_of_cover;
        ] );
      ( "printers",
        [
          Alcotest.test_case "context" `Quick test_context_to_string;
          Alcotest.test_case "values" `Quick test_value_printing;
          Alcotest.test_case "spec names distinct" `Quick test_spec_names_distinct;
          Alcotest.test_case "stats string" `Quick test_stats_to_string;
          Alcotest.test_case "cover render" `Quick test_cover_pp;
          Alcotest.test_case "node kinds render" `Quick test_kind_to_string_total;
        ] );
      ( "metrics",
        [ Alcotest.test_case "average parallelism" `Quick test_avg_parallelism ] );
      ( "docs",
        [ Alcotest.test_case "paper map names resolve" `Quick test_paper_map_names ] );
    ]

(* The line-delimited JSON job server (see the interface). *)

module J = Machine.Json

let ok_result id op fields : J.t =
  J.Assoc
    (("id", J.Int id) :: ("op", J.String op) :: ("ok", J.Bool true) :: fields)

let error_result id msg : J.t =
  J.Assoc [ ("id", J.Int id); ("ok", J.Bool false); ("error", J.String msg) ]

let spec_of_string = Job.spec_of_string

(* --- operations ------------------------------------------------------- *)

let op_job id name op j =
  match Job.reply (Job.of_json op j) with
  | Ok fields -> ok_result id name fields
  | Error msg -> error_result id msg

let op_selfcheck_combo id j =
  let source = Job.source j in
  let broken = Option.value ~default:false (Job.field Job.switch j "broken") in
  let p = Dflow.Memo.parse_source source in
  let combos = Dflow.Oracle.combos_for ~include_broken:broken p in
  let combos =
    match Job.field Job.text j "combo" with
    | None -> combos
    | Some name -> (
        match List.filter (fun c -> c.Dflow.Oracle.c_name = name) combos with
        | [] ->
            raise
              (Job.Invalid
                 (Printf.sprintf "no combo named %S for this program" name))
        | cs -> cs)
  in
  let failures = ref 0 in
  let results =
    List.map
      (fun c ->
        let status, reason =
          match Dflow.Oracle.run_combo c p with
          | Dflow.Oracle.Agree -> ("agree", None)
          | Dflow.Oracle.Skip m -> ("skip", Some m)
          | Dflow.Oracle.Fail m ->
              if not c.Dflow.Oracle.c_broken then incr failures;
              ("fail", Some m)
        in
        J.Assoc
          ([
             ("combo", J.String c.Dflow.Oracle.c_name);
             ("status", J.String status);
           ]
          @ match reason with None -> [] | Some m -> [ ("reason", J.String m) ]))
      combos
  in
  ok_result id "selfcheck-combo"
    [
      ("combos", J.Int (List.length combos));
      ("divergences", J.Int !failures);
      ("results", J.List results);
    ]

let stats_result id : J.t =
  let s = Dflow.Memo.stats () in
  let level (name, (l : Service.Cache.stats)) =
    ( name,
      J.Assoc
        [
          ("entries", J.Int l.Service.Cache.size);
          ("bytes", J.Int l.Service.Cache.bytes);
          ("budget", J.Int l.Service.Cache.budget);
          ("evictions", J.Int l.Service.Cache.evictions);
        ] )
  in
  ok_result id "stats"
    [
      ("hits", J.Int s.Service.Cache.hits);
      ("misses", J.Int s.Service.Cache.misses);
      ("evictions", J.Int s.Service.Cache.evictions);
      ("hit_rate", J.Float (Service.Cache.hit_rate s));
      ("levels", J.Assoc (List.map level (Dflow.Memo.levels ())));
    ]

(* --- dispatch --------------------------------------------------------- *)

let id_of index j =
  Option.value ~default:index (Option.bind (J.member "id" j) J.to_int_opt)

let dispatch index (j : J.t) : J.t =
  let id = id_of index j in
  try
    match Option.bind (J.member "op" j) J.to_string_opt with
    | Some "compile" -> op_job id "compile" Job.Compile j
    | Some "run" -> op_job id "run" Job.Run j
    | Some "simulate" -> op_job id "simulate" Job.Simulate j
    | Some "selfcheck-combo" -> op_selfcheck_combo id j
    | Some "stats" -> stats_result id
    | None -> error_result id "missing field \"op\""
    | Some other ->
        error_result id
          (Printf.sprintf
             "unknown op %S (valid: compile, run, simulate, selfcheck-combo, \
              stats)"
             other)
  with e -> error_result id (Job.message e)

let oversized_result index ~bytes ~limit : J.t =
  error_result index
    (Printf.sprintf "line too long: %d bytes (limit %d, see --max-line-bytes)"
       bytes limit)

(* A parsed batch entry.  [stats] jobs are answered after every other
   job has completed: with the single-flight cache the counters are then
   a pure function of the batch content, so the whole output stream
   stays byte-identical at any jobs setting. *)
type entry =
  | Immediate of J.t  (** malformed / non-object: already an error *)
  | Stats of int  (** resolved post-batch *)
  | Job of J.t

let classify index line : entry =
  match J.of_string line with
  | exception J.Parse_error m ->
      Immediate (error_result index (Printf.sprintf "malformed request: %s" m))
  | J.Assoc _ as j -> (
      match J.member "op" j with
      | Some (J.String "stats") -> Stats (id_of index j)
      | _ -> Job j)
  | _ -> Immediate (error_result index "request must be a JSON object")

let request_id (index : int) (line : string) : int =
  match classify index line with
  | Job j -> id_of index j
  | Stats id -> id
  | Immediate _ -> index

let handle_line (index : int) (line : string) : J.t =
  match classify index line with
  | Immediate r -> r
  | Stats id -> stats_result id
  | Job j -> dispatch index j

let run_batch ?jobs ?(max_line_bytes = Service.Framing.default_max_line_bytes)
    (lines : string list) : string list =
  let classify index line =
    if String.length line > max_line_bytes then
      Immediate
        (oversized_result index ~bytes:(String.length line)
           ~limit:max_line_bytes)
    else classify index line
  in
  let entries = Array.of_list (List.mapi classify lines) in
  let results =
    Service.Pool.map ?jobs
      (fun (index, entry) ->
        match entry with
        | Job j -> dispatch index j
        | Immediate r -> r
        | Stats _ -> J.Null (* placeholder; filled in below *))
      (Array.mapi (fun i e -> (i, e)) entries)
  in
  (* dispatch never raises, so Error here would be a pool bug; surface
     it as a per-job error all the same *)
  let results =
    Array.mapi
      (fun i r ->
        match (entries.(i), r) with
        | Stats id, _ -> stats_result id
        | _, Ok v -> v
        | _, Error f -> error_result i (Service.Pool.failure_to_string f))
      results
  in
  Array.to_list (Array.map J.to_string results)

let serve ?jobs ?(max_line_bytes = Service.Framing.default_max_line_bytes)
    (ic : in_channel) (oc : out_channel) : unit =
  (* an oversized line's payload was discarded at read time (memory
     stays bounded); it rides through the batch as an empty placeholder
     and its result line is substituted on the way out *)
  let rec read acc =
    match Service.Framing.input ~max_bytes:max_line_bytes ic with
    | Service.Framing.Eof -> List.rev acc
    | Service.Framing.Line l -> read (`Line l :: acc)
    | Service.Framing.Truncated bytes -> read (`Oversized bytes :: acc)
  in
  let items = read [] in
  let lines =
    List.map (function `Line l -> l | `Oversized _ -> "") items
  in
  let results = run_batch ?jobs ~max_line_bytes lines in
  List.iteri
    (fun i (item, result) ->
      let l =
        match item with
        | `Line _ -> result
        | `Oversized bytes ->
            J.to_string (oversized_result i ~bytes ~limit:max_line_bytes)
      in
      output_string oc l;
      output_char oc '\n')
    (List.combine items results);
  flush oc

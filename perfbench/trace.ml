(* In-memory span recorder for the traced replay.

   Spans are recorded from the benchmark's own code, around each call
   into a layer; nothing inside the program is instrumented.  When
   recording is off, [span] costs one branch and a closure call, which
   is what the untraced replay measures [trace.overhead] against. *)

type span = {
  name : string;
  job : int;
  parent : int;  (** index of the enclosing span, -1 for a job root *)
  start_ns : int64;
  mutable stop_ns : int64;
}

let now_ns () = Monotonic_clock.now ()
let ms_of_ns ns = Int64.to_float ns /. 1e6

let recording = ref false
let spans : span list ref = ref []
let count = ref 0
let open_stack : int list ref = ref []
let current_job = ref (-1)

let reset () =
  spans := [];
  count := 0;
  open_stack := [];
  current_job := -1

let span name f =
  if not !recording then f ()
  else begin
    let parent = match !open_stack with i :: _ -> i | [] -> -1 in
    let s =
      { name; job = !current_job; parent; start_ns = now_ns (); stop_ns = 0L }
    in
    let idx = !count in
    incr count;
    spans := s :: !spans;
    open_stack := idx :: !open_stack;
    let close () =
      s.stop_ns <- now_ns ();
      open_stack := List.tl !open_stack
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(** All spans in start order. *)
let all () = Array.of_list (List.rev !spans)

let dur s = Int64.sub s.stop_ns s.start_ns

(** Self time per span: its duration minus the time its children
    cover (children never overlap: the replay is single-threaded). *)
let self_times (a : span array) : int64 array =
  let self = Array.map dur a in
  Array.iter
    (fun s ->
      if s.parent >= 0 then
        self.(s.parent) <- Int64.sub self.(s.parent) (dur s))
    a;
  self

(** Total self time (ms) per span name. *)
let self_ms_by_name (a : span array) : (string, float) Hashtbl.t =
  let self = self_times a in
  let h = Hashtbl.create 32 in
  Array.iteri
    (fun i s ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt h s.name) in
      Hashtbl.replace h s.name (prev +. ms_of_ns self.(i)))
    a;
  h

(** Chrome trace_event JSON: one complete ("X") event per span, the job
    id and parent span index in [args]. *)
let write_chrome (path : string) (a : span array) : unit =
  let t0 = if Array.length a = 0 then 0L else a.(0).start_ns in
  let us ns = Int64.to_float ns /. 1e3 in
  let events =
    Array.to_list
      (Array.mapi
         (fun i s ->
           Machine.Json.Assoc
             [
               ("name", Machine.Json.String s.name);
               ("cat", Machine.Json.String "layer");
               ("ph", Machine.Json.String "X");
               ("ts", Machine.Json.Float (us (Int64.sub s.start_ns t0)));
               ("dur", Machine.Json.Float (us (dur s)));
               ("pid", Machine.Json.Int 1);
               ("tid", Machine.Json.Int 1);
               ( "args",
                 Machine.Json.Assoc
                   [
                     ("job", Machine.Json.Int s.job);
                     ("span", Machine.Json.Int i);
                     ("parent", Machine.Json.Int s.parent);
                   ] );
             ])
         a)
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Machine.Json.to_string
           (Machine.Json.Assoc [ ("traceEvents", Machine.Json.List events) ])))

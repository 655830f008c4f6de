(* The processes the benchmark starts — socket servers and batch
   processes of the df_compile binary, and host probes — the
   2-connection closed-loop client, and the kernel's account of their
   memory. *)

external wait4 : int -> int * int = "perfbench_wait4"
(** [wait4 pid] reaps [pid]: (exit code, or minus the killing signal;
    peak resident set in KiB). *)

let bin = "_build/default/bin/df_compile.exe"
let now_ns = Trace.now_ns
let ms_since t0 = Trace.ms_of_ns (Int64.sub (now_ns ()) t0)

exception Failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt

(* Every started child until it is reaped, so an abort can stop them. *)
let live : int list ref = ref []

let spawn ?(prog = bin) args ~stdin ~stdout =
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) stdin stdout
      Unix.stderr
  in
  live := pid :: !live;
  pid

let reap pid =
  let r = wait4 pid in
  live := List.filter (( <> ) pid) !live;
  r

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (wait4 pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* --- /proc ----------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(** Peak resident set (VmHWM) of a live process, in KiB. *)
let vm_hwm_kb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id

(** Pids whose parent is [pid] (the server's shards). *)
let children pid =
  Array.to_list (Sys.readdir "/proc")
  |> List.filter (fun d -> d <> "" && d.[0] >= '0' && d.[0] <= '9')
  |> List.filter (fun d ->
         match read_file (Printf.sprintf "/proc/%s/stat" d) with
         | exception Sys_error _ -> false
         | stat ->
             (* the command name may hold spaces: fields resume after
                the last ')' *)
             let rest =
               String.sub stat
                 (String.rindex stat ')' + 2)
                 (String.length stat - String.rindex stat ')' - 2)
             in
             Scanf.sscanf rest "%c %d" (fun _ ppid -> ppid = pid))

(* --- line reader over a descriptor ------------------------------------ *)

type reader = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let reader fd = { fd; buf = Buffer.create 4096; chunk = Bytes.create 65536 }

(* Read what is available; false at end of file. *)
let fill r =
  match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
  | 0 -> false
  | n ->
      Buffer.add_subbytes r.buf r.chunk 0 n;
      true

let take_line r =
  let s = Buffer.contents r.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
      Buffer.clear r.buf;
      Buffer.add_string r.buf (String.sub s (i + 1) (String.length s - i - 1));
      Some (String.sub s 0 i)

(* The next line, waiting at most [timeout] seconds for it. *)
let rec read_line ~timeout r =
  match take_line r with
  | Some l -> Some l
  | None -> (
      match Unix.select [ r.fd ] [] [] timeout with
      | [], _, _ -> fail "no output within %.0f s" timeout
      | _ -> if fill r then read_line ~timeout r else None)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* --- socket server --------------------------------------------------- *)

type server = { pid : int; out : reader; path : string }

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0

(** Start [df_compile serve --socket path --shards shards]; returns once
    the server prints its listening line. *)
let start_server ~path ~shards =
  (try Sys.remove path with Sys_error _ -> ());
  let r, w = Unix.pipe ~cloexec:true () in
  let null = devnull () in
  let pid =
    spawn
      [ "serve"; "--socket"; path; "--shards"; string_of_int shards ]
      ~stdin:null ~stdout:w
  in
  Unix.close w;
  Unix.close null;
  let out = reader r in
  (match read_line ~timeout:60.0 out with
  | Some l when String.starts_with ~prefix:"serve: listening" l -> ()
  | Some l -> fail "server printed %S before listening" l
  | None -> fail "server exited before listening");
  { pid; out; path }

type drained = {
  d_ok : int;
  d_crash : int;
  d_deadline : int;
  d_overloaded : int;
  d_restarts : int;
}

(** Peak resident memory of the server and its shards, in KiB. *)
let server_hwm_kb s =
  List.fold_left
    (fun acc pid -> acc + vm_hwm_kb pid)
    (vm_hwm_kb (string_of_int s.pid))
    (children s.pid)

(** SIGTERM, then the drained line and exit status 0. *)
let stop_server s =
  Unix.kill s.pid Sys.sigterm;
  let rec drained () =
    match read_line ~timeout:60.0 s.out with
    | None -> fail "server exited without a drained line"
    | Some l when String.starts_with ~prefix:"serve: drained" l ->
        Scanf.sscanf l
          "serve: drained ok=%d shard-crash=%d deadline=%d overloaded=%d \
           restarts=%d" (fun d_ok d_crash d_deadline d_overloaded d_restarts ->
            { d_ok; d_crash; d_deadline; d_overloaded; d_restarts })
    | Some _ -> drained ()
  in
  let d = drained () in
  while fill s.out do
    ()
  done;
  Unix.close s.out.fd;
  let code, _ = reap s.pid in
  if code <> 0 then fail "server exited with %d after SIGTERM" code;
  d

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

(* --- closed-loop client ---------------------------------------------- *)

type slot = {
  conn : Unix.file_descr;
  rd : reader;
  mutable job : int;
  mutable sent : int64;
  mutable busy : bool;
}

let slots fds =
  Array.map
    (fun conn -> { conn; rd = reader conn; job = -1; sent = 0L; busy = false })
    fds

let send slot (job, line) =
  slot.job <- job;
  slot.busy <- true;
  slot.sent <- now_ns ();
  write_all slot.conn (line ^ "\n")

(* Wait for replies on busy slots; [k slot line latency_ms] per reply. *)
let await slots k =
  let busy = List.filter (fun s -> s.busy) (Array.to_list slots) in
  match Unix.select (List.map (fun s -> s.conn) busy) [] [] 120.0 with
  | [], _, _ -> fail "no reply within 120 s"
  | ready, _, _ ->
      List.iter
        (fun s ->
          if List.mem s.conn ready then begin
            if not (fill s.rd) then fail "server closed the connection";
            match take_line s.rd with
            | None -> ()
            | Some line ->
                let lat = ms_since s.sent in
                s.busy <- false;
                k s line lat
          end)
        busy

(** Each connection sends its next job as soon as its previous reply
    arrives, until [next] returns [None]. *)
let closed_loop slots ~next ~on_reply =
  Array.iter (fun s -> Option.iter (send s) (next ())) slots;
  while Array.exists (fun s -> s.busy) slots do
    await slots (fun s line lat ->
        on_reply s.job line lat;
        Option.iter (send s) (next ()))
  done

(** Every job is sent on every connection at once and all replies are
    awaited before the next: with one shard per connection, each job
    reaches every shard. *)
let lockstep slots jobs ~on_reply =
  Array.iter
    (fun job ->
      Array.iter (fun s -> send s job) slots;
      while Array.exists (fun s -> s.busy) slots do
        await slots (fun s line lat -> on_reply s.job line lat)
      done)
    jobs

(* --- batch process ---------------------------------------------------- *)

(** One [df_compile serve --jobs jobs] process fed [lines] on stdin:
    (spawn to last result line in ms, result lines, peak RSS in KiB). *)
let run_batch ~jobs (lines : string array) =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let t0 = now_ns () in
  let pid = spawn [ "serve"; "--jobs"; string_of_int jobs ] ~stdin:in_r ~stdout:out_w in
  Unix.close in_r;
  Unix.close out_w;
  (* the server reads to end of file before it writes, so writing the
     whole batch first cannot deadlock *)
  write_all in_w (String.concat "\n" (Array.to_list lines) ^ "\n");
  Unix.close in_w;
  let rd = reader out_r in
  let n = Array.length lines in
  let replies =
    Array.init n (fun _ ->
        match read_line ~timeout:120.0 rd with
        | Some l -> l
        | None -> fail "batch process ended after a short reply")
  in
  let lat = ms_since t0 in
  while fill rd do
    ()
  done;
  Unix.close out_r;
  let code, rss_kb = reap pid in
  if code <> 0 then fail "batch process exited with %d" code;
  (lat, replies, rss_kb)

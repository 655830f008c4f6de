(* Host speed probe.

   The machine this benchmark was tuned on is a 2-core guest whose host
   lends it cores at a speed that drifts by up to 1.6x over minutes, and
   every workload's throughput moves with it: runs a few minutes apart
   read up to 1.6x apart, while two runs of one workload back to back
   read within a few percent.  No window short enough to repeat twenty
   times per workload averages that out, so each run measures the host's
   speed while it measures the program, and the end-to-end times are
   scaled to one reference speed.

   A probe starts two hostprobe processes at once, one per core, as the
   serving processes use them, and times them to the end of both.  It
   runs while no job is in flight, so it neither slows the program nor
   is slowed by it. *)

let prog = "_build/default/perfbench/hostprobe.exe"

(** Seconds until two fresh hostprobe processes have both finished. *)
let probe () =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let t0 = Trace.now_ns () in
  let pids = List.init 2 (fun _ -> Proc.spawn ~prog [] ~stdin:null ~stdout:null) in
  List.iter
    (fun pid ->
      let code, _ = Proc.reap pid in
      if code <> 0 then Proc.fail "%s exited with %d" prog code)
    pids;
  let s = Proc.ms_since t0 /. 1000.0 in
  Unix.close null;
  s

(* The reference speed, as a probe time in s: a round figure near what
   the reference host's probes read at its fastest (0.10 to 0.13 s).  A
   run whose median probe reads this is reported unscaled. *)
let reference_s = 0.1

let default_jobs () = Domain.recommended_domain_count ()

let check_jobs jobs =
  if jobs < 1 then
    invalid_arg (Printf.sprintf "Pool: jobs must be at least 1 (got %d)" jobs)

type failure = { f_exn : exn; f_backtrace : Printexc.raw_backtrace }

let reraise { f_exn; f_backtrace } =
  Printexc.raise_with_backtrace f_exn f_backtrace

let failure_to_string { f_exn; f_backtrace } =
  let bt = Printexc.raw_backtrace_to_string f_backtrace in
  if String.trim bt = "" then Printexc.to_string f_exn
  else Printf.sprintf "%s\n%s" (Printexc.to_string f_exn) bt

let run_task f x =
  try Ok (f x)
  with e ->
    (* capture the trace at the raise site, before any further
       allocation can clobber it, so pool and shard failures stay
       diagnosable after crossing the domain boundary *)
    let bt = Printexc.get_raw_backtrace () in
    Error { f_exn = e; f_backtrace = bt }

let placeholder = Error { f_exn = Not_found; f_backtrace = Printexc.get_callstack 0 }

let map ?(jobs = default_jobs ()) (f : 'a -> 'b) (items : 'a array) :
    ('b, failure) result array =
  check_jobs jobs;
  let n = Array.length items in
  let results = Array.make n placeholder in
  let workers = min jobs n in
  if workers <= 1 then
    Array.iteri (fun i x -> results.(i) <- run_task f x) items
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (* distinct indices: no two domains ever touch the same slot,
             and Domain.join publishes every write to the caller *)
          results.(i) <- run_task f items.(i);
          go ()
        end
      in
      go ()
    in
    let spawned = List.init (workers - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join spawned
  end;
  results

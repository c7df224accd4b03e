(* The persistent certification daemon: listen on a unix-domain socket,
   keep a supervised pool of long-lived workers, answer certd --connect
   clients. The protocol, admission control, and supervision live in
   Lcp_service.Server; this binary only parses flags and builds the
   per-worker engine factory.

   Examples:
     certd_server.exe --socket /tmp/certd.sock --workers 4 \
       --cache-dir /tmp/certs --base-dir examples/service
     certd_server.exe --socket /tmp/certd.sock --faults 'torn@9:8' \
       --timed           # storage-fault drill with stage percentiles

   The daemon runs until SIGTERM/SIGINT or a client's shutdown request,
   drains its queue through the workers, and exits 0. Exit code 2 is a
   usage error (bad flag, socket already served).

   --journal-dir DIR makes every served delta-session reply durable: a
   checksummed append-only journal that a restarted daemon replays to
   rebuild its sessions, so a crashed stream resumes instead of
   restarting. --supervise keeps the daemon itself alive: the real
   server runs as a child, and the supervisor respawns it with bounded
   backoff when it dies abnormally (a crash loop — five sub-second
   lives in a row — gives up instead of spinning). *)

module Service = Lcp_service

(* Run [serve] as a supervised child: respawn on abnormal death with
   exponential backoff (0.1 s doubling, capped at 2 s). Exit 0 (clean
   shutdown) and exit 2 (usage error / lock holder — respawning cannot
   help) pass through; anything else — nonzero exits, signals,
   SIGKILL — respawns. SIGTERM/SIGINT are forwarded to the child so
   "kill the supervisor" still drains the daemon cleanly. *)
let supervise serve =
  let child = ref 0 in
  let forward signal =
    Sys.set_signal signal
      (Sys.Signal_handle
         (fun s ->
           if !child > 0 then
             try Unix.kill !child s with Unix.Unix_error _ -> ()))
  in
  forward Sys.sigterm;
  forward Sys.sigint;
  let backoff = ref 0.1 in
  let fast_deaths = ref 0 in
  let rec loop () =
    (* the child inherits buffered output; flush so log lines are not
       emitted twice *)
    flush stdout;
    flush stderr;
    let born = Unix.gettimeofday () in
    (match Unix.fork () with
    | 0 -> serve ()
    | pid -> child := pid);
    let rec wait () =
      match Unix.waitpid [] !child with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | _, status -> status
    in
    let status = wait () in
    child := 0;
    let lived = Unix.gettimeofday () -. born in
    if lived >= 1.0 then begin
      fast_deaths := 0;
      backoff := 0.1
    end
    else incr fast_deaths;
    match status with
    | Unix.WEXITED 0 -> exit 0
    | Unix.WEXITED 2 -> exit 2
    | Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
        if !fast_deaths >= 5 then begin
          prerr_endline
            "certd-server: crash loop (5 consecutive sub-second lives); \
             giving up";
          exit 1
        end;
        (* waitpid reports signals in OCaml's portable numbering, which
           is not the OS number — name the common ones instead of
           printing a baffling negative integer *)
        let signal_name s =
          if s = Sys.sigkill then "SIGKILL"
          else if s = Sys.sigterm then "SIGTERM"
          else if s = Sys.sigint then "SIGINT"
          else if s = Sys.sigsegv then "SIGSEGV"
          else if s = Sys.sigabrt then "SIGABRT"
          else Printf.sprintf "signal %d" s
        in
        Printf.eprintf "certd-server: child died (%s); respawning in %.1fs\n%!"
          (match status with
          | Unix.WEXITED n -> Printf.sprintf "exit %d" n
          | Unix.WSIGNALED s -> signal_name s
          | Unix.WSTOPPED s -> Printf.sprintf "stopped %s" (signal_name s))
          !backoff;
        Unix.sleepf !backoff;
        backoff := Float.min 2.0 (!backoff *. 2.0);
        loop ()
  in
  loop ()

let run socket workers queue_cap client_cap cache_cap cache_dir disk_cap
    degrade_after deadline_ms faults base_dir timed quiet journal_dir fsync
    checkpoint_every supervise_flag write_batch =
  (match Service.Worker.check_count workers with
  | Ok _ -> ()
  | Error e ->
      Printf.eprintf "certd-server: --workers %s\n" e;
      exit 2);
  if write_batch < 1 then begin
    prerr_endline "certd-server: --write-batch must be >= 1";
    exit 2
  end;
  if queue_cap < 1 then begin
    prerr_endline "certd-server: --queue-cap must be >= 1";
    exit 2
  end;
  let client_cap =
    match client_cap with
    | 0 -> Service.Server.default_client_cap queue_cap
    | n when n >= 1 -> n
    | _ ->
        prerr_endline "certd-server: --client-cap must be >= 1";
        exit 2
  in
  let plan =
    match faults with
    | None -> None
    | Some plan_str -> (
        match Service.Blob_io.parse_plan plan_str with
        | Error e ->
            Printf.eprintf "certd-server: --faults: %s\n" e;
            exit 2
        | Ok plan -> Some plan)
  in
  let retry =
    if deadline_ms > 0.0 then
      { Service.Engine.default_retry with deadline_ms }
    else Service.Engine.default_retry
  in
  (* built once inside each worker process, after the fork: private
     memory tier and fault-plan counters per worker, shared disk tier *)
  let make_engine ~worker:_ timing =
    let io =
      Option.map
        (fun plan -> fst (Service.Blob_io.inject ~plan Service.Blob_io.real))
        plan
    in
    Service.Engine.create ~cache_cap ?cache_dir ~cache_disk_cap:disk_cap
      ~degrade_after ~write_batch ?io ~retry ~base_dir ?timing ()
  in
  let journal_fsync =
    match Service.Journal.fsync_policy_of_string fsync with
    | Some p -> p
    | None ->
        Printf.eprintf
          "certd-server: --fsync: %S is not a policy (always, never, every=N)\n"
          fsync;
        exit 2
  in
  if checkpoint_every < 1 then begin
    prerr_endline "certd-server: --checkpoint-every must be >= 1";
    exit 2
  end;
  let serve () =
    match
      Service.Server.run
        {
          Service.Server.socket_path = socket;
          workers;
          queue_cap;
          client_cap;
          make_engine;
          timed;
          verbose = not quiet;
          journal_dir;
          journal_fsync;
          journal_checkpoint = checkpoint_every;
        }
    with
    | () -> exit 0
    | exception Sys_error e ->
        Printf.eprintf "certd-server: %s\n" e;
        exit 2
  in
  if supervise_flag then supervise serve else serve ()

open Cmdliner

let socket =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket to listen on (created; removed on exit).")

let workers =
  Arg.(
    value & opt int 2
    & info [ "workers" ] ~docv:"N"
        ~doc:
          (Printf.sprintf
             "Long-lived worker processes in the supervised pool, at most \
              %d."
             Service.Worker.max_workers))

let queue_cap =
  Arg.(
    value
    & opt int Service.Server.default_queue_cap
    & info [ "queue-cap" ] ~docv:"N"
        ~doc:
          "Admission queue bound: jobs waiting for a worker beyond $(docv) \
           are refused with an overloaded reply, never buffered.")

let client_cap =
  Arg.(
    value & opt int 0
    & info [ "client-cap" ] ~docv:"N"
        ~doc:
          "Per-client share of the admission queue, so one flooding \
           client cannot starve the rest. 0 (the default) means a \
           quarter of --queue-cap.")

let cache_cap =
  Arg.(
    value & opt int 4096
    & info [ "cache-cap" ] ~docv:"N"
        ~doc:"In-memory LRU capacity of each worker's certificate store.")

let cache_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "On-disk certificate tier shared by all workers; bundles served \
           from it are always re-verified locally first.")

let disk_cap =
  Arg.(
    value & opt int 0
    & info [ "disk-cap" ] ~docv:"N"
        ~doc:
          "Cap the on-disk tier at $(docv) records (LRU by mtime). 0 \
           means unbounded.")

let degrade_after =
  Arg.(
    value & opt int 3
    & info [ "degrade-after" ] ~docv:"N"
        ~doc:
          "Demote a worker's store to memory-only after $(docv) \
           consecutive disk failures; it keeps serving, marked degraded.")

let deadline_ms =
  Arg.(
    value & opt float 0.0
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Default per-job retry/deadline budget. 0 means unbounded; a \
           submission may carry its own tighter budget.")

let faults =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"PLAN"
        ~doc:
          "Inject storage faults into every worker (testing/drills); same \
           plan language as certd --faults. A crash fault kills the \
           worker process — the supervisor respawns it.")

let base_dir =
  Arg.(
    value & opt string "."
    & info [ "base-dir" ] ~docv:"DIR"
        ~doc:"Directory that file= paths in submitted jobs resolve against.")

let timed =
  Arg.(
    value & flag
    & info [ "timed" ]
        ~doc:
          "Collect per-stage timing samples from the workers; they feed \
           the p50/p90/p99 figures on the stats endpoint.")

let quiet =
  Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress lifecycle log lines.")

let journal_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal-dir" ] ~docv:"DIR"
        ~doc:
          "Write-ahead journal directory: every delta-session reply is \
           appended (checksummed) before it is served, and a restarted \
           daemon replays the journal so clients resume their edit \
           streams. Without it the daemon is memory-only and resume is \
           refused.")

let fsync =
  Arg.(
    value & opt string "every=8"
    & info [ "fsync" ] ~docv:"POLICY"
        ~doc:
          "Journal durability policy: $(b,always) (fsync after every \
           record), $(b,never) (leave it to the page cache), or \
           $(b,every=N) (fsync every N records — the default, N=8).")

let checkpoint_every =
  Arg.(
    value & opt int 256
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "Compact the journal after $(docv) appended records: live \
           sessions are snapshotted into a fresh journal (tmp + rename) \
           and closed sessions drop out.")

let supervise_flag =
  Arg.(
    value & flag
    & info [ "supervise" ]
        ~doc:
          "Run the daemon as a supervised child: respawn it with bounded \
           backoff when it dies abnormally (crash, SIGKILL, fault drill), \
           give up after 5 consecutive sub-second lives. With \
           --journal-dir, a respawn replays the journal, so in-flight \
           edit sessions survive the crash.")

let write_batch =
  Arg.(
    value & opt int 1
    & info [ "write-batch" ] ~docv:"B"
        ~doc:
          "Group-commit the on-disk tier: each worker coalesces up to \
           $(docv) new certificates into one batch (single directory \
           fsync), instead of one write per job. 1 (the default) keeps \
           the write-through behaviour.")

let cmd =
  let doc = "persistent certification daemon (serves certd --connect)" in
  Cmd.v
    (Cmd.info "certd-server" ~doc)
    Term.(
      const run $ socket $ workers $ queue_cap $ client_cap $ cache_cap
      $ cache_dir $ disk_cap $ degrade_after $ deadline_ms $ faults
      $ base_dir $ timed $ quiet $ journal_dir $ fsync $ checkpoint_every
      $ supervise_flag $ write_batch)

let () = exit (Cmd.eval cmd)

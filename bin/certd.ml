(* The batch certification driver: stream jobs from a manifest through
   the service engine (prove -> encode -> verify, content-addressed
   certificate cache), emit one JSON line per job, and report aggregate
   throughput.

   With --jobs N > 1 the jobs are sharded across N long-lived worker
   processes (stable hash of job id) that serve every --passes pass;
   each worker owns a private in-memory cache tier while all workers
   share the on-disk tier (--cache-dir). A batch runs the manifest in
   job-id order and emits in that order at every N, so its output is
   byte-comparable with a --jobs 1 run of the same manifest.

   With --connect SOCKET the binary is a client of a running
   certd-server daemon instead: jobs are submitted over the unix-domain
   socket (a bounded window at a time), replies are collected, and the
   output — progress lines, --jsonl, exit code — is byte-compatible
   with the batch paths above. Admission refusals (the daemon's queue
   or this client's quota is full) are retried with a short backoff;
   that is the client half of the daemon's explicit backpressure.

   Examples:
     certd.exe --manifest jobs.manifest
     certd.exe --manifest jobs.manifest --jobs 4 --cache-dir /tmp/certs
     certd.exe --manifest jobs.manifest --passes 2 --cache-dir /tmp/certs
     certd.exe --manifest jobs.manifest --jsonl results.jsonl --quiet
     certd.exe --manifest jobs.manifest --cache-dir /tmp/certs \
       --faults 'fail@3:ENOSPC,torn@5:40'   # storage-fault drill
     certd.exe --manifest jobs.manifest --connect /tmp/certd.sock
     certd.exe --connect /tmp/certd.sock --server-stats
     certd.exe --list-properties

   Exit codes: 0 all jobs served/declined; 1 some job ended in
   input_error/unsound/failed; 2 usage error; 3 simulated crash (a
   crash@N fault point halted the batch — in any worker). *)

module Service = Lcp_service

let list_properties () =
  Printf.printf "properties served by the certification service:\n";
  List.iter
    (fun name ->
      match Service.Registry.find name with
      | Some p ->
          Printf.printf "  %-18s %s\n" name
            (Service.Registry.description_of p)
      | None -> ())
    (Service.Registry.names ());
  Printf.printf "graph formats: %s\n"
    (Service.Graph_io.supported_formats_doc ())

(* ---------------------------------------------------------------- *)
(* client mode: drive a running certd-server over its socket         *)

let try_dial socket_path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      None

(* the mandatory first exchange on every connection: version check up
   front, so a protocol mismatch is one descriptive error instead of a
   decode failure mid-stream *)
let try_hello fd =
  match
    Service.Wire.write_frame fd
      (Service.Wire.encode_request
         (Service.Wire.Hello { version = Service.Wire.protocol_version }));
    Service.Wire.read_frame fd
  with
  | Some payload -> (
      match Service.Wire.decode_response payload with
      | Ok (Service.Wire.Hello_ok _) -> Ok ()
      | Ok (Service.Wire.Err { reason; _ }) -> Error (`Fatal reason)
      | Ok _ -> Error (`Fatal "unexpected handshake response")
      | Error e -> Error (`Fatal e))
  | None -> Error `Lost
  | exception (Sys_error _ | Unix.Unix_error _) -> Error `Lost

let dial socket_path =
  match try_dial socket_path with
  | None ->
      Printf.eprintf "certd: cannot connect to %s\n" socket_path;
      exit 2
  | Some fd -> (
      match try_hello fd with
      | Ok () -> fd
      | Error (`Fatal reason) ->
          Printf.eprintf "certd: server refused the handshake: %s\n" reason;
          exit 2
      | Error `Lost ->
          prerr_endline "certd: server closed the connection during handshake";
          exit 2)

(* Exponential-backoff redial, for riding out a server restart: a
   supervised daemon respawns within a couple of seconds plus journal
   recovery, so ~14 s of patience covers it without hammering the
   socket. Returns a fresh post-handshake connection, or [None]. *)
let reconnect socket_path =
  let rec go n delay =
    if n > 12 then None
    else begin
      Unix.sleepf delay;
      let next () = go (n + 1) (Float.min 1.6 (delay *. 2.0)) in
      match try_dial socket_path with
      | None -> next ()
      | Some fd -> (
          match try_hello fd with
          | Ok () -> Some fd
          | Error _ ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              next ())
    end
  in
  go 0 0.05

let reconnect_or_die socket_path =
  match reconnect socket_path with
  | Some fd -> fd
  | None ->
      Printf.eprintf "certd: cannot reconnect to %s; giving up\n" socket_path;
      exit 1

let client_rpc fd req =
  Service.Wire.write_frame fd (Service.Wire.encode_request req);
  match Service.Wire.read_frame fd with
  | None ->
      prerr_endline "certd: server closed the connection";
      exit 2
  | Some payload -> (
      match Service.Wire.decode_response payload with
      | Ok resp -> resp
      | Error e ->
          Printf.eprintf "certd: bad response from server: %s\n" e;
          exit 2)

(* Submit every job and collect the replies. [window] bounds how many
   submissions this client keeps unanswered — combined with the retry
   on [Overloaded] below, the client cooperates with the daemon's
   admission control instead of fighting it. Results are indexed by
   serial (= manifest order), so the final stable sort by job id
   reproduces exactly the canonical order of a batch run.

   A lost connection (the server was killed and respawned) is survived
   by reconnecting with backoff and resubmitting every unanswered
   serial: one-shot jobs are idempotent — the pipeline is
   deterministic, so a recomputed reply is the reply — and each serial
   lands in [results] exactly once, whatever the resend count. *)
let client_submit fd0 ~socket_path ~window ~deadline_ms ~emit ~failed jobs =
  let fd = ref fd0 in
  let jobs = Array.of_list jobs in
  let total = Array.length jobs in
  let results = Array.make total None in
  let attempts = Array.make total 0 in
  let max_attempts = 100 in
  let pending = Queue.create () in
  for i = 0 to total - 1 do
    Queue.push i pending
  done;
  let inflight = Hashtbl.create 16 in
  let completed = ref 0 in
  (* serials in replies come from the server; a corrupt one must take
     the protocol-error exit, not raise Invalid_argument on an array *)
  let check_serial serial =
    if serial < 0 || serial >= total then begin
      Printf.eprintf "certd: bad response from server: serial %d out of range\n"
        serial;
      exit 2
    end
  in
  let submit serial =
    (* register before writing: a write torn by a dying server must
       still count as in flight, so the resubmission sweep covers it *)
    Hashtbl.replace inflight serial ();
    Service.Wire.write_frame !fd
      (Service.Wire.encode_request
         (Service.Wire.Submit
            {
              serial;
              canonical = false;
              deadline_ms;
              line = Service.Manifest.print_job jobs.(serial);
            }))
  in
  let on_lost () =
    Printf.eprintf
      "certd: connection lost; reconnecting to resubmit %d in-flight job(s)\n%!"
      (Hashtbl.length inflight);
    fd := reconnect_or_die socket_path;
    Hashtbl.iter (fun serial () -> Queue.push serial pending) inflight;
    Hashtbl.reset inflight
  in
  while !completed < total do
    match
      while (not (Queue.is_empty pending)) && Hashtbl.length inflight < window
      do
        submit (Queue.pop pending)
      done;
      Service.Wire.read_frame !fd
    with
    | exception (Sys_error _ | Unix.Unix_error _) -> on_lost ()
    | None -> on_lost ()
    | Some payload -> (
        match Service.Wire.decode_response payload with
        | Ok (Service.Wire.Report { serial; id; status; json; canonical }) ->
            check_serial serial;
            Hashtbl.remove inflight serial;
            if results.(serial) = None then incr completed;
            results.(serial) <- Some (id, status, json, canonical)
        | Ok (Service.Wire.Overloaded { serial; reason }) ->
            check_serial serial;
            Hashtbl.remove inflight serial;
            attempts.(serial) <- attempts.(serial) + 1;
            if attempts.(serial) >= max_attempts then begin
              Printf.eprintf "certd: job %s refused %d times (last: %s)\n"
                jobs.(serial).Service.Manifest.job_id max_attempts reason;
              exit 1
            end;
            (* admission said "later": honor it before resubmitting *)
            Unix.sleepf 0.05;
            Queue.push serial pending
        | Ok (Service.Wire.Err { serial; reason }) ->
            Printf.eprintf "certd: server rejected %s: %s\n"
              (if serial >= 0 && serial < total then
                 jobs.(serial).Service.Manifest.job_id
               else "a request")
              reason;
            exit 1
        | Ok
            ( Service.Wire.Stats_reply _ | Service.Wire.Pong
            | Service.Wire.Hello_ok _ | Service.Wire.Dreport _ ) ->
            prerr_endline "certd: unexpected response from server";
            exit 2
        | Error e ->
            Printf.eprintf "certd: bad response from server: %s\n" e;
            exit 2)
  done;
  (* canonical order: stable sort by id over manifest order *)
  Array.to_list results |> List.filter_map Fun.id
  |> List.stable_sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)
  |> List.iter (fun (id, status, json, canonical) ->
         if List.mem status [ "input_error"; "unsound"; "failed" ] then
           failed := true;
         emit ~id ~status ~json ~canonical)

(* Streaming edit mode: open a daemon-side delta session on the
   manifest's single job, then play the edit file through it one batch
   at a time — lock-step, because each edit's meaning depends on the
   graph the previous one left behind. Replies come back in stream
   order and are emitted that way (no id sort: this is a stream, not a
   batch). Overloaded answers are retried with the same backoff as
   batch submissions — with a much deeper budget than batch mode,
   because a freshly resumed session replays its whole history through
   the queue before our next edit gets a slot.

   A lost connection mid-stream is survived, not fatal: reconnect with
   backoff, re-open the session with resume=1 (the server rebuilds the
   graph from its journal and answers the open from the journaled
   reply), then resend the request that was in flight. The journal
   dedups by serial, so a request whose reply we never saw comes back
   byte-identical whether it had been applied or not — the emitted
   JSONL is exactly-once either way. *)
let client_edits fd0 ~socket_path ~sid ~deadline_ms ~full ~emit ~failed ~quiet
    job edits =
  let fd = ref fd0 in
  let opened = ref false in
  let line = Service.Manifest.print_job job in
  let max_attempts = 600 in
  let rec rpc serial req attempts =
    match
      Service.Wire.write_frame !fd (Service.Wire.encode_request req);
      Service.Wire.read_frame !fd
    with
    | exception (Sys_error _ | Unix.Unix_error _) -> lost serial req attempts
    | None -> lost serial req attempts
    | Some payload -> (
        match Service.Wire.decode_response payload with
        | Ok (Service.Wire.Dreport { serial = s; id; status; json; canonical; patch })
          when s = serial ->
            (id, status, json, canonical, patch)
        | Ok (Service.Wire.Overloaded { serial = s; reason }) when s = serial ->
            if attempts >= max_attempts then begin
              Printf.eprintf "certd: edit %d refused %d times (last: %s)\n"
                serial attempts reason;
              exit 1
            end;
            Unix.sleepf 0.05;
            rpc serial req (attempts + 1)
        | Ok (Service.Wire.Err { reason; _ }) ->
            Printf.eprintf "certd: server rejected request %d: %s\n" serial
              reason;
            exit 1
        | Ok _ ->
            prerr_endline "certd: unexpected response in edit stream";
            exit 2
        | Error e ->
            Printf.eprintf "certd: bad response from server: %s\n" e;
            exit 2)
  and lost serial req attempts =
    Printf.eprintf
      "certd: connection lost mid-stream; reconnecting to resume session %s\n%!"
      sid;
    fd := reconnect_or_die socket_path;
    if !opened then begin
      (* the re-open's reply is the journaled open report we already
         emitted at serial 0 — consume and discard it *)
      let _, status, _, _, _ =
        rpc 0
          (Service.Wire.Delta_open
             { serial = 0; deadline_ms; sid; resume = true; line = "" })
          0
      in
      Printf.eprintf "certd: session %s resumed (open report: %s)\n%!" sid
        status
    end;
    rpc serial req attempts
  in
  let handle (id, status, json, canonical, patch) =
    if List.mem status [ "input_error"; "unsound"; "failed" ] then
      failed := true;
    emit ~id ~status ~json ~canonical;
    if not quiet then Printf.printf "%-12s %-13s %s\n%!" id status patch
  in
  let open_reply =
    rpc 0
      (Service.Wire.Delta_open
         { serial = 0; deadline_ms; sid; resume = false; line })
      0
  in
  opened := true;
  handle open_reply;
  List.iteri
    (fun i ops ->
      let serial = i + 1 in
      handle
        (rpc serial
           (Service.Wire.Delta_edit { serial; deadline_ms; full; ops })
           0))
    edits

(* the edit file: one delta per line ("add=0-1,2-3 del=4-5"); blank
   lines and #-comments are skipped, an empty line of ops is legal *)
let load_edit_lines file =
  match open_in file with
  | exception Sys_error e ->
      Printf.eprintf "certd: %s\n" e;
      exit 2
  | ic ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file ->
            close_in ic;
            List.rev acc
        | line ->
            let tr = String.trim line in
            if tr = "" || tr.[0] = '#' then go acc else go (tr :: acc)
      in
      go []

(* --jsonl FILE, or '-' for stdout *)
let open_jsonl = function
  | None -> None
  | Some "-" -> Some stdout
  | Some f -> Some (open_out f)

let close_jsonl = function
  | Some oc when oc != stdout -> close_out oc
  | _ -> ()

let run_client ~socket_path ~window ~deadline_ms ~server_stats
    ~server_shutdown ~manifest ~base_dir ~jsonl ~canonical ~quiet ~edits
    ~edits_full ~session =
  let fd = dial socket_path in
  let finish code =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    exit code
  in
  if server_stats then begin
    (match client_rpc fd Service.Wire.Stats_req with
    | Service.Wire.Stats_reply json -> print_endline json
    | _ ->
        prerr_endline "certd: unexpected response to stats request";
        finish 2);
    finish 0
  end;
  if server_shutdown then begin
    (match client_rpc fd Service.Wire.Shutdown with
    | Service.Wire.Pong -> ()
    | _ ->
        prerr_endline "certd: unexpected response to shutdown request";
        finish 2);
    finish 0
  end;
  let manifest =
    match manifest with
    | Some m -> m
    | None ->
        prerr_endline "certd: --connect needs --manifest (or --server-stats)";
        finish 2
  in
  match Service.Manifest.load_file manifest with
  | Error e ->
      Printf.eprintf "certd: %s\n" e;
      finish 2
  | Ok jobs ->
      (* file= paths are meaningful in the daemon's process, not ours:
         resolve them against --base-dir (default: the manifest's
         directory, exactly as batch mode does) and make them absolute,
         so the daemon reads the same file whatever its own cwd is *)
      let base =
        match base_dir with
        | Some d -> d
        | None -> Filename.dirname manifest
      in
      let jobs =
        List.map
          (fun (j : Service.Manifest.job) ->
            match j.Service.Manifest.source with
            | Service.Manifest.File f ->
                let f =
                  if Filename.is_relative f then Filename.concat base f else f
                in
                let f =
                  if Filename.is_relative f then
                    Filename.concat (Unix.getcwd ()) f
                  else f
                in
                { j with Service.Manifest.source = Service.Manifest.File f }
            | Service.Manifest.Generated _ -> j)
          jobs
      in
      let jsonl_oc = open_jsonl jsonl in
      let emit ~id ~status ~json ~canonical:canonical_line =
        (match jsonl_oc with
        | Some oc ->
            output_string oc (if canonical then canonical_line else json);
            output_char oc '\n'
        | None -> ());
        if not quiet then Printf.printf "%-12s %s\n%!" id status
      in
      let failed = ref false in
      (match edits with
      | Some edits_file -> (
          match jobs with
          | [ job ] ->
              (* the resume handle: stable across reconnects of this
                 process, unique across processes unless the user pins
                 it (--session) to hand a stream over deliberately *)
              let sid =
                match session with
                | Some s
                  when s = ""
                       || String.exists
                            (fun ch -> ch = ' ' || ch = '\t' || ch = '\n')
                            s ->
                    prerr_endline
                      "certd: --session must be a nonempty word (no whitespace)";
                    finish 2
                | Some s -> s
                | None ->
                    Printf.sprintf "c%d-%x" (Unix.getpid ())
                      (int_of_float (Unix.gettimeofday () *. 1000.) land 0xffffff)
              in
              client_edits fd ~socket_path ~sid ~deadline_ms ~full:edits_full
                ~emit ~failed ~quiet job
                (load_edit_lines edits_file)
          | _ ->
              Printf.eprintf
                "certd: --edits needs a manifest with exactly one job (got %d)\n"
                (List.length jobs);
              finish 2)
      | None ->
          client_submit fd ~socket_path ~window ~deadline_ms ~emit ~failed jobs);
      close_jsonl jsonl_oc;
      finish (if !failed then 1 else 0)

exception Stream_input of string
(** a manifest parse/read error surfaced mid-stream (--stream) *)

let run manifest base_dir cache_cap cache_dir disk_cap faults jsonl canonical
    passes njobs quiet list_props connect window deadline_ms server_stats
    server_shutdown edits edits_full session stream workload write_batch =
  if list_props then begin
    list_properties ();
    exit 0
  end;
  (match connect with
  | Some socket_path ->
      if window < 1 then begin
        prerr_endline "certd: --window must be >= 1";
        exit 2
      end;
      if stream || workload <> None || write_batch <> 1 then begin
        prerr_endline
          "certd: --stream/--workload/--write-batch are batch-mode flags \
           (not with --connect)";
        exit 2
      end;
      run_client ~socket_path ~window ~deadline_ms ~server_stats
        ~server_shutdown ~manifest ~base_dir ~jsonl ~canonical ~quiet ~edits
        ~edits_full ~session
  | None ->
      if server_stats || server_shutdown then begin
        prerr_endline "certd: --server-stats/--server-shutdown need --connect";
        exit 2
      end;
      if edits <> None || edits_full || session <> None then begin
        prerr_endline "certd: --edits/--edits-full/--session need --connect";
        exit 2
      end);
  if write_batch < 1 then begin
    prerr_endline "certd: --write-batch must be >= 1";
    exit 2
  end;
  let workload_spec =
    match workload with
    | None -> None
    | Some s -> (
        match Service.Workload.parse_spec s with
        | Ok spec -> Some spec
        | Error e ->
            Printf.eprintf "certd: --workload: %s\n" e;
            exit 2)
  in
  let manifest =
    match (manifest, workload_spec) with
    | Some _, Some _ ->
        prerr_endline "certd: --manifest and --workload are exclusive";
        exit 2
    | Some m, None -> Some m
    | None, Some _ -> None
    | None, None ->
        prerr_endline
          "certd: --manifest is required (or --workload / --list-properties); \
           see --help";
        exit 2
  in
  let streaming = stream || workload_spec <> None in
  let workers =
    if njobs = 0 then Service.Pool.default_workers ()
    else
      match Service.Worker.check_count njobs with
      | Ok n -> n
      | Error e ->
          Printf.eprintf "certd: --jobs %s\n" e;
          exit 2
  in
  let plan =
    match faults with
    | None -> None
    | Some plan_str -> (
        match Service.Blob_io.parse_plan plan_str with
        | Error e ->
            Printf.eprintf "certd: --faults: %s\n" e;
            exit 2
        | Ok plan -> Some plan)
  in
  let base_dir =
    match base_dir with
    | Some d -> d
    | None -> (
        match manifest with Some m -> Filename.dirname m | None -> ".")
  in
  (* Called once per worker, inside it (or once, in-process, at
     --jobs 1): each worker gets a private memory tier and its own
     fault-plan counters; the disk tier (--cache-dir) is the shared
     one. *)
  let make_engine ~worker:_ timing =
    let io =
      Option.map
        (fun plan -> fst (Service.Blob_io.inject ~plan Service.Blob_io.real))
        plan
    in
    Service.Engine.create ~cache_cap ?cache_dir ~cache_disk_cap:disk_cap
      ~write_batch ?io ~base_dir ?timing ()
  in
  (* batch mode runs the whole manifest in id order, so reports come
     out canonical; --stream and --workload feed jobs one at a time, in
     feed order, never materializing the corpus *)
  let produce =
    match workload_spec with
    | Some spec -> fun feed -> Service.Workload.iter spec ~f:feed
    | None when streaming -> (
        fun feed ->
          match Service.Manifest.iter_file (Option.get manifest) ~f:feed with
          | Ok () -> ()
          | Error e -> raise (Stream_input e))
    | None -> (
        match Service.Manifest.load_file (Option.get manifest) with
        | Error e ->
            Printf.eprintf "certd: %s\n" e;
            exit 2
        | Ok jobs -> Service.Pool.in_id_order jobs)
  in
  let timing = Service.Timing.create () in
  (* the probe engine: an uncreatable cache directory (or a fault plan
     whose op 1 is that very mkdir) surfaces as a clean error before
     any output or fork. At --jobs 1 it is the engine; with workers it
     only adds its store counters (say, an orphan sweep) to the sink *)
  let probe =
    try make_engine ~worker:0 (Some timing) with
    | Sys_error e ->
        Printf.eprintf "certd: %s\n" e;
        exit 2
    | Service.Blob_io.Crashed p ->
        Printf.eprintf "certd: simulated crash (fault plan) at %s\n" p;
        exit 3
  in
  let jsonl_oc = open_jsonl jsonl in
  let failed = ref false in
  let emit (r : Service.Stats.job_report) =
    (match jsonl_oc with
    | Some oc ->
        output_string oc
          (if canonical then Service.Stats.to_canonical_json r
           else Service.Stats.to_json r);
        output_char oc '\n'
    | None -> ());
    if Service.Stats.is_failure r.Service.Stats.r_status then failed := true;
    if not quiet then
      Printf.printf "%-12s %-18s k=%d n=%-5d m=%-5d %-13s %8.2f ms%s\n%!"
        r.Service.Stats.r_id r.Service.Stats.r_property r.Service.Stats.r_k
        r.Service.Stats.r_n r.Service.Stats.r_m
        (Service.Stats.status_name r.Service.Stats.r_status)
        r.Service.Stats.r_total_ms
        (if r.Service.Stats.r_cache_hit then "  [cache hit]" else "")
  in
  let finish ?degraded code =
    Format.printf "%a@." (Service.Pool.pp_footer ?degraded) timing;
    close_jsonl jsonl_oc;
    exit code
  in
  (* the workers are forked once and serve every pass, so pass 2+ hits
     their warm memory tiers with or without --cache-dir. On Ctrl-C the
     pool reaps them, then this sweep removes their half-written .tmp
     spool files from the shared disk tier. *)
  match
    let pool =
      Service.Pool.start ~timing ~engine:probe ~workers ~make_engine
        ?on_interrupt:
          (Option.map
             (fun dir () -> ignore (Service.Pool.sweep_tmp_files dir : int))
             cache_dir)
        ()
    in
    for pass = 1 to passes do
      if not quiet && passes > 1 then
        Printf.printf "--- pass %d/%d %s\n" pass passes
          (if pass = 1 then "(cold)" else "(warm)");
      Format.printf "%a@." Service.Stats.pp_summary
        (Service.Pool.run ~emit pool produce)
    done;
    Service.Pool.stop pool
  with
  | degraded -> finish ~degraded (if !failed then 1 else 0)
  | exception Service.Blob_io.Crashed p ->
      Printf.eprintf "certd: simulated crash (fault plan) at %s\n" p;
      finish 3
  | exception Stream_input e ->
      Printf.eprintf "certd: %s\n" e;
      finish 2

open Cmdliner

let manifest =
  Arg.(
    value
    & opt (some string) None
    & info [ "manifest" ] ~docv:"FILE"
        ~doc:"Manifest file listing certification jobs (see lib/service).")

let base_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "base-dir" ] ~docv:"DIR"
        ~doc:
          "Directory that file= paths in the manifest resolve against \
           (default: the manifest's directory).")

let cache_cap =
  Arg.(
    value & opt int 4096
    & info [ "cache-cap" ] ~docv:"N"
        ~doc:"In-memory LRU capacity of the certificate store.")

let cache_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persist encoded certificate bundles here; entries survive \
           restarts and LRU eviction. Served bundles are always \
           re-verified locally first.")

let disk_cap =
  Arg.(
    value & opt int 0
    & info [ "disk-cap" ] ~docv:"N"
        ~doc:
          "Cap the on-disk certificate tier at $(docv) records; the \
           least-recently-used records (by mtime) are garbage-collected \
           past the cap. 0 means unbounded.")

let faults =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"PLAN"
        ~doc:
          "Inject storage faults (testing/drills). $(docv) is a \
           comma-separated list over the sequence of mutating file ops: \
           fail@N[:TAG] (op N raises, e.g. ENOSPC; N+ makes it \
           persistent), torn@N:B (write truncated at byte B, then \
           crash), flip@N:B (silent bit flip at bit B), crash@N \
           (process death before op N; certd exits 3).")

let jsonl =
  Arg.(
    value
    & opt (some string) None
    & info [ "jsonl" ] ~docv:"FILE"
        ~doc:"Write one JSON object per job to $(docv) ('-' for stdout).")

let canonical =
  Arg.(
    value & flag
    & info [ "canonical" ]
        ~doc:
          "Emit the canonical projection in --jsonl lines: volatile fields \
           (timings, fresh-vs-cached serving detail) dropped, so two runs of \
           one manifest are byte-comparable however they were sharded.")

let passes =
  Arg.(
    value & opt int 1
    & info [ "passes" ] ~docv:"P"
        ~doc:
          "Run the whole manifest $(docv) times against the same store \
           (pass 2+ measures the warm cache).")

let njobs =
  Arg.(
    value & opt int 0
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          (Printf.sprintf
             "Shard the manifest across $(docv) worker processes (stable \
              hash of job id), at most %d. Each worker has a private \
              in-memory cache tier that stays warm across --passes; all \
              workers share the --cache-dir disk tier. Output is emitted \
              in canonical job-id order. 0 (the default) means the \
              machine's core count."
             Service.Worker.max_workers))

let quiet =
  Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress per-job progress lines.")

let list_props =
  Arg.(
    value & flag
    & info [ "list-properties" ]
        ~doc:"Print the property catalogue and graph formats, then exit.")

let connect =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"SOCKET"
        ~doc:
          "Client mode: submit the manifest's jobs to the certd-server \
           daemon listening on the unix-domain socket $(docv) instead of \
           running them in-process. Output and exit codes match batch mode.")

let window =
  Arg.(
    value & opt int 16
    & info [ "window" ] ~docv:"N"
        ~doc:
          "With --connect: keep at most $(docv) submissions unanswered at \
           a time.")

let deadline_ms =
  Arg.(
    value & opt float 0.0
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "With --connect: per-job deadline budget the daemon's retry \
           policy must respect. 0 means the daemon's default.")

let server_stats =
  Arg.(
    value & flag
    & info [ "server-stats" ]
        ~doc:
          "With --connect: print the daemon's live statistics (queue, \
           workers, store, stage percentiles) as JSON and exit.")

let server_shutdown =
  Arg.(
    value & flag
    & info [ "server-shutdown" ]
        ~doc:
          "With --connect: ask the daemon to drain its queue and exit, as \
           SIGTERM would.")

let edits =
  Arg.(
    value
    & opt (some string) None
    & info [ "edits" ] ~docv:"FILE"
        ~doc:
          "With --connect: streaming edit mode. Open a daemon-side delta \
           session on the manifest's single job, then apply $(docv) one \
           line at a time (each line an edit batch like \
           'add=0-1,2-3 del=4-5'; blank lines and #-comments skipped). \
           Each step is re-certified incrementally and re-verified before \
           it is served; replies stream back in edit order.")

let edits_full =
  Arg.(
    value & flag
    & info [ "edits-full" ]
        ~doc:
          "With --edits: force a from-scratch recompute at every step \
           (same representation policy, no splice) — the differential \
           anchor whose canonical JSONL must match the incremental run \
           byte for byte.")

let session =
  Arg.(
    value
    & opt (some string) None
    & info [ "session" ] ~docv:"SID"
        ~doc:
          "With --edits: the session id used to resume the edit stream \
           against a journal-backed daemon after a crash or disconnect \
           (default: a fresh id derived from this process).")

let stream =
  Arg.(
    value & flag
    & info [ "stream" ]
        ~doc:
          "Batch mode: stream the manifest through the engine in constant \
           memory — jobs are parsed, run, and reported one at a time, never \
           materialized as a list, so corpus size is bounded by disk, not \
           RAM. Reports are emitted in manifest order (the batch default \
           sorts by job id; the two agree whenever the manifest is \
           id-sorted, e.g. any --workload stream). Implied by --workload.")

let workload =
  Arg.(
    value
    & opt (some string) None
    & info [ "workload" ] ~docv:"SPEC"
        ~doc:
          "Generate the job stream instead of reading a manifest: \
           Zipf-distributed popularity over a hot universe with seeded \
           cold/corrupt adversarial mixes, e.g. \
           'zipf:u=2000,t=1000000,s=1.05,seed=42,cold=0.01,corrupt=0.002'. \
           Deterministic in the spec; exclusive with --manifest.")

let write_batch =
  Arg.(
    value & opt int 1
    & info [ "write-batch" ] ~docv:"B"
        ~doc:
          "Group-commit the certificate store's disk writes: pool up to \
           $(docv) new records and write them in one burst with a single \
           directory fsync per batch (1, the default, writes through). A \
           crash loses at most the unflushed tail — future cache misses, \
           never corruption.")

let cmd =
  let doc = "batch certification service driver (cached Theorem 1 pipeline)" in
  Cmd.v
    (Cmd.info "certd" ~doc)
    Term.(
      const run $ manifest $ base_dir $ cache_cap $ cache_dir $ disk_cap
      $ faults $ jsonl $ canonical $ passes $ njobs $ quiet $ list_props
      $ connect $ window $ deadline_ms $ server_stats $ server_shutdown
      $ edits $ edits_full $ session $ stream $ workload $ write_batch)

let () = exit (Cmd.eval cmd)

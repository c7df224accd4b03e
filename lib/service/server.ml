(** The persistent certification daemon: a single-threaded select/poll
    event loop owning a unix-domain socket, a bounded admission queue,
    and a supervised pool of long-lived worker processes.

    {b Admission control.} Every [Submit] passes two gates before it is
    queued: a global cap ([queue_cap]) on jobs waiting for a worker,
    and a per-client cap ([client_cap]) on how many of those one
    connection may hold. Either gate refusing answers [Overloaded]
    immediately — explicit backpressure, never an unbounded buffer —
    and the counters on the stats endpoint record every refusal.
    Queued jobs are dispatched round-robin {e across clients}, so a
    client that floods its quota still cannot starve a client that
    submits one job at a time. Replies cannot stall the loop either:
    client sockets are nonblocking, undeliverable frames queue per
    client and drain through select's write set, and a client that
    stops reading its replies past a byte cap is dropped.

    {b Worker supervision.} Workers run the {!Worker} runtime. They are
    forked once and live for the daemon's whole life, keeping each
    worker's in-memory cache tier warm across jobs. The parent watches
    every worker pipe; EOF means the worker died (a real crash, or
    [Blob_io.Crashed] — a worker that sees a simulated process death
    sends its [Crashed] frame and [_exit]s, because a dead process
    does not handle exceptions). The supervisor reaps the
    corpse, requeues the in-flight job ({e once} — a job that kills
    two workers is reported [Failed], not retried forever), and forks
    a replacement into the same slot. A slot whose worker dies three
    times before ever signalling readiness (e.g. an uncreatable cache
    directory) is stopped rather than respawned in a hot loop.

    {b Graceful degradation and observability.} A worker whose store
    demoted to memory-only keeps serving — its reports carry
    [served_degraded]. Every worker message carries its counter deltas
    (store, composition memo, GC), timed or not, and the daemon sums
    them into its [Timing] sink; with the stage percentiles, the job
    tallies, queue depth and high-water mark, drops and worker
    restarts, that sink answers a live [Stats_req] endpoint.

    {b Shutdown.} SIGTERM/SIGINT (via the self-pipe trick, so the
    handler does nothing async-unsafe) close the listener, refuse new
    submissions with [Overloaded], drain every queued job through the
    workers, answer the last client, reap the pool, unlink the socket,
    and return.

    {b Durability.} With [journal_dir] set, every delta-session open
    and edit is appended to a checksummed write-ahead [Journal]
    {e before} its reply leaves the daemon. A client whose connection
    died mid-stream (the server was killed and respawned, or the
    daemon dropped it) re-attaches with [dopen resume=1 sid]: the
    journaled open report is served immediately, the session state is
    rebuilt worker-side by replaying the journaled request sequence
    through the full prove/verify discipline (every replayed canonical
    line is checked against the journal — divergence is counted, and
    would indicate non-determinism, never an unverified serve), and
    an already-served edit serial is answered from the journal without
    recomputation — exactly-once from the client's point of view.

    {b Single instance.} The daemon takes an [fcntl] lock on
    [socket_path ^ ".pid"] before touching the socket. A second server
    started on the same path fails with [Sys_error] instead of racing
    the first for the socket file, and a stale socket left by a killed
    daemon is unlinked safely — holding the lock proves its owner is
    dead. *)

type config = {
  socket_path : string;
  workers : int;  (** size of the long-lived worker pool, >= 1 *)
  queue_cap : int;  (** global admission-queue bound, >= 1 *)
  client_cap : int;  (** per-client share of the queue, >= 1 *)
  make_engine : worker:int -> Timing.t option -> Engine.t;
      (** called once {e inside} each worker process, after the fork;
          [worker] is the pool slot, letting drills give each worker
          its own fault plan *)
  timed : bool;  (** ship per-stage samples from workers to the stats sink *)
  verbose : bool;
  journal_dir : string option;
      (** where the write-ahead session journal lives; [None] disables
          durability (sessions die with the process, as before) *)
  journal_fsync : Journal.fsync_policy;
  journal_checkpoint : int;  (** appends between compactions; <= 0 never *)
}

let default_queue_cap = 64

let default_client_cap cap = max 1 (cap / 4)

(* ---------------------------------------------------------------- *)
(* supervisor state                                                  *)

type jkind =
  | Jk_submit  (** a one-shot [Submit]: any worker may run it *)
  | Jk_open  (** [Delta_open]: any worker; pins the client to its slot *)
  | Jk_edit of { full : bool; ops : string }
      (** [Delta_edit]: only the pinned slot holds the session *)

type job_ctx = {
  jc_serial : int;  (** the client's token, echoed in the reply *)
  jc_client : int;
  jc_job : Manifest.job;
      (** the job itself, or — for [Jk_edit] — the session's base job,
          so a parent-made [Failed] report still names the session *)
  jc_kind : jkind;
  jc_deadline_ms : float;
  jc_sid : string option;  (** wire session id, for journaling *)
  jc_line : string;  (** the open's verbatim manifest line, journaled *)
  jc_internal : bool;
      (** a resume-rebuild job: replayed from the journal to
          reconstruct worker state — no client reply, no re-journal *)
  jc_expect : string option;
      (** the journaled canonical line an internal rebuild must
          reproduce (the determinism check) *)
  mutable jc_retried : bool;  (** already survived one worker death *)
  mutable jc_token : int;  (** dispatch token of the current attempt *)
}

type worker = {
  w_idx : int;
  mutable w_proc : Worker.t option;  (** the live incarnation, if any *)
  mutable w_ready : bool;
  mutable w_busy : job_ctx option;
  mutable w_done : int;  (** jobs completed, across all incarnations *)
  mutable w_preready_deaths : int;  (** consecutive deaths before Ready *)
  mutable w_stopped : bool;  (** supervisor gave up respawning this slot *)
  mutable w_degraded : bool;
}

type client = {
  c_id : int;
  c_fd : Unix.file_descr;  (** nonblocking for the daemon's whole life *)
  c_conn : Wire.conn;
  c_queue : job_ctx Queue.t;
  c_out : string Queue.t;  (** encoded frames not yet on the wire *)
  mutable c_out_off : int;  (** bytes of the head frame already written *)
  mutable c_out_bytes : int;  (** total unwritten bytes across [c_out] *)
  mutable c_alive : bool;
  mutable c_hello : bool;  (** the version handshake completed *)
  mutable c_closing : bool;
      (** a fatal protocol error was answered; close the connection
          once the error frame has drained *)
  mutable c_slot : int option;
      (** worker slot holding this client's delta session — set when a
          [Jk_open] is dispatched; edits are only eligible for it *)
  mutable c_opened : bool;
      (** a session open has been queued and not since lost; gates
          edit admission *)
  mutable c_base : Manifest.job option;  (** the session's base job *)
  mutable c_sid : string option;  (** the open session's wire id *)
}

type counters = {
  mutable submitted : int;
  mutable requeued : int;  (** jobs given their one post-crash retry *)
  mutable dropped : int;  (** queued jobs of clients that disconnected *)
  mutable rejected_overload : int;  (** queue full, or draining *)
  mutable rejected_quota : int;  (** per-client cap exceeded *)
  mutable parse_errors : int;
  mutable restarts : int;  (** workers respawned after a death *)
  mutable max_queue : int;
  mutable resumed : int;  (** sessions re-attached from the journal *)
  mutable rebuilt_steps : int;  (** internal replay jobs completed *)
  mutable resume_mismatch : int;
      (** replayed canonical lines that diverged from the journal *)
  mutable dedup_served : int;
      (** already-applied edit serials answered from the journal *)
  mutable journal_errors : int;  (** appends lost to I/O failure *)
  mutable bad_hello : int;  (** connections rejected by the handshake *)
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  mutable listening : bool;
  pid_fd : Unix.file_descr;  (** holds the instance lock for life *)
  pidfile : string;
  journal : Journal.t option;
  sig_r : Unix.file_descr;
  sig_w : Unix.file_descr;
  timing : Timing.t;  (** stage samples and every worker's counters *)
  mutable jobs : Stats.summary;  (** every job answered to a client *)
  workers : worker array;
  mutable clients : client list;
  retry_q : job_ctx Queue.t;  (** crash-orphaned jobs, served first *)
  mutable rr : int;  (** id of the last client a job was taken from *)
  mutable next_client : int;
  mutable next_token : int;
  mutable draining : bool;
  started : float;
  c : counters;
}

let queue_depth t =
  Queue.length t.retry_q
  + List.fold_left (fun acc c -> acc + Queue.length c.c_queue) 0 t.clients

let inflight t =
  Array.fold_left
    (fun acc w -> if w.w_busy <> None then acc + 1 else acc)
    0 t.workers

let log t fmt =
  if t.cfg.verbose then Printf.printf ("certd-server: " ^^ fmt ^^ "\n%!")
  else Printf.ifprintf stdout fmt

(* ---------------------------------------------------------------- *)
(* worker lifecycle                                                  *)

let close_quietly = Worker.close_quietly

(* the child sheds every parent-side fd: listener, instance lock (fcntl
   locks are per-process, so closing the inherited fd does not release
   the parent's), signal pipe, client sockets, sibling pipes *)
let spawn_worker t idx =
  let w = t.workers.(idx) in
  let shed =
    (if t.listening then [ t.listen_fd ] else [])
    @ [ t.pid_fd; t.sig_r; t.sig_w ]
    @ List.map (fun c -> c.c_fd) t.clients
    @ List.concat_map
        (fun other ->
          match other.w_proc with
          | Some p -> [ p.Worker.to_w; p.Worker.from_w ]
          | None -> [])
        (Array.to_list t.workers)
  in
  w.w_proc <-
    Some
      (Worker.spawn ~shed ~make_engine:t.cfg.make_engine ~timed:t.cfg.timed
         idx);
  w.w_ready <- false;
  w.w_busy <- None

(* ---------------------------------------------------------------- *)
(* replies                                                           *)

(* best-effort session teardown in a pinned slot: the worker is long
   past due for a [Delta_close] when its client died or re-opened
   elsewhere; a write failure means the slot is dying anyway and takes
   the session with it *)
let send_close t idx ~client =
  match t.workers.(idx).w_proc with
  | Some p -> (
      try Worker.send p (Worker.Delta_close { client })
      with Sys_error _ | Unix.Unix_error _ -> ())
  | None -> ()

let client_dead t c =
  if c.c_alive then begin
    c.c_alive <- false;
    (match c.c_slot with
    | Some idx -> send_close t idx ~client:c.c_id
    | None -> ());
    c.c_slot <- None;
    c.c_opened <- false;
    t.c.dropped <- t.c.dropped + Queue.length c.c_queue;
    Queue.clear c.c_queue;
    Queue.clear c.c_out;
    c.c_out_off <- 0;
    c.c_out_bytes <- 0;
    close_quietly c.c_fd;
    t.clients <- List.filter (fun c' -> c'.c_id <> c.c_id) t.clients
  end

(* Replies to a live client may only wait on the client, never on the
   event loop: the fd is nonblocking, frames queue in [c_out], and a
   full socket buffer parks the remainder for select's write set. A
   client that keeps submitting but stops reading hits the backlog cap
   and is dropped — it cannot stall the daemon for everyone else. *)

let max_client_backlog = 2 * Wire.max_frame
(* >= one max-size frame, so a single huge (legitimate) reply is never
   itself grounds for dropping a client that is still reading *)

let rec flush_client t c =
  if c.c_alive && not (Queue.is_empty c.c_out) then begin
    let head = Queue.peek c.c_out in
    let len = String.length head - c.c_out_off in
    match Unix.write_substring c.c_fd head c.c_out_off len with
    | n ->
        c.c_out_bytes <- c.c_out_bytes - n;
        if n = len then begin
          ignore (Queue.pop c.c_out : string);
          c.c_out_off <- 0;
          flush_client t c
        end
        else c.c_out_off <- c.c_out_off + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        () (* socket buffer full: select's write set resumes us *)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush_client t c
    | exception (Unix.Unix_error _ | Sys_error _) -> client_dead t c
  end

(* a connection answered with a fatal protocol error closes as soon as
   the error frame has actually left — never before, so the client
   reads a descriptive reason instead of a bare hangup *)
let maybe_close t c =
  if c.c_alive && c.c_closing && c.c_out_bytes = 0 then client_dead t c

let reply t c resp =
  if c.c_alive then begin
    let frame = Wire.frame (Wire.encode_response resp) in
    Queue.push frame c.c_out;
    c.c_out_bytes <- c.c_out_bytes + String.length frame;
    flush_client t c;
    if c.c_alive && c.c_out_bytes > max_client_backlog then begin
      log t "client %d dropped: %d reply bytes unread" c.c_id c.c_out_bytes;
      client_dead t c
    end
    else maybe_close t c
  end

(* the drain-time flush: the loop is over, so block — but only as long
   as the send timeout, a peer that stopped reading must not wedge the
   shutdown *)
let flush_final t c =
  if c.c_alive && c.c_out_bytes > 0 then begin
    (try Unix.clear_nonblock c.c_fd with Unix.Unix_error _ -> ());
    (try Unix.setsockopt_float c.c_fd Unix.SO_SNDTIMEO 10.0
     with Unix.Unix_error _ -> ());
    let rec go () =
      if c.c_alive && not (Queue.is_empty c.c_out) then begin
        let head = Queue.peek c.c_out in
        let len = String.length head - c.c_out_off in
        match Unix.write_substring c.c_fd head c.c_out_off len with
        | n ->
            c.c_out_bytes <- c.c_out_bytes - n;
            if n = len then begin
              ignore (Queue.pop c.c_out : string);
              c.c_out_off <- 0
            end
            else c.c_out_off <- c.c_out_off + n;
            go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception (Unix.Unix_error _ | Sys_error _) ->
            (* EAGAIN here means the send timeout expired *)
            client_dead t c
      end
    in
    go ()
  end

let find_client t id = List.find_opt (fun c -> c.c_id = id) t.clients

let adopt_client t fd =
  (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
  let c =
    {
      c_id = t.next_client;
      c_fd = fd;
      c_conn = Wire.conn_create ();
      c_queue = Queue.create ();
      c_out = Queue.create ();
      c_out_off = 0;
      c_out_bytes = 0;
      c_alive = true;
      c_hello = false;
      c_closing = false;
      c_slot = None;
      c_opened = false;
      c_base = None;
      c_sid = None;
    }
  in
  t.next_client <- t.next_client + 1;
  t.clients <- c :: t.clients;
  log t "client %d connected (%d clients)" c.c_id (List.length t.clients)

(* a parent-made terminal report for a job whose worker died twice *)
let failed_report (jc : job_ctx) msg =
  Stats.bare_report ~id:jc.jc_job.Manifest.job_id
    ~property:jc.jc_job.Manifest.property ~k:jc.jc_job.Manifest.k ~retries:1
    (Stats.Failed msg)

let report_response (jc : job_ctx) (r : Stats.job_report) =
  Wire.Report
    {
      serial = jc.jc_serial;
      id = r.Stats.r_id;
      status = Stats.status_name r.Stats.r_status;
      json = Stats.to_json r;
      canonical = Stats.to_canonical_json r;
    }

let dreport_response (jc : job_ctx) (r : Stats.job_report) patch =
  Wire.Dreport
    {
      serial = jc.jc_serial;
      id = r.Stats.r_id;
      status = Stats.status_name r.Stats.r_status;
      json = Stats.to_json r;
      canonical = Stats.to_canonical_json r;
      patch;
    }

(* append the served judgement to the journal BEFORE the reply leaves:
   a crash between append and reply makes the client resend, and the
   resend is answered from the journal — exactly-once either way. An
   append lost to an I/O error is counted and serving continues
   (availability over durability, like the degraded store); a simulated
   process death propagates, as everywhere else. *)
let journal_serve t jc (r : Stats.job_report) patch =
  match (t.journal, jc.jc_sid) with
  | Some j, Some sid -> (
      let reply_rec =
        {
          Journal.r_id = r.Stats.r_id;
          r_status = Stats.status_name r.Stats.r_status;
          r_json = Stats.to_json r;
          r_canonical = Stats.to_canonical_json r;
          r_patch = patch;
        }
      in
      try
        match jc.jc_kind with
        | Jk_open ->
            Journal.log_open j ~sid ~serial:jc.jc_serial ~line:jc.jc_line
              reply_rec
        | Jk_edit { full; ops } ->
            Journal.log_step j ~sid ~serial:jc.jc_serial ~full ~ops reply_rec
        | Jk_submit -> ()
      with Sys_error e ->
        t.c.journal_errors <- t.c.journal_errors + 1;
        log t "journal append failed: %s" e)
  | _ -> ()

let finish_job ?(patch = "{}") t jc (r : Stats.job_report) =
  if jc.jc_internal then begin
    (* a resume-rebuild job: its only observable effect is worker-side
       session state. The replayed canonical line must match what the
       journal says was served — the pipeline is deterministic, so a
       divergence means the rebuilt session is not the one the client
       was streaming against, and it is counted loudly. *)
    t.c.rebuilt_steps <- t.c.rebuilt_steps + 1;
    match jc.jc_expect with
    | Some expect when expect <> Stats.to_canonical_json r ->
        t.c.resume_mismatch <- t.c.resume_mismatch + 1;
        log t "resume replay diverged from the journal for %s"
          r.Stats.r_id
    | _ -> ()
  end
  else begin
    t.jobs <- Stats.summary_add t.jobs r;
    journal_serve t jc r patch;
    match find_client t jc.jc_client with
    | Some c ->
        reply t c
          (match jc.jc_kind with
          | Jk_submit -> report_response jc r
          | Jk_open | Jk_edit _ -> dreport_response jc r patch)
    | None -> () (* the requester hung up; the judgement is dropped *)
  end

(* ---------------------------------------------------------------- *)
(* dispatch: crash-retries first, then round-robin across clients    *)

(* which worker may run a job: anything one-shot goes anywhere, an
   edit only to the slot holding its client's session *)
let eligible t w jc =
  match jc.jc_kind with
  | Jk_submit | Jk_open -> true
  | Jk_edit _ -> (
      match find_client t jc.jc_client with
      | Some c -> c.c_slot = Some w.w_idx
      | None -> false)

(* pop the first retry-queue job this worker may run; an edit whose
   client hung up is dropped on the floor here (its reply had no
   recipient anyway, and it would never become eligible again) *)
let take_retry t w =
  let keep = Queue.create () in
  let taken = ref None in
  Queue.iter
    (fun jc ->
      if !taken <> None then Queue.push jc keep
      else
        match jc.jc_kind with
        | Jk_edit _ when find_client t jc.jc_client = None ->
            t.c.dropped <- t.c.dropped + 1
        | _ -> if eligible t w jc then taken := Some jc else Queue.push jc keep)
    t.retry_q;
  Queue.clear t.retry_q;
  Queue.transfer keep t.retry_q;
  !taken

(* Round-robin across clients, but only over queue HEADS: taking a
   later job from a queue whose head this worker cannot run would
   reorder one client's session stream. A client whose head is an
   edit pinned elsewhere simply waits for its slot. *)
let next_job_for t w =
  match take_retry t w with
  | Some jc -> Some jc
  | None -> (
      let with_jobs =
        List.filter
          (fun c ->
            (not (Queue.is_empty c.c_queue)) && eligible t w (Queue.peek c.c_queue))
          t.clients
        |> List.sort (fun a b -> compare a.c_id b.c_id)
      in
      let chosen =
        match List.find_opt (fun c -> c.c_id > t.rr) with_jobs with
        | Some c -> Some c
        | None -> ( match with_jobs with c :: _ -> Some c | [] -> None)
      in
      match chosen with
      | None -> None
      | Some c ->
          t.rr <- c.c_id;
          Some (Queue.pop c.c_queue))

let assign t w jc =
  let token = t.next_token in
  t.next_token <- t.next_token + 1;
  jc.jc_token <- token;
  (* an open pins its client to this slot; a session still living in a
     previously pinned slot is torn down — one session per client *)
  (match jc.jc_kind with
  | Jk_open -> (
      match find_client t jc.jc_client with
      | Some c ->
          (match c.c_slot with
          | Some old when old <> w.w_idx -> send_close t old ~client:c.c_id
          | _ -> ());
          c.c_slot <- Some w.w_idx
      | None -> ())
  | Jk_submit | Jk_edit _ -> ());
  let msg =
    match jc.jc_kind with
    | Jk_submit ->
        Worker.Job { token; job = jc.jc_job; deadline_ms = jc.jc_deadline_ms }
    | Jk_open ->
        Worker.Delta_job
          {
            token;
            client = jc.jc_client;
            deadline_ms = jc.jc_deadline_ms;
            op = Worker.Dopen jc.jc_job;
          }
    | Jk_edit { full; ops } ->
        Worker.Delta_job
          {
            token;
            client = jc.jc_client;
            deadline_ms = jc.jc_deadline_ms;
            op = Worker.Dedit { full; ops };
          }
  in
  w.w_busy <- Some jc;
  match Option.iter (fun p -> Worker.send p msg) w.w_proc with
  | () -> ()
  | exception (Sys_error _ | Unix.Unix_error _) ->
      (* the worker died under us; hand the job back untouched (it
         never started, so this is not its one retry). The slot must
         stop looking idle before dispatch continues, or it would pick
         the same corpse for the same job forever without ever
         reaching the select loop — so mark it unready and let the EOF
         path reap and respawn *)
      w.w_ready <- false;
      w.w_busy <- None;
      Queue.push jc t.retry_q

let rec dispatch t =
  let progressed = ref false in
  Array.iter
    (fun w ->
      if w.w_ready && w.w_busy = None && w.w_proc <> None then
        match next_job_for t w with
        | None -> ()
        | Some jc ->
            assign t w jc;
            progressed := true)
    t.workers;
  (* a successful assign may have unblocked a pinned edit behind it;
     a failed one put the job back for another slot. Either way the
     pass strictly shrank queue+idle, so this terminates. *)
  if !progressed then dispatch t

(* ---------------------------------------------------------------- *)
(* the stats endpoint                                                *)

let stats_json t =
  let live =
    Array.fold_left
      (fun acc w -> if w.w_proc <> None then acc + 1 else acc)
      0 t.workers
  in
  let stopped =
    Array.fold_left
      (fun acc w -> if w.w_stopped then acc + 1 else acc)
      0 t.workers
  in
  let degraded = Array.exists (fun w -> w.w_degraded) t.workers in
  let j = t.jobs in
  let durability =
    Printf.sprintf
      "{\"resumed\":%d,\"rebuilt_steps\":%d,\"resume_mismatch\":%d,\
       \"dedup_served\":%d,\"journal_errors\":%d,\"bad_hello\":%d,\
       \"journal\":%s}"
      t.c.resumed t.c.rebuilt_steps t.c.resume_mismatch t.c.dedup_served
      t.c.journal_errors t.c.bad_hello
      (match t.journal with
      | Some j -> Journal.counters_json j
      | None -> "null")
  in
  Printf.sprintf
    "{\"uptime_s\":%.3f,\"draining\":%b,\"queue\":{\"depth\":%d,\"cap\":%d,\"max_depth\":%d,\"client_cap\":%d,\"inflight\":%d},\"jobs\":{\"submitted\":%d,\"completed\":%d,\"served\":%d,\"served_degraded\":%d,\"cached\":%d,\"cache_rejects\":%d,\"declined\":%d,\"failed\":%d,\"input_error\":%d,\"unsound\":%d,\"requeued\":%d,\"dropped\":%d},\"admission\":{\"rejected_overload\":%d,\"rejected_quota\":%d,\"parse_errors\":%d},\"workers\":{\"configured\":%d,\"live\":%d,\"restarts\":%d,\"stopped\":%d,\"degraded\":%b},\"store\":%s,\"durability\":%s,\"counters\":%s,\"stages\":%s}"
    (Unix.gettimeofday () -. t.started)
    t.draining (queue_depth t) t.cfg.queue_cap t.c.max_queue t.cfg.client_cap
    (inflight t) t.c.submitted j.Stats.s_jobs j.Stats.s_served
    j.Stats.s_degraded j.Stats.s_cached j.Stats.s_cache_rejects
    j.Stats.s_declined j.Stats.s_failed j.Stats.s_errors j.Stats.s_unsound
    t.c.requeued t.c.dropped t.c.rejected_overload t.c.rejected_quota
    t.c.parse_errors t.cfg.workers live t.c.restarts stopped degraded
    (Timing.json_of_counts (Timing.select t.timing Cert_store.counter_names))
    durability
    (Timing.json_of_counts
       (Timing.counters ~hide:Cert_store.counter_names t.timing))
    (Timing.report_json t.timing)

(* ---------------------------------------------------------------- *)
(* request handling                                                  *)

let begin_drain t =
  if not t.draining then begin
    t.draining <- true;
    if t.listening then begin
      (* a client whose connect() already completed into the backlog is
         committed: closing the listener would RST it and silently drop
         whatever it wrote. Adopt every pending connection first — its
         requests get answered (submissions with Overloaded, since we
         are draining) before the final close. *)
      (try Unix.set_nonblock t.listen_fd with Unix.Unix_error _ -> ());
      let rec adopt_backlog () =
        match Unix.accept t.listen_fd with
        | fd, _ ->
            (try Unix.clear_nonblock fd with Unix.Unix_error _ -> ());
            adopt_client t fd;
            adopt_backlog ()
        | exception Unix.Unix_error _ -> ()
      in
      adopt_backlog ();
      close_quietly t.listen_fd;
      t.listening <- false;
      (try Sys.remove t.cfg.socket_path with Sys_error _ -> ())
    end;
    log t "draining: %d queued, %d in flight" (queue_depth t) (inflight t)
  end

(* the admission gates every queueing request passes: refuse while
   draining, at the global cap, and past the client's quota *)
let admitted t c serial =
  if t.draining then begin
    t.c.rejected_overload <- t.c.rejected_overload + 1;
    reply t c (Wire.Overloaded { serial; reason = "server is draining" });
    false
  end
  else if queue_depth t >= t.cfg.queue_cap then begin
    t.c.rejected_overload <- t.c.rejected_overload + 1;
    reply t c
      (Wire.Overloaded
         {
           serial;
           reason =
             Printf.sprintf "admission queue full (cap %d)" t.cfg.queue_cap;
         });
    false
  end
  else if Queue.length c.c_queue >= t.cfg.client_cap then begin
    t.c.rejected_quota <- t.c.rejected_quota + 1;
    reply t c
      (Wire.Overloaded
         {
           serial;
           reason =
             Printf.sprintf "client quota exceeded (cap %d)" t.cfg.client_cap;
         });
    false
  end
  else true

(* a [Submit] and a [Delta_open] both carry exactly one manifest line *)
let parse_one_job t c serial line =
  match Manifest.parse line with
  | Error e ->
      t.c.parse_errors <- t.c.parse_errors + 1;
      reply t c (Wire.Err { serial; reason = e });
      None
  | Ok [] ->
      t.c.parse_errors <- t.c.parse_errors + 1;
      reply t c (Wire.Err { serial; reason = "no job in submission" });
      None
  | Ok (_ :: _ :: _) ->
      t.c.parse_errors <- t.c.parse_errors + 1;
      reply t c
        (Wire.Err { serial; reason = "a submission is exactly one job line" });
      None
  | Ok [ job ] -> Some job

let enqueue t c jc =
  t.c.submitted <- t.c.submitted + 1;
  Queue.push jc c.c_queue;
  t.c.max_queue <- max t.c.max_queue (queue_depth t);
  dispatch t

(* the resume-rebuild chain bypasses admission (it is the server's own
   recovery work, not client traffic) but still rides the client's
   queue, so the client's next live edit dispatches strictly after the
   session state it needs exists again *)
let enqueue_internal t c jc =
  Queue.push jc c.c_queue;
  t.c.max_queue <- max t.c.max_queue (queue_depth t)

let protocol_err =
  Printf.sprintf
    "expected hello (this server speaks protocol version %d); upgrade the \
     client"
    Wire.protocol_version

(* another live connection already streaming against [sid]: admitting a
   second writer would interleave two edit streams in one journal *)
let sid_busy t c sid =
  List.exists
    (fun c' -> c'.c_alive && c'.c_id <> c.c_id && c'.c_sid = Some sid)
    t.clients

let dreport_of_journal serial (r : Journal.reply) =
  Wire.Dreport
    {
      serial;
      id = r.Journal.r_id;
      status = r.Journal.r_status;
      json = r.Journal.r_json;
      canonical = r.Journal.r_canonical;
      patch = r.Journal.r_patch;
    }

(* re-attach [c] to the journaled session [sid]: serve the journaled
   open report now, and queue an internal replay of the whole journaled
   request sequence to rebuild the worker-side state — through the
   full prove/verify discipline, exactly as the original stream ran *)
let resume_session t c ~serial ~deadline_ms ~sid j (z : Journal.session) =
  match Manifest.parse z.Journal.z_line with
  | Ok [ job ] ->
      c.c_sid <- Some sid;
      c.c_opened <- true;
      c.c_base <- Some job;
      t.c.resumed <- t.c.resumed + 1;
      reply t c (dreport_of_journal serial z.Journal.z_open);
      enqueue_internal t c
        {
          jc_serial = -1;
          jc_client = c.c_id;
          jc_job = job;
          jc_kind = Jk_open;
          jc_deadline_ms = deadline_ms;
          jc_sid = Some sid;
          jc_line = z.Journal.z_line;
          jc_internal = true;
          jc_expect = Some z.Journal.z_open.Journal.r_canonical;
          jc_retried = false;
          jc_token = -1;
        };
      List.iter
        (fun (p : Journal.step) ->
          enqueue_internal t c
            {
              jc_serial = -1;
              jc_client = c.c_id;
              jc_job = job;
              jc_kind = Jk_edit { full = p.Journal.p_full; ops = p.Journal.p_ops };
              jc_deadline_ms = deadline_ms;
              jc_sid = Some sid;
              jc_line = z.Journal.z_line;
              jc_internal = true;
              jc_expect = Some p.Journal.p_reply.Journal.r_canonical;
              jc_retried = false;
              jc_token = -1;
            })
        (List.rev z.Journal.z_steps);
      log t "client %d resumed session %s (%d journaled edits replaying)"
        c.c_id sid
        (List.length z.Journal.z_steps);
      ignore j;
      dispatch t
  | Ok _ | Error _ ->
      reply t c
        (Wire.Err
           { serial; reason = "journaled base job line no longer parses" })

let handle_request t c req =
  match req with
  | _ when c.c_closing -> ()
  | Wire.Hello { version } ->
      if version = Wire.protocol_version then begin
        c.c_hello <- true;
        reply t c (Wire.Hello_ok { version = Wire.protocol_version })
      end
      else begin
        t.c.bad_hello <- t.c.bad_hello + 1;
        c.c_closing <- true;
        reply t c
          (Wire.Err
             {
               serial = -1;
               reason =
                 Printf.sprintf
                   "protocol version mismatch: client speaks %d, server \
                    speaks %d"
                   version Wire.protocol_version;
             })
      end
  | _ when not c.c_hello ->
      t.c.bad_hello <- t.c.bad_hello + 1;
      c.c_closing <- true;
      reply t c (Wire.Err { serial = -1; reason = protocol_err })
  | Wire.Ping -> reply t c Wire.Pong
  | Wire.Stats_req -> reply t c (Wire.Stats_reply (stats_json t))
  | Wire.Shutdown ->
      reply t c Wire.Pong;
      begin_drain t
  | Wire.Submit { serial; canonical = _; deadline_ms; line } ->
      if admitted t c serial then begin
        match parse_one_job t c serial line with
        | None -> ()
        | Some job ->
            enqueue t c
              {
                jc_serial = serial;
                jc_client = c.c_id;
                jc_job = job;
                jc_kind = Jk_submit;
                jc_deadline_ms = deadline_ms;
                jc_sid = None;
                jc_line = "";
                jc_internal = false;
                jc_expect = None;
                jc_retried = false;
                jc_token = -1;
              }
      end
  | Wire.Delta_open { serial; deadline_ms; sid; resume = true; line = _ } -> (
      match t.journal with
      | None ->
          reply t c
            (Wire.Err
               {
                 serial;
                 reason = "resume unavailable: the server runs without a journal";
               })
      | Some j ->
          if sid_busy t c sid then
            reply t c
              (Wire.Err
                 {
                   serial;
                   reason =
                     Printf.sprintf "session %s busy: another client holds it"
                       sid;
                 })
          else if admitted t c serial then begin
            match Journal.find j sid with
            | Some z -> resume_session t c ~serial ~deadline_ms ~sid j z
            | None ->
                reply t c
                  (Wire.Err
                     {
                       serial;
                       reason =
                         Printf.sprintf
                           "unknown session %s: nothing to resume" sid;
                     })
          end)
  | Wire.Delta_open { serial; deadline_ms; sid; resume = false; line } ->
      if sid_busy t c sid then
        reply t c
          (Wire.Err
             {
               serial;
               reason =
                 Printf.sprintf "session %s busy: another client holds it" sid;
             })
      else if admitted t c serial then begin
        match parse_one_job t c serial line with
        | None -> ()
        | Some job ->
            c.c_opened <- true;
            c.c_base <- Some job;
            c.c_sid <- Some sid;
            enqueue t c
              {
                jc_serial = serial;
                jc_client = c.c_id;
                jc_job = job;
                jc_kind = Jk_open;
                jc_deadline_ms = deadline_ms;
                jc_sid = Some sid;
                jc_line = line;
                jc_internal = false;
                jc_expect = None;
                jc_retried = false;
                jc_token = -1;
              }
      end
  | Wire.Delta_edit { serial; deadline_ms; full; ops } -> (
      match c.c_base with
      | Some base when c.c_opened -> (
          let enqueue_edit () =
            if admitted t c serial then
              enqueue t c
                {
                  jc_serial = serial;
                  jc_client = c.c_id;
                  jc_job = base;
                  jc_kind = Jk_edit { full; ops };
                  jc_deadline_ms = deadline_ms;
                  jc_sid = c.c_sid;
                  jc_line = "";
                  jc_internal = false;
                  jc_expect = None;
                  jc_retried = false;
                  jc_token = -1;
                }
          in
          (* journal-backed idempotence: an already-applied serial is a
             resend from a client that never saw its reply — answer it
             from the journal, byte-for-byte, without recomputation; a
             serial past the next expected one lost an edit in flight
             and can only diverge, so refuse it descriptively *)
          match (t.journal, c.c_sid) with
          | Some j, Some sid -> (
              match Journal.find j sid with
              | Some z when serial >= 1 && serial <= z.Journal.z_applied -> (
                  match Journal.reply_for j ~sid ~serial with
                  | Some r ->
                      t.c.dedup_served <- t.c.dedup_served + 1;
                      reply t c (dreport_of_journal serial r)
                  | None ->
                      reply t c
                        (Wire.Err
                           {
                             serial;
                             reason =
                               "edit already applied but its reply has been \
                                compacted out of the journal";
                           }))
              | Some z when serial > z.Journal.z_applied + 1 ->
                  reply t c
                    (Wire.Err
                       {
                         serial;
                         reason =
                           Printf.sprintf
                             "serial gap: expected %d, got %d — an edit was \
                              lost in flight"
                             (z.Journal.z_applied + 1)
                             serial;
                       })
              | _ -> enqueue_edit ())
          | _ -> enqueue_edit ())
      | _ ->
          reply t c
            (Wire.Err
               { serial; reason = "no delta session open; send a dopen first" }))

let on_client_readable t c =
  let chunk = Bytes.create 65536 in
  match Unix.read c.c_fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
    ->
      () (* a signal or spurious wakeup, not a hangup *)
  | exception Unix.Unix_error _ -> client_dead t c
  | 0 ->
      (* a clean EOF is the client saying its stream is complete — on a
         unix socket the fd only closes when the client process chose
         to (or died). Retire the journaled session so it stops
         accumulating in checkpoints; a server death never reaches
         here, which is exactly what leaves its sessions resumable. *)
      (match (c.c_sid, t.journal) with
      | Some sid, Some j -> (
          try Journal.log_close j ~sid
          with Sys_error e ->
            t.c.journal_errors <- t.c.journal_errors + 1;
            log t "journal close failed: %s" e)
      | _ -> ());
      client_dead t c
  | n -> (
      Wire.conn_feed c.c_conn chunk n;
      try
        let rec drain () =
          match Wire.conn_next c.c_conn with
          | None -> ()
          | Some payload ->
              (match Wire.decode_request payload with
              | Ok req -> handle_request t c req
              | Error e ->
                  (* a pre-handshake decode failure is an old or foreign
                     client: tell it why, then hang up *)
                  if not c.c_hello then begin
                    t.c.bad_hello <- t.c.bad_hello + 1;
                    c.c_closing <- true
                  end;
                  reply t c (Wire.Err { serial = -1; reason = e }));
              if c.c_alive && not c.c_closing then drain ()
        in
        drain ()
      with Sys_error _ -> client_dead t c (* over-cap frame: cut the cord *))

(* ---------------------------------------------------------------- *)
(* worker events                                                     *)

let handle_done t w (token, report, patch, samples, degraded) =
  Timing.absorb t.timing samples;
  w.w_degraded <- degraded;
  match w.w_busy with
  | Some jc when jc.jc_token = token ->
      w.w_busy <- None;
      w.w_done <- w.w_done + 1;
      finish_job ~patch:(Option.value ~default:"{}" patch) t jc report;
      dispatch t
  | _ ->
      (* a stale or duplicated token: nothing sane to attribute it to *)
      log t "worker %d: dropped result with stale token %d" w.w_idx token

let worker_died t w =
  Option.iter Worker.release w.w_proc;
  w.w_proc <- None;
  (* the in-flight job gets exactly one more chance on another worker —
     except an edit, whose session just died with the slot: replaying
     it elsewhere would certify against no baseline *)
  (match w.w_busy with
  | Some jc ->
      w.w_busy <- None;
      (match jc.jc_kind with
      | Jk_edit _ ->
          finish_job t jc
            (failed_report jc "delta session lost with its worker; reopen")
      | Jk_submit | Jk_open ->
          if jc.jc_retried then
            finish_job t jc
              (failed_report jc
                 (Printf.sprintf
                    "worker died twice running this job (last in slot %d)"
                    w.w_idx))
          else begin
            jc.jc_retried <- true;
            t.c.requeued <- t.c.requeued + 1;
            Queue.push jc t.retry_q
          end)
  | None -> ());
  (* every session pinned to this slot is gone. Unpin the clients; an
     open pending in the retry queue will re-pin on dispatch, and the
     edits queued behind it still belong to the session it will build.
     With no pending open, queued edits up to the client's next open
     (if any) certified against the lost session — fail them now
     rather than leave them eligible for no slot. *)
  let pending_open cid =
    Queue.fold
      (fun acc jc -> acc || (jc.jc_client = cid && jc.jc_kind = Jk_open))
      false t.retry_q
  in
  List.iter
    (fun c ->
      if c.c_slot = Some w.w_idx then begin
        c.c_slot <- None;
        if not (pending_open c.c_id) then begin
          let keep = Queue.create () in
          let failing = ref true in
          Queue.iter
            (fun jc ->
              match jc.jc_kind with
              | Jk_open ->
                  failing := false;
                  Queue.push jc keep
              | Jk_edit _ when !failing ->
                  finish_job t jc
                    (failed_report jc "delta session lost with its worker; reopen")
              | _ -> Queue.push jc keep)
            c.c_queue;
          Queue.clear c.c_queue;
          Queue.transfer keep c.c_queue;
          c.c_opened <-
            Queue.fold (fun acc jc -> acc || jc.jc_kind = Jk_open) false c.c_queue
        end
      end)
    t.clients;
  (* sweep edits orphaned in the retry queue (a dispatch write-failure
     raced the death): with their client unpinned and no open pending,
     they can never run *)
  (let keep = Queue.create () in
   Queue.iter
     (fun jc ->
       match jc.jc_kind with
       | Jk_edit _ -> (
           match find_client t jc.jc_client with
           | Some c when c.c_slot <> None || pending_open c.c_id ->
               Queue.push jc keep
           | Some _ ->
               finish_job t jc
                 (failed_report jc "delta session lost with its worker; reopen")
           | None -> t.c.dropped <- t.c.dropped + 1)
       | _ -> Queue.push jc keep)
     t.retry_q;
   Queue.clear t.retry_q;
   Queue.transfer keep t.retry_q);
  if not w.w_ready then begin
    w.w_preready_deaths <- w.w_preready_deaths + 1;
    if w.w_preready_deaths >= 3 then begin
      w.w_stopped <- true;
      log t "worker slot %d stopped: died %d times before becoming ready"
        w.w_idx w.w_preready_deaths
    end
  end;
  if not w.w_stopped then begin
    t.c.restarts <- t.c.restarts + 1;
    spawn_worker t w.w_idx;
    log t "worker slot %d respawned as pid %d" w.w_idx
      (match w.w_proc with Some p -> p.Worker.pid | None -> -1)
  end
  else if Array.for_all (fun w -> w.w_stopped) t.workers then begin
    (* no worker will ever run again: fail everything queued loudly
       instead of letting clients wait forever *)
    let fail_queue q =
      Queue.iter
        (fun jc ->
          finish_job t jc (failed_report jc "no live workers remain"))
        q;
      Queue.clear q
    in
    fail_queue t.retry_q;
    List.iter (fun c -> fail_queue c.c_queue) t.clients
  end;
  dispatch t

(* a [Crashed] frame needs no action: the worker exits right after
   it, and EOF runs the supervisor's death path *)
let on_worker_readable t w (p : Worker.t) =
  let alive = Worker.fill p in
  let rec drain () =
    match Worker.next p with
    | None -> ()
    | Some msg ->
        (match msg with
        | Worker.Ready ->
            w.w_ready <- true;
            w.w_preready_deaths <- 0;
            dispatch t
        | Worker.Done { token; report; patch; samples; degraded } ->
            handle_done t w (token, report, patch, samples, degraded)
        | Worker.Crashed _ | Worker.Bye _ -> ());
        drain ()
  in
  drain ();
  if not alive then worker_died t w

(* ---------------------------------------------------------------- *)
(* accept / select loop                                              *)

let on_accept t =
  match Unix.accept t.listen_fd with
  | exception Unix.Unix_error _ -> ()
  | fd, _ -> adopt_client t fd

(* The last act of a drain: requests a client wrote before the shutdown
   signal may still sit unread in the socket buffer (on a unix socket
   the client's writes landed there synchronously). Closing the fd with
   them unread would RST the connection and silently drop them — so
   slurp whatever is buffered and answer it (submissions are refused
   with Overloaded, since we are draining). *)
let final_client_sweep t =
  List.iter
    (fun c ->
      if c.c_alive then begin
        (* the fd is already nonblocking, so this read cannot hang on a
           silent client; replies queue in c_out for the final flush *)
        let chunk = Bytes.create 65536 in
        let rec slurp () =
          match Unix.read c.c_fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
              Wire.conn_feed c.c_conn chunk n;
              slurp ()
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              ()
          | exception Unix.Unix_error _ -> ()
        in
        slurp ();
        try
          let rec drain () =
            match Wire.conn_next c.c_conn with
            | None -> ()
            | Some payload ->
                (match Wire.decode_request payload with
                | Ok req -> handle_request t c req
                | Error e -> reply t c (Wire.Err { serial = -1; reason = e }));
                if c.c_alive then drain ()
          in
          drain ()
        with Sys_error _ -> client_dead t c
      end)
    t.clients

let finish t =
  final_client_sweep t;
  (* the queue is drained and every worker is idle: dismiss the pool,
     absorbing each worker's final-commit counters *)
  let live = List.filter (fun w -> w.w_proc <> None) (Array.to_list t.workers) in
  List.iter2
    (fun w last ->
      (match last with
      | Some (Worker.Bye { samples; _ }) -> Timing.absorb t.timing samples
      | _ -> ());
      w.w_proc <- None)
    live
    (Worker.quit_all (List.filter_map (fun w -> w.w_proc) live));
  List.iter (fun c -> flush_final t c) t.clients;
  List.iter (fun c -> close_quietly c.c_fd) t.clients;
  t.clients <- [];
  if t.listening then begin
    close_quietly t.listen_fd;
    t.listening <- false;
    try Sys.remove t.cfg.socket_path with Sys_error _ -> ()
  end;
  close_quietly t.sig_r;
  close_quietly t.sig_w;
  (* release the instance lock last: until here a concurrent starter
     must still lose to us *)
  (try Sys.remove t.pidfile with Sys_error _ -> ());
  close_quietly t.pid_fd;
  log t
    "drained: %d submitted, %d completed (%d served, %d failed), %d \
     restarts, max queue %d"
    t.c.submitted t.jobs.Stats.s_jobs t.jobs.Stats.s_served
    t.jobs.Stats.s_failed t.c.restarts t.c.max_queue

(* [Unix.select] fails with EINVAL past FD_SETSIZE (~1024) fds, and
   every worker holds two of them; stop accepting below what is left —
   waiting connections sit in the listen backlog until a slot frees
   up, which is just admission control one layer down *)
let max_clients t = Worker.fd_budget - (2 * t.cfg.workers)

let rec loop t =
  dispatch t;
  if t.draining && queue_depth t = 0 && inflight t = 0 then finish t
  else begin
    let accepting = t.listening && List.length t.clients < max_clients t in
    let fds =
      (if accepting then [ t.listen_fd ] else [])
      @ [ t.sig_r ]
      @ List.map (fun c -> c.c_fd) t.clients
      @ List.filter_map
          (fun w -> Option.map (fun p -> p.Worker.from_w) w.w_proc)
          (Array.to_list t.workers)
    in
    let wfds =
      List.filter_map
        (fun c -> if c.c_out_bytes > 0 then Some c.c_fd else None)
        t.clients
    in
    match Unix.select fds wfds [] 1.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop t
    | readable, writable, _ ->
        if List.mem t.sig_r readable then begin
          let b = Bytes.create 64 in
          (try ignore (Unix.read t.sig_r b 0 64)
           with Unix.Unix_error _ -> ());
          begin_drain t
        end;
        if accepting && t.listening && List.mem t.listen_fd readable then
          on_accept t;
        (* snapshot: handlers mutate t.clients/worker fds as they run *)
        List.iter
          (fun c ->
            if c.c_alive && List.mem c.c_fd writable then begin
              flush_client t c;
              maybe_close t c
            end)
          t.clients;
        List.iter
          (fun c ->
            if c.c_alive && List.mem c.c_fd readable then
              on_client_readable t c)
          t.clients;
        Array.iter
          (fun w ->
            match w.w_proc with
            | Some p when List.mem p.Worker.from_w readable ->
                on_worker_readable t w p
            | _ -> ())
          t.workers;
        loop t
  end

(* ---------------------------------------------------------------- *)
(* entry point                                                       *)

(** Run the daemon until it is told to stop (SIGTERM, SIGINT, or a
    [Shutdown] request), then drain and return. Raises [Sys_error] if
    the socket cannot be bound or another server already holds the
    instance lock for this socket path. *)
let run (cfg : config) =
  (match Worker.check_count cfg.workers with
  | Ok _ -> ()
  | Error e -> invalid_arg ("Server.run: workers " ^ e));
  if cfg.queue_cap < 1 then invalid_arg "Server.run: queue_cap must be >= 1";
  if cfg.client_cap < 1 then invalid_arg "Server.run: client_cap must be >= 1";
  (* Single-instance lock. The old probe-then-bind dance raced: two
     servers started together could both find the socket dead, both
     unlink, both bind — last binder silently steals the socket. An
     fcntl lock on the pidfile is atomic: exactly one process holds it
     for its whole life, the loser gets [Sys_error] (exit 2 in the
     binary), and the kernel releases it on any death — so if we hold
     the lock, any existing socket file is provably stale. *)
  let pidfile = cfg.socket_path ^ ".pid" in
  let pid_fd =
    try Unix.openfile pidfile [ Unix.O_RDWR; Unix.O_CREAT ] 0o644
    with Unix.Unix_error (e, _, _) ->
      raise
        (Sys_error (Printf.sprintf "%s: %s" pidfile (Unix.error_message e)))
  in
  (match Unix.lockf pid_fd Unix.F_TLOCK 0 with
  | () -> ()
  | exception Unix.Unix_error _ ->
      close_quietly pid_fd;
      raise
        (Sys_error
           (Printf.sprintf
              "%s: another server holds the lock for this socket" pidfile)));
  (try
     ignore (Unix.lseek pid_fd 0 Unix.SEEK_SET);
     ignore (Unix.ftruncate pid_fd 0);
     let pid = Printf.sprintf "%d\n" (Unix.getpid ()) in
     ignore (Unix.write_substring pid_fd pid 0 (String.length pid))
   with Unix.Unix_error _ -> ());
  if Sys.file_exists cfg.socket_path then (
    try Sys.remove cfg.socket_path with Sys_error _ -> ());
  (* recover the journal before accepting anyone: a resume arriving
     mid-replay would race the rebuild of the very state it needs *)
  let journal =
    match cfg.journal_dir with
    | None -> None
    | Some dir -> (
        try
          Some
            (Journal.create ~fsync:cfg.journal_fsync
               ~checkpoint_every:cfg.journal_checkpoint ~dir ())
        with Sys_error _ as e ->
          (try Sys.remove pidfile with Sys_error _ -> ());
          close_quietly pid_fd;
          raise e)
  in
  let sig_r, sig_w = Unix.pipe ~cloexec:false () in
  (* the signal plumbing must be live BEFORE the socket is bound: the
     moment [listen] returns a client can connect, submit, and send
     SIGTERM — and with the default disposition still in place that
     kills the daemon mid-startup, RSTing the client's submissions
     instead of draining them *)
  let on_signal _ =
    try ignore (Unix.write sig_w (Bytes.of_string "x") 0 1)
    with Unix.Unix_error _ -> ()
  in
  (* a flooding client that stops reading must cost an EPIPE we absorb,
     not a process death *)
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
  let restore_signals () =
    Sys.set_signal Sys.sigpipe prev_pipe;
    Sys.set_signal Sys.sigterm prev_term;
    Sys.set_signal Sys.sigint prev_int
  in
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
     Unix.listen listen_fd 64
   with Unix.Unix_error (e, _, _) ->
     close_quietly listen_fd;
     close_quietly sig_r;
     close_quietly sig_w;
     restore_signals ();
     (try Sys.remove pidfile with Sys_error _ -> ());
     close_quietly pid_fd;
     raise
       (Sys_error
          (Printf.sprintf "%s: %s" cfg.socket_path (Unix.error_message e))));
  let timing = Timing.create () in
  Timing.declare timing Engine.counter_names;
  let t =
    {
      cfg;
      listen_fd;
      listening = true;
      pid_fd;
      pidfile;
      journal;
      sig_r;
      sig_w;
      timing;
      jobs = Stats.summary_zero;
      workers =
        Array.init cfg.workers (fun w_idx ->
            {
              w_idx;
              w_proc = None;
              w_ready = false;
              w_busy = None;
              w_done = 0;
              w_preready_deaths = 0;
              w_stopped = false;
              w_degraded = false;
            });
      clients = [];
      retry_q = Queue.create ();
      rr = -1;
      next_client = 0;
      next_token = 0;
      draining = false;
      started = Unix.gettimeofday ();
      c =
        {
          submitted = 0;
          requeued = 0;
          dropped = 0;
          rejected_overload = 0;
          rejected_quota = 0;
          parse_errors = 0;
          restarts = 0;
          max_queue = 0;
          resumed = 0;
          rebuilt_steps = 0;
          resume_mismatch = 0;
          dedup_served = 0;
          journal_errors = 0;
          bad_hello = 0;
        };
    }
  in
  Fun.protect ~finally:restore_signals (fun () ->
      for idx = 0 to cfg.workers - 1 do
        spawn_worker t idx
      done;
      log t "listening on %s (%d workers, queue cap %d, client cap %d)"
        cfg.socket_path cfg.workers cfg.queue_cap cfg.client_cap;
      loop t)

(** The worker runtime: the one place a service process forks. Every
    certification worker — the daemon's supervised slots ([Server]) and
    the local batch/stream pool ([Pool]) alike — is a [Unix.fork] child
    running {!main} over a pipe pair, with a private engine built after
    the fork (so the in-memory cache tier is process-private and each
    worker arms its own fault-plan counters).

    Messages are [Marshal] payloads inside [Wire] frames, in both
    directions. The protocol:

    - After building its engine the worker sends [Ready]. A build that
      hits a simulated process death answers [Crashed] and exits 3; any
      other build failure exits 4 without a word.
    - Every [Job] and [Delta_job] gets exactly one [Done]: the report
      and the samples since the previous message — the stage timings
      (when the worker is timed) and the nonzero deltas of
      {!Engine.counters}, counted from the worker's birth. A driver
      that absorbs every message therefore counts each sample and
      each counted event once.
    - [Delta_close] has no reply.
    - [Quit] group-commits the store and answers [Bye] with the samples
      since the last [Done] (the commit's own counters among them),
      then exits 0. EOF on the job pipe exits the same way, without
      [Bye].
    - A simulated process death ([Blob_io.Crashed]) mid-job or in the
      final commit answers [Crashed path] and exits 3, so a driver can
      re-raise it. EOF with no such frame is a real death.

    Delta sessions live and die with the process: a driver re-pins
    clients after a respawn. *)

(** Most workers one driver may run. Each costs its parent two pipe
    fds, and both drivers multiplex those with [Unix.select], which
    fails with EINVAL on any fd numbered past FD_SETSIZE (1024). *)
let max_workers = 256

(** Fds a select loop may hold open: FD_SETSIZE less headroom for
    stdio, the listener, the signal pipe, the pid lock, the journal,
    and transient store files. A daemon accepts at most
    [fd_budget - 2 * workers] clients. *)
let fd_budget = 1024 - 64

(** [check_count n] is [Ok n] for a worker count a driver may run. *)
let check_count n =
  if n < 1 then Error (Printf.sprintf "must be >= 1 (got %d)" n)
  else if n > max_workers then
    Error (Printf.sprintf "must be <= %d (got %d)" max_workers n)
  else Ok n

(* ---------------------------------------------------------------- *)
(* messages                                                          *)

type delta_op =
  | Dopen of Manifest.job  (** (re)open the client's delta session *)
  | Dedit of { full : bool; ops : string }  (** one edit batch *)

type to_worker =
  | Job of { token : int; job : Manifest.job; deadline_ms : float }
      (** [deadline_ms <= 0] runs under the engine's own retry policy *)
  | Delta_job of {
      token : int;
      client : int;  (** sessions are keyed by client id in the worker *)
      deadline_ms : float;
      op : delta_op;
    }
  | Delta_close of { client : int }
      (** drop the client's session (disconnect, or re-open that landed
          on another slot); no reply *)
  | Quit  (** commit the store, answer [Bye], exit *)

type from_worker =
  | Ready  (** engine built; the slot may receive jobs *)
  | Done of {
      token : int;
      report : Stats.job_report;
      patch : string option;  (** patch-info JSON for delta jobs *)
      samples : Timing.samples;
      degraded : bool;
    }
  | Crashed of string  (** simulated process death at this op path *)
  | Bye of { samples : Timing.samples; degraded : bool }

(* a Dedit that arrives with no live session (its open failed, or a
   prior incarnation of this slot held it) must still answer *)
let no_session_report =
  Stats.bare_report ~id:"-" ~property:"-" ~k:0
    (Stats.Failed "no open delta session; send a dopen first")

(* ---------------------------------------------------------------- *)
(* the worker process                                                *)

let no_samples = { Timing.w_stages = []; w_ctrs = [] }

(* the whole life of a worker: build the engine, announce readiness,
   then serve until Quit/EOF *)
let main ~make_engine ~timed ~idx rfd wfd =
  let send (msg : from_worker) =
    try Wire.write_frame wfd (Marshal.to_string msg [])
    with Sys_error _ | Unix.Unix_error _ -> Unix._exit 1
  in
  let die_crashed p =
    send (Crashed p);
    Unix._exit 3
  in
  (* counted from here: the memo and allocation counts a fork inherits
     are the parent's, and the store does not exist yet *)
  let shipped = ref (Engine.counters_of (Cert_store.zero_stats ())) in
  let timing = if timed then Some (Timing.create ()) else None in
  let engine =
    match make_engine ~worker:idx timing with
    | engine -> engine
    | exception Blob_io.Crashed p -> die_crashed p
    | exception e ->
        Printf.eprintf "certd worker %d: cannot start: %s\n%!" idx
          (Printexc.to_string e);
        Unix._exit 4
  in
  send Ready;
  let sessions : (int, Delta.session) Hashtbl.t = Hashtbl.create 8 in
  let retry_of deadline_ms =
    if deadline_ms > 0.0 then
      Some { (Engine.retry engine) with Engine.deadline_ms }
    else None
  in
  (* the stage samples since the last message, and the counters'
     nonzero deltas: both snapshots list the same names in the same
     order *)
  let take_samples () =
    let now = Engine.counters engine in
    let deltas =
      List.fold_right2
        (fun (name, v0) (_, v) acc ->
          if v = v0 then acc else (name, v - v0) :: acc)
        !shipped now []
    in
    shipped := now;
    let stages =
      match timing with Some t -> Timing.flush t | None -> no_samples
    in
    { stages with Timing.w_ctrs = deltas }
  in
  let degraded () = Cert_store.degraded (Engine.store engine) in
  let finish ~token ~report ~patch =
    let samples = take_samples () in
    send (Done { token; report; patch; samples; degraded = degraded () })
  in
  (* group-commit any dirty records before dying; a flush that faults
     must not turn a clean exit into a hang (the records it loses are
     future cache misses, nothing more) *)
  let commit () =
    match Engine.flush engine with
    | () -> ()
    | exception Blob_io.Crashed p -> die_crashed p
    | exception _ -> ()
  in
  let rec serve () =
    (* the driver is gone: die quietly *)
    let gone () =
      commit ();
      Unix._exit 0
    in
    match Wire.read_frame rfd with
    | None | Some "" -> gone ()
    | exception (Sys_error _ | Unix.Unix_error _) -> gone ()
    | Some payload -> (
        match (Marshal.from_string payload 0 : to_worker) with
        | Quit ->
            commit ();
            send (Bye { samples = take_samples (); degraded = degraded () });
            Unix._exit 0
        | Job { token; job; deadline_ms } -> (
            match
              Engine.run_job ?retry:(retry_of deadline_ms) engine job
            with
            | exception Blob_io.Crashed p -> die_crashed p
            | report ->
                finish ~token ~report ~patch:None;
                serve ())
        | Delta_close { client } ->
            Hashtbl.remove sessions client;
            serve ()
        | Delta_job { token; client; deadline_ms; op } -> (
            let retry = retry_of deadline_ms in
            let run () =
              match op with
              | Dopen job -> (
                  match Delta.create ?retry engine job with
                  | Ok (session, report, info) ->
                      Hashtbl.replace sessions client session;
                      (report, info)
                  | Error (report, info) ->
                      (* a failed open leaves no session to edit *)
                      Hashtbl.remove sessions client;
                      (report, info))
              | Dedit { full; ops } -> (
                  match Hashtbl.find_opt sessions client with
                  | None -> (no_session_report, Delta.no_info "none")
                  | Some s -> Delta.step ?retry s ~full ops)
            in
            match run () with
            | exception Blob_io.Crashed p -> die_crashed p
            | report, info ->
                finish ~token ~report ~patch:(Some (Delta.info_json info));
                serve ()))
  in
  serve ()

(* ---------------------------------------------------------------- *)
(* the parent's side                                                 *)

type t = {
  pid : int;
  to_w : Unix.file_descr;  (** job frames out *)
  from_w : Unix.file_descr;  (** reply frames in *)
  conn : Wire.conn;  (** reply bytes not yet decoded *)
}

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let rec reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error _ -> ()

(** Close both pipes and reap: the end of a worker that has exited or
    been told to. *)
let release w =
  close_quietly w.to_w;
  close_quietly w.from_w;
  reap w.pid

(** Fork worker [idx]. The child closes every fd in [shed] — the
    parent's listener, client sockets, and earlier siblings' pipes (a
    sibling's job pipe would otherwise never see EOF) — restores the
    default SIGINT/SIGTERM disposition, and runs {!main}; it never
    returns. [make_engine] is called in the child. *)
let spawn ?(shed = []) ~make_engine ~timed idx =
  let p2w_r, p2w_w = Unix.pipe ~cloexec:false () in
  let w2p_r, w2p_w = Unix.pipe ~cloexec:false () in
  (* a child forked mid-buffer would duplicate unflushed output *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Sys.set_signal Sys.sigterm Sys.Signal_default;
      Sys.set_signal Sys.sigint Sys.Signal_default;
      List.iter close_quietly shed;
      close_quietly p2w_w;
      close_quietly w2p_r;
      main ~make_engine ~timed ~idx p2w_r w2p_w
  | pid ->
      Unix.close p2w_r;
      Unix.close w2p_w;
      { pid; to_w = p2w_w; from_w = w2p_r; conn = Wire.conn_create () }

(** The frame carrying [msg], for drivers that queue writes. *)
let frame (msg : to_worker) = Wire.frame (Marshal.to_string msg [])

(** Blocking send; raises [Sys_error]/[Unix_error] if the worker is
    gone. *)
let send w (msg : to_worker) = Wire.write_frame w.to_w (Marshal.to_string msg [])

let chunk = Bytes.create 65536

(** Read what the worker has written into its reassembly buffer; for a
    select loop, after [from_w] polled readable. [false] on EOF or a
    read error: the worker is dead once {!next} has nothing left. *)
let fill w =
  match Unix.read w.from_w chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | exception Unix.Unix_error _ -> false
  | 0 -> false
  | n ->
      Wire.conn_feed w.conn chunk n;
      true

(** The next complete message already read, if any. *)
let next w =
  Option.map
    (fun p -> (Marshal.from_string p 0 : from_worker))
    (Wire.conn_next w.conn)

(* blocking: the next message, or [None] at EOF *)
let rec recv w =
  match next w with
  | Some msg -> Some msg
  | None -> if fill w then recv w else None

(** Dismiss [ws]: send each [Quit] (all before awaiting any, so the
    final group commits run in parallel), then read each one's last
    word, close its pipes and reap it. The result, in order, is [Bye]
    or [Crashed] — or [None] for a worker that died silently. Any
    [Done] still in flight is dropped: call this with no job
    outstanding. *)
let quit_all ws =
  List.iter
    (fun w -> try send w Quit with Sys_error _ | Unix.Unix_error _ -> ())
    ws;
  List.map
    (fun w ->
      let rec last () =
        match recv w with
        | Some ((Bye _ | Crashed _) as msg) -> Some msg
        | Some (Ready | Done _) -> last ()
        | None -> None
      in
      let msg = last () in
      release w;
      msg)
    ws

(** SIGKILL and reap: the interrupt path. *)
let kill w =
  (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap w.pid

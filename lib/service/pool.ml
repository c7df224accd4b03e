(** The local execution layer: run a stream of jobs in this process or
    across N long-lived {!Worker} processes, and emit every report in
    feed order — a feed sorted by job id therefore emits exactly the
    canonical stream the sequential engine produces.

    Design invariants, in decreasing order of importance:

    {ol
    {- {b Determinism of assignment.} A job's worker is the stable
       64-bit FNV-1a hash of its job id modulo N — a pure function of
       the job, never of arrival order, load, or scheduling.}
    {- {b Per-worker memory, shared disk.} Each worker builds its own
       engine after the fork, so the in-memory tier of the certificate
       store is process-private — no locks, no shared mutable state.
       Workers live from {!start} to {!stop}, so their memory tiers
       stay warm across every {!run} (pass) in between. The on-disk
       tier may be shared by pointing every worker at one cache
       directory: its writes are atomic (tmp-then-rename, worker-unique
       tmp names) and every bundle read from it is re-verified by the
       reading worker before serving, so a concurrent writer can
       change {e latency} but never {e judgements}.}
    {- {b Bounded memory.} At most a window of jobs is in flight (fed
       but not yet emitted); the producer blocks when it is full, so
       parent memory is bounded regardless of corpus size. Reports are
       emitted one at a time and never accumulated.}
    {- {b Crash semantics.} A worker that hits [Blob_io.Crashed] — a
       simulated process death — sends a [Crashed] frame and exits;
       the pool stops feeding, lets the other workers finish what they
       hold, reaps every one, and re-raises [Crashed], so a crash
       anywhere kills the whole batch, as in the sequential path. A
       worker that dies without a word surfaces as [Failure].}}

    With one worker the jobs run in-process on one engine: same engine
    code, no fork, and [Crashed] propagates directly. *)

module Hash64 = Lcp_util.Hash64

(* ---------------------------------------------------------------- *)
(* shard assignment                                                  *)

(** [shard_of ~workers job_id] is the worker index owning [job_id]:
    stable FNV-1a of the id, folded into [0 .. workers-1]. *)
let shard_of ~workers job_id =
  if workers <= 1 then 0
  else
    let h = Hash64.of_string job_id in
    (* clear the sign bit so the remainder is nonnegative *)
    let h = Int64.logand h Int64.max_int in
    Int64.to_int (Int64.rem h (Int64.of_int workers))

(** Core count of this machine, capped at {!Worker.max_workers} — the
    default N for [certd --jobs]. *)
let default_workers () =
  min Worker.max_workers (max 1 (Domain.recommended_domain_count ()))

(* spool files are named "<record>.<pid>.tmp" by the store; the pid
   names the owner, so a sweep can tell debris from live work *)
let tmp_owner f =
  if not (Filename.check_suffix f ".tmp") then None
  else
    let stem = Filename.chop_suffix f ".tmp" in
    match String.rindex_opt stem '.' with
    | None -> None
    | Some i ->
        int_of_string_opt (String.sub stem (i + 1) (String.length stem - i - 1))

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error _ -> true (* EPERM: alive, someone else's *)

(** Remove the pid-unique [.tmp] spool files under a shared cache
    directory — the debris a killed worker leaves between its
    [write_file tmp] and the atomic rename. Only files owned by this
    process or by a dead one are touched: the disk tier may be shared
    with a live daemon whose in-flight spool files are not ours to
    delete. Returns how many were removed; unreadable directories,
    vanished files, and unparseable names count zero (cleanup must
    never raise on the interrupt path). *)
let sweep_tmp_files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | files ->
      let self = Unix.getpid () in
      Array.fold_left
        (fun acc f ->
          match tmp_owner f with
          | Some pid when pid = self || not (pid_alive pid) -> (
              match Sys.remove (Filename.concat dir f) with
              | () -> acc + 1
              | exception Sys_error _ -> acc)
          | Some _ | None -> acc)
        0 files

(* ---------------------------------------------------------------- *)
(* the driver                                                        *)

(* parent-side view of one worker *)
type slot = {
  w : Worker.t;  (** its job pipe is nonblocking while the pool runs *)
  out_q : string Queue.t;  (** job frames not yet started *)
  mutable out : string;  (** frame currently being written *)
  mutable out_pos : int;
  reports : Stats.job_report Queue.t;  (** decoded, unemitted *)
  mutable eof : bool;  (** the worker closed its reply pipe *)
}

type failure = Crash of string | Died of int

type forked = {
  slots : slot array;
  timing : Timing.t;
  probe : Engine.t option;  (** adds its store counters at {!stop} *)
  mutable failure : failure option;
  prev_int : Sys.signal_behavior;
  prev_pipe : Sys.signal_behavior;
}

type t = Inline of Engine.t * Timing.t | Forked of forked

(** Start a pool of [workers] (at most {!Worker.max_workers}, else
    [Invalid_argument], before any fork). Every counter the engines
    count ends up in [timing].

    At [workers = 1] jobs run in-process on [engine] — or, without one,
    on [make_engine ~worker:0 (Some timing)] — and {!stop} adds the
    engine's counters. At [workers > 1] each worker calls
    [make_engine ~worker:idx] after the fork with its own timing sink,
    and every sample and counter delta it ships is absorbed into
    [timing], where the counter names are declared from the start;
    [engine], if given, is only the caller's probe, whose store
    counters {!stop} adds.

    Until {!stop}, SIGINT is owned by the pool: the handler kills and
    reaps every worker (no orphans holding the shared cache
    directory), runs [on_interrupt] (the driver passes a tmp-file
    sweep of that directory here), and exits 130. SIGPIPE is ignored,
    so a dead worker surfaces as EPIPE instead of killing the parent. *)
let start ~timing ?on_interrupt ?engine ~workers ~make_engine () =
  (match Worker.check_count workers with
  | Ok _ -> ()
  | Error e -> invalid_arg ("Pool.start: workers " ^ e));
  if workers = 1 then
    Inline
      ( (match engine with
        | Some e -> e
        | None -> make_engine ~worker:0 (Some timing)),
        timing )
  else begin
    Timing.declare timing Engine.counter_names;
    let spawned = ref [] in
    let slots =
      Array.init workers (fun idx ->
          let shed =
            List.concat_map (fun (w : Worker.t) -> [ w.to_w; w.from_w ]) !spawned
          in
          let w = Worker.spawn ~shed ~make_engine ~timed:true idx in
          spawned := w :: !spawned;
          Unix.set_nonblock w.Worker.to_w;
          {
            w;
            out_q = Queue.create ();
            out = "";
            out_pos = 0;
            reports = Queue.create ();
            eof = false;
          })
    in
    let prev_int =
      Sys.signal Sys.sigint
        (Sys.Signal_handle
           (fun _ ->
             Array.iter (fun s -> Worker.kill s.w) slots;
             (match on_interrupt with
             | Some f -> ( try f () with _ -> ())
             | None -> ());
             exit 130))
    in
    let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    Forked
      {
        slots;
        timing;
        probe = engine;
        failure = None;
        prev_int;
        prev_pipe;
      }
  end

let restore_signals p =
  Sys.set_signal Sys.sigint p.prev_int;
  Sys.set_signal Sys.sigpipe p.prev_pipe

let fail p f = if p.failure = None then p.failure <- Some f

let failure_exn = function
  | Crash path -> Blob_io.Crashed path
  | Died i -> Failure (Printf.sprintf "Pool: worker %d died before reporting" i)

(* after a failure: close every job pipe — each worker finishes the
   frames it already holds, commits, and exits — then drain the
   replies to EOF so no worker blocks on a full pipe, and reap *)
let teardown p =
  Array.iter (fun s -> Worker.close_quietly s.w.Worker.to_w) p.slots;
  Array.iter
    (fun s ->
      while Worker.fill s.w do
        while Worker.next s.w <> None do
          ()
        done
      done;
      Worker.close_quietly s.w.Worker.from_w;
      Worker.reap s.w.Worker.pid)
    p.slots;
  restore_signals p

exception Stop

let pending s = s.out_pos < String.length s.out || not (Queue.is_empty s.out_q)

let pump_write s =
  try
    let more = ref true in
    while !more do
      if s.out_pos >= String.length s.out then
        match Queue.take_opt s.out_q with
        | Some f ->
            s.out <- f;
            s.out_pos <- 0
        | None -> more := false
      else
        s.out_pos <-
          s.out_pos
          + Unix.write_substring s.w.Worker.to_w s.out s.out_pos
              (String.length s.out - s.out_pos)
    done
  with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | Unix.Unix_error (Unix.EPIPE, _, _) ->
      (* dead worker: drop its backlog; the read side reports it *)
      Queue.clear s.out_q;
      s.out <- "";
      s.out_pos <- 0

let run_forked p emit produce =
  let slots = p.slots in
  let workers = Array.length slots in
  let window = max 64 (8 * workers) in
  let summary = ref Stats.summary_zero in
  let feed_order = Queue.create () in
  let in_flight = ref 0 in
  (* feed-order emission: replies come back per-worker FIFO, so the
     head of [feed_order] is emittable exactly when its worker's
     report queue is nonempty *)
  let rec try_emit () =
    match Queue.peek_opt feed_order with
    | None -> ()
    | Some i -> (
        match Queue.take_opt slots.(i).reports with
        | None -> ()
        | Some r ->
            ignore (Queue.pop feed_order);
            emit r;
            summary := Stats.summary_add !summary r;
            decr in_flight;
            try_emit ())
  in
  let pump_read i =
    let s = slots.(i) in
    let alive = Worker.fill s.w in
    let rec drain () =
      match Worker.next s.w with
      | None -> ()
      | Some msg ->
          (match msg with
          | Worker.Done { report; samples; _ } ->
              Timing.absorb p.timing samples;
              Queue.push report s.reports
          | Worker.Crashed path -> fail p (Crash path)
          | Worker.Ready | Worker.Bye _ -> ());
          drain ()
    in
    drain ();
    if not alive then begin
      s.eof <- true;
      fail p (Died i)
    end
  in
  let pump block =
    let rfds = ref [] and wfds = ref [] in
    Array.iter
      (fun s ->
        if not s.eof then rfds := s.w.Worker.from_w :: !rfds;
        if pending s then wfds := s.w.Worker.to_w :: !wfds)
      slots;
    (match Unix.select !rfds !wfds [] (if block then -1.0 else 0.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | r, wr, _ ->
        Array.iter (fun s -> if List.memq s.w.Worker.to_w wr then pump_write s) slots;
        Array.iteri
          (fun i s -> if List.memq s.w.Worker.from_w r then pump_read i)
          slots);
    try_emit ()
  in
  let feed (job : Manifest.job) =
    if p.failure <> None then raise Stop;
    let i = shard_of ~workers job.Manifest.job_id in
    (* replies come back in order per worker: no token needed *)
    Queue.push
      (Worker.frame (Worker.Job { token = 0; job; deadline_ms = 0.0 }))
      slots.(i).out_q;
    Queue.push i feed_order;
    incr in_flight;
    pump false;
    while !in_flight >= window && p.failure = None do
      pump true
    done
  in
  (match produce feed with
  | () -> ()
  | exception Stop -> ()
  | exception e ->
      (* a producer error (say, a manifest line that does not parse)
         ends the pool like a crash does *)
      teardown p;
      raise e);
  while !in_flight > 0 && p.failure = None do
    pump true
  done;
  match p.failure with
  | Some f ->
      teardown p;
      raise (failure_exn f)
  | None -> !summary

(** One pass: [produce feed] calls [feed job] once per job; [emit]
    fires once per report, in feed order. Returns the pass's summary.
    Raises [Blob_io.Crashed] if a worker simulated a crash, and
    [Failure] if one died without a word — after reaping every worker;
    the pool is then gone. *)
let run ?(emit = fun (_ : Stats.job_report) -> ()) t produce =
  match t with
  | Inline (engine, _) ->
      let summary = ref Stats.summary_zero in
      produce (fun job ->
          let r = Engine.run_job engine job in
          emit r;
          summary := Stats.summary_add !summary r);
      !summary
  | Forked p -> run_forked p emit produce

let counts_only ctrs = { Timing.w_stages = []; w_ctrs = ctrs }

(** Group-commit every store, dismiss the workers, absorb the counters
    not yet in the pool's sink (the in-process engine's totals, or the
    workers' last deltas and the probe's store counters), and return
    whether any store demoted to memory-only. Raises like {!run} when
    a worker crashed in its final commit. *)
let stop t =
  match t with
  | Inline (engine, timing) ->
      Engine.flush engine;
      Timing.absorb timing (counts_only (Engine.counters engine));
      Cert_store.degraded (Engine.store engine)
  | Forked p ->
      Array.iter
        (fun s ->
          try Unix.clear_nonblock s.w.Worker.to_w with Unix.Unix_error _ -> ())
        p.slots;
      let last = Worker.quit_all (List.map (fun s -> s.w) (Array.to_list p.slots)) in
      restore_signals p;
      Option.iter
        (fun e ->
          let store = Cert_store.stats (Engine.store e) in
          Timing.absorb p.timing (counts_only (Cert_store.counters store)))
        p.probe;
      let degraded = ref false in
      List.iteri
        (fun i -> function
          | Some (Worker.Bye { samples; degraded = d }) ->
              Timing.absorb p.timing samples;
              degraded := !degraded || d
          | Some (Worker.Crashed path) -> fail p (Crash path)
          | Some (Worker.Ready | Worker.Done _) | None -> fail p (Died i))
        last;
      Option.iter (fun f -> raise (failure_exn f)) p.failure;
      !degraded

(** Feed [jobs] stably sorted by job id: the batch order, whose reports
    come out in canonical order. *)
let in_id_order jobs feed =
  List.iter feed
    (List.stable_sort
       (fun (a : Manifest.job) (b : Manifest.job) ->
         compare a.Manifest.job_id b.Manifest.job_id)
       jobs)

type outcome = { summary : Stats.summary; degraded : bool }

(** A one-pass pool: {!start}, one {!run}, {!stop}. *)
let run_once ?emit ~timing ~workers ~make_engine produce =
  let t = start ~timing ~workers ~make_engine () in
  let summary = run ?emit t produce in
  { summary; degraded = stop t }

(** A run's footer, read from its sink: with [degraded] (what {!stop}
    returned), a [store:] line of the store counters in
    {!Cert_store.counter_names} order, marked when a store demoted to
    memory-only; then the timing histogram and every other counter. *)
let pp_footer ?degraded ppf timing =
  Option.iter
    (fun d ->
      Format.fprintf ppf "store: %a%s@\n" Timing.pp_counts
        (Timing.select timing Cert_store.counter_names)
        (if d then " [DEGRADED: memory-only]" else ""))
    degraded;
  Timing.pp_except Cert_store.counter_names ppf timing

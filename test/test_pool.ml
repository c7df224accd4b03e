(* Parallel-determinism suite for the sharded pool (lib/service/pool):
   the same manifest run at --jobs 1 and --jobs 4 must produce
   byte-identical canonical JSONL stats and an identical disk-tier
   snapshot (hash set of stored records) — including when a blob_io
   fault plan is armed in every worker. These tests regression-guard
   the three things sharding can silently break: the merge order, the
   shared-disk-tier write protocol, and crash propagation out of a
   forked worker.

   What is compared on purpose and what is not:
   - the *canonical* projection of the stats (Stats.canonical_lines):
     fresh-vs-cached serving status and wall-clock timings legitimately
     depend on shard interleaving, so they are volatile; verdicts,
     sizes and ordering are not.
   - disk snapshots are compared directly for fault-free runs; for
     faulted runs they are compared only after a clean repair pass,
     because *which* write a plan corrupts depends on the per-worker op
     interleaving — but a repair pass must converge every layout to the
     same bytes.

   Runs as its own executable: `dune build @pool`. *)

module Service = Lcp_service
module Manifest = Service.Manifest
module Engine = Service.Engine
module Pool = Service.Pool
module Stats = Service.Stats
module Store = Service.Cert_store
module Blob_io = Service.Blob_io

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let test name f = Alcotest.test_case name `Quick f

(* ---------------------------------------------------------------- *)
(* scratch directories                                               *)

let dir_counter = ref 0

let fresh_dir tag =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lcp_pool_%s_%d_%d" tag (Unix.getpid ()) !dir_counter)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_dir tag f =
  let d = fresh_dir tag in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

(* ---------------------------------------------------------------- *)
(* the corpus: mixed families, deliberate duplicate cache keys (same
   source/property/k/seed under different job ids, so they may land on
   different workers and race on the shared disk tier), one job the
   parser accepts but the registry rejects (input_error), and one
   false instance (declined). *)

let corpus_manifest =
  String.concat "\n"
    ([
       "# pool determinism corpus";
       "id=err1 gen=cycle n=12 property=nosuchproperty k=2";
       "id=decl1 gen=cycle n=12 property=acyclic k=2";
     ]
    @ List.concat_map
        (fun i ->
          [
            Printf.sprintf
              "id=conn%02d gen=random n=%d gseed=%d property=connected k=3" i
              (16 + (3 * i))
              i;
            Printf.sprintf
              "id=tree%02d gen=tree n=%d gseed=%d property=acyclic k=3" i
              (14 + (2 * i))
              i;
            Printf.sprintf
              "id=bip%02d gen=ladder n=%d property=bipartite k=2" i (8 + i);
          ])
        [ 1; 2; 3; 4; 5; 6; 7 ]
    (* duplicate key set: identical source/property/k/seed, distinct
       ids — these hash to different shards but address one record *)
    @ List.map
        (fun i ->
          Printf.sprintf
            "id=dup%02d gen=caterpillar n=15 property=triangle_free k=2" i)
        [ 1; 2; 3; 4; 5 ]
    @ [ "id=match1 gen=path n=12 property=perfect_matching k=1" ])

let corpus () =
  match Manifest.parse corpus_manifest with
  | Ok jobs -> jobs
  | Error e -> Alcotest.failf "corpus manifest did not parse: %s" e

(* every worker builds its own engine (and fault-plan counters) from
   this, exactly as certd does *)
let make_engine ?plan ~dir () ~worker:_ timing =
  let io =
    Option.map (fun p -> fst (Blob_io.inject ~plan:p Blob_io.real)) plan
  in
  Engine.create ~cache_cap:64 ~cache_dir:dir ?io ?timing ()

let snapshot dir =
  Store.disk_snapshot (Store.create ~dir ())

(* one batch pass through a fresh pool, as certd runs it: the manifest
   in job-id order; returns the reports in emit order *)
let run_batch ?(emit = fun (_ : Stats.job_report) -> ()) ~workers ~make_engine
    jobs =
  let reports = ref [] in
  let out =
    Pool.run_once
      ~emit:(fun r ->
        reports := r :: !reports;
        emit r)
      ~timing:(Service.Timing.create ()) ~workers ~make_engine
      (Pool.in_id_order jobs)
  in
  (List.rev !reports, out)

let plan_of_string s =
  match Blob_io.parse_plan s with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad fault plan in test: %s" e

(* ---------------------------------------------------------------- *)
(* sharding is a pure function of the job id                         *)

let shard_assignment () =
  let jobs = corpus () in
  List.iter
    (fun (j : Manifest.job) ->
      let w = Pool.shard_of ~workers:4 j.Manifest.job_id in
      check
        (Printf.sprintf "%s lands in [0,4)" j.Manifest.job_id)
        true
        (w >= 0 && w < 4);
      check_int
        (Printf.sprintf "%s shard is stable" j.Manifest.job_id)
        w
        (Pool.shard_of ~workers:4 j.Manifest.job_id))
    jobs;
  (* with 4 workers and ~30 well-spread ids, no shard should be empty —
     a degenerate all-on-one-worker hash would make every other test
     here vacuous *)
  let used =
    List.sort_uniq compare
      (List.map
         (fun (j : Manifest.job) -> Pool.shard_of ~workers:4 j.Manifest.job_id)
         jobs)
  in
  check "all 4 shards are populated" true (List.length used = 4)

(* pool at workers=1 is the sequential engine, report for report *)
let pool1_matches_sequential () =
  with_dir "seq" @@ fun d_seq ->
  with_dir "one" @@ fun d_one ->
  let jobs = corpus () in
  (* the reference: the engine alone, in manifest order *)
  let engine = make_engine ~dir:d_seq () ~worker:0 None in
  let seq_reports = List.map (Engine.run_job engine) jobs in
  Engine.flush engine;
  let seq_summary = Stats.summarize seq_reports in
  let reports, out =
    run_batch ~workers:1 ~make_engine:(make_engine ~dir:d_one ()) jobs
  in
  check_str "canonical stats"
    (Stats.canonical_lines seq_reports)
    (Stats.canonical_lines reports);
  (* count fields only: the timing fields are volatile by design *)
  check_int "summary: served" seq_summary.Stats.s_served
    out.Pool.summary.Stats.s_served;
  check_int "summary: declined" seq_summary.Stats.s_declined
    out.Pool.summary.Stats.s_declined;
  check_int "summary: errors" seq_summary.Stats.s_errors
    out.Pool.summary.Stats.s_errors;
  check_int "summary: max label bits" seq_summary.Stats.s_max_label_bits
    out.Pool.summary.Stats.s_max_label_bits;
  check "disk tiers identical" true (snapshot d_seq = snapshot d_one)

(* the tentpole determinism claim: canonical stats byte-identical and
   disk tier identical across worker counts, duplicates and all *)
let jobs1_vs_jobs4 () =
  let jobs = corpus () in
  let run_at n =
    let dir = fresh_dir (Printf.sprintf "w%d" n) in
    let emitted = ref [] in
    let emit (r : Stats.job_report) = emitted := r.Stats.r_id :: !emitted in
    let reports, _ =
      run_batch ~emit ~workers:n ~make_engine:(make_engine ~dir ()) jobs
    in
    (* emit fires in canonical order, exactly once per job *)
    let ids = List.rev !emitted in
    check_int
      (Printf.sprintf "workers=%d: one emit per job" n)
      (List.length jobs) (List.length ids);
    check
      (Printf.sprintf "workers=%d: emits are job-id sorted" n)
      true
      (ids = List.sort compare ids);
    (Stats.canonical_lines reports, snapshot dir, dir)
  in
  let base_lines, base_snap, base_dir = run_at 1 in
  check "baseline stored something" true (base_snap <> []);
  List.iter
    (fun n ->
      let lines, snap, dir = run_at n in
      check_str
        (Printf.sprintf "workers=%d: canonical stats = workers=1" n)
        base_lines lines;
      check
        (Printf.sprintf "workers=%d: disk tier = workers=1" n)
        true (snap = base_snap);
      rm_rf dir)
    [ 2; 3; 4 ];
  rm_rf base_dir

(* same claim under an armed fault plan. Each worker arms its own
   counters, so *which* record a flip or a failed write lands on
   depends on the sharding — canonical verdicts must not, and one
   clean pass over the same store must repair every layout to the
   same bytes (corrupt records are quarantined on read and re-proved,
   missing ones re-proved and re-written). *)
let jobs1_vs_jobs4_under_faults () =
  let jobs = corpus () in
  let plan = plan_of_string "flip@2:40,flip@4:3,fail@6:ENOSPC" in
  let run_at n =
    let dir = fresh_dir (Printf.sprintf "f%d" n) in
    let faulted, _ =
      run_batch ~workers:n ~make_engine:(make_engine ~plan ~dir ()) jobs
    in
    let repaired, _ =
      run_batch ~workers:n ~make_engine:(make_engine ~dir ()) jobs
    in
    ( Stats.canonical_lines faulted,
      Stats.canonical_lines repaired,
      snapshot dir,
      dir )
  in
  let f1, r1, s1, d1 = run_at 1 in
  check "faulted baseline stored something" true (s1 <> []);
  List.iter
    (fun n ->
      let fn, rn, sn, dn = run_at n in
      check_str
        (Printf.sprintf "workers=%d: faulted-pass canonical stats" n)
        f1 fn;
      check_str
        (Printf.sprintf "workers=%d: repair-pass canonical stats" n)
        r1 rn;
      check
        (Printf.sprintf "workers=%d: disk tier after repair pass" n)
        true (sn = s1);
      rm_rf dn)
    [ 2; 4 ];
  rm_rf d1

(* a simulated crash in any worker must surface as Blob_io.Crashed in
   the parent — never as a silent partial batch. In-process at N=1; at
   N>1 it crosses the pipe as the worker's Crashed frame *)
let crash_propagates () =
  let jobs = corpus () in
  let plan = plan_of_string "crash@3" in
  List.iter
    (fun n ->
      with_dir (Printf.sprintf "c%d" n) @@ fun dir ->
      let crashed =
        try
          ignore
            (run_batch ~workers:n ~make_engine:(make_engine ~plan ~dir ()) jobs);
          false
        with Blob_io.Crashed _ -> true
      in
      check (Printf.sprintf "workers=%d: Crashed re-raised" n) true crashed)
    [ 1; 2; 4 ]

(* workers live for the whole pool, not one pass: the second pass over
   the same jobs is served entirely from their memory tiers, with no
   disk tier to fall back on *)
let passes_warm_without_disk () =
  let jobs = corpus () in
  let pool =
    Pool.start ~timing:(Service.Timing.create ()) ~workers:2
      ~make_engine:(fun ~worker:_ timing -> Engine.create ?timing ())
      ()
  in
  let cold = Pool.run pool (Pool.in_id_order jobs) in
  let warm = Pool.run pool (Pool.in_id_order jobs) in
  ignore (Pool.stop pool : bool);
  check "pass 1 proved something" true (cold.Stats.s_fresh > 0);
  check_int "pass 2: nothing fresh" 0 warm.Stats.s_fresh;
  check_int "pass 2: every served job cached" warm.Stats.s_served
    warm.Stats.s_cached;
  check_int "pass 2 serves what pass 1 served" cold.Stats.s_served
    warm.Stats.s_served

(* the worker cap is checked before any fork; only counts that start
   no process are tried here *)
let worker_cap () =
  let module Worker = Service.Worker in
  check "1 worker is fine" true (Worker.check_count 1 = Ok 1);
  check "the cap itself is fine" true
    (Worker.check_count Worker.max_workers = Ok Worker.max_workers);
  check "0 workers refused" true (Result.is_error (Worker.check_count 0));
  check "one past the cap refused" true
    (Result.is_error (Worker.check_count (Worker.max_workers + 1)));
  check "the default respects the cap" true
    (Pool.default_workers () <= Worker.max_workers);
  check "the daemon keeps room for clients at the cap" true
    (Worker.fd_budget - (2 * Worker.max_workers) > 0);
  check "Pool.start refuses before forking" true
    (match
       Pool.start ~timing:(Service.Timing.create ()) ~workers:0
         ~make_engine:(fun ~worker:_ timing -> Engine.create ?timing ())
         ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* the interrupt-path sweep must only touch spool files it owns (this
   pid) or whose owner is dead — a live daemon sharing the cache dir
   keeps its in-flight .tmp files *)
let sweep_is_pid_aware () =
  with_dir "sweep" @@ fun dir ->
  let touch f = close_out (open_out (Filename.concat dir f)) in
  (* a pid that is certainly dead: fork a child that exits, reap it *)
  let dead_pid =
    match Unix.fork () with
    | 0 -> Unix._exit 0
    | pid ->
        ignore (Unix.waitpid [] pid);
        pid
  in
  touch (Printf.sprintf "a.cert.%d.tmp" (Unix.getpid ())); (* ours *)
  touch (Printf.sprintf "b.cert.%d.tmp" dead_pid); (* dead owner *)
  touch (Printf.sprintf "c.cert.%d.tmp" 1); (* pid 1: alive, not ours *)
  touch "d.cert.tmp"; (* no owner pid parseable: left alone *)
  touch "e.cert"; (* not a tmp file at all *)
  check_int "swept own + dead-owner files only" 2 (Pool.sweep_tmp_files dir);
  let left = Sys.readdir dir |> Array.to_list |> List.sort compare in
  check "live-owner, unparseable, and real records survive" true
    (left = [ Printf.sprintf "c.cert.%d.tmp" 1; "d.cert.tmp"; "e.cert" ])

let () =
  Alcotest.run "lcp-pool"
    [
      ( "pool",
        [
          test "shard assignment: stable, total, non-degenerate"
            shard_assignment;
          test "workers=1 == sequential engine" pool1_matches_sequential;
          test "workers in {2,3,4}: canonical stats and store match workers=1"
            jobs1_vs_jobs4;
          test "fault plan armed per worker: verdicts and repaired store match"
            jobs1_vs_jobs4_under_faults;
          test "crash in a worker kills the batch" crash_propagates;
          test "workers=2: pass 2 warm without a disk tier"
            passes_warm_without_disk;
          test "worker count is capped before any fork" worker_cap;
          test "interrupt sweep is pid-aware" sweep_is_pid_aware;
        ] );
    ]

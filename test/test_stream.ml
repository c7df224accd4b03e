(* Streaming-corpus suite: the constant-memory manifest reader
   (lib/service/manifest fold/iter), the Zipf workload generator
   (lib/service/workload), the negative-lookup filter (lib/util/negf)
   and its counters through the engine/store/pool, and the batched
   (group-commit) disk write path.

   What the suite pins down:
   - reader: fold_file/iter_file agree with load_file job-for-job and
     error-for-error (qcheck), mid-stream errors are line-precise and
     stop the fold, and a 10^6-line manifest streams without heap
     growth (no whole-corpus list, ever);
   - workload: byte-deterministic in the spec, ids zero-padded so feed
     order is id order, Zipf head hotter than tail, corrupt jobs
     really are engine-rejected;
   - filter: no false negatives (qcheck), bounded false-positive rate
     at the default size, and counter-exact behaviour through
     Cert_store/Engine — including the dirty-set serve path and
     per-shard exactness under Pool forking;
   - group commit: a crash mid-flush loses at most the unflushed tail;
     a reopen serves zero corrupt records and re-converges to the
     byte-identical clean layout.

   Runs as its own executable: `dune build @stream`. *)

module Service = Lcp_service
module Manifest = Service.Manifest
module Workload = Service.Workload
module Engine = Service.Engine
module Pool = Service.Pool
module Stats = Service.Stats
module Store = Service.Cert_store
module Blob_io = Service.Blob_io
module Negf = Lcp_util.Negf
module Hash64 = Lcp_util.Hash64

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let test name f = Alcotest.test_case name `Quick f
let qtest ?(count = 50) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ---------------------------------------------------------------- *)
(* scratch directories                                               *)

let dir_counter = ref 0

let fresh_dir tag =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lcp_stream_%s_%d_%d" tag (Unix.getpid ()) !dir_counter)
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

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

(* ---------------------------------------------------------------- *)
(* the streaming reader                                              *)

(* random manifests: valid job lines interleaved with comments, blank
   lines, whitespace-only lines, and trailing \r *)
type mline = Job of int * int | Comment | Blank | Ws

let manifest_arb =
  QCheck.make
    QCheck.Gen.(
      list_size (int_range 0 50)
        (oneof
           [
             map2 (fun n k -> Job (n, k)) (int_range 2 10) (int_range 1 3);
             return Comment;
             return Blank;
             return Ws;
           ]))

let render_manifest lines =
  lines
  |> List.mapi (fun i l ->
         match l with
         | Job (n, k) ->
             Printf.sprintf "id=q%d gen=path n=%d property=connected k=%d \
                             seed=%d" i n k i
         | Comment -> "# a comment line"
         | Blank -> ""
         | Ws -> "   \t \r")
  |> String.concat "\n"

let stream_equals_load lines =
  with_dir "rd" (fun d ->
      let path = Filename.concat d "m.manifest" in
      write_file path (render_manifest lines);
      let loaded = Manifest.load_file path in
      let folded =
        Manifest.fold_file path ~init:[] ~f:(fun acc j -> j :: acc)
        |> Result.map List.rev
      in
      loaded = folded)

let line_precise_error () =
  with_dir "err" (fun d ->
      let path = Filename.concat d "m.manifest" in
      write_file path
        (String.concat "\n"
           [
             "id=a gen=path n=4 property=connected k=1";
             "# comment";
             "id=b gen=path n=6 property=connected k=1";
             "id=c gen=path n=8 property=connected k=1";
             "bogus";
             "id=d gen=path n=10 property=connected k=1";
           ]);
      let calls = ref 0 in
      (match Manifest.fold_file path ~init:() ~f:(fun () _ -> incr calls) with
      | Ok () -> Alcotest.fail "fold_file accepted a bad line"
      | Error e ->
          check ("error names line 5: " ^ e) true (contains e "line 5"));
      check_int "f called once per job before the bad line" 3 !calls;
      (* load_file agrees on the error path too *)
      match Manifest.load_file path with
      | Ok _ -> Alcotest.fail "load_file accepted a bad line"
      | Error e -> check "same line in load_file" true (contains e "line 5"))

let million_lines_constant_heap () =
  with_dir "big" (fun d ->
      let path = Filename.concat d "big.manifest" in
      let oc = open_out_bin path in
      for i = 0 to 999_999 do
        Printf.fprintf oc "id=s%d gen=path n=4 property=connected k=1\n" i
      done;
      close_out oc;
      let heap0 = (Gc.quick_stat ()).Gc.top_heap_words in
      let count = ref 0 in
      (match Manifest.iter_file path ~f:(fun _ -> incr count) with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let growth = (Gc.quick_stat ()).Gc.top_heap_words - heap0 in
      check_int "every line parsed" 1_000_000 !count;
      (* a materialized list of 10^6 jobs costs >= 15M words; streaming
         must stay orders of magnitude below *)
      check
        (Printf.sprintf "heap growth %d words stays under 4M" growth)
        true (growth < 4_000_000))

let missing_file_is_error () =
  match Manifest.fold_file "/nonexistent/m.manifest" ~init:() ~f:(fun () _ -> ())
  with
  | Ok () -> Alcotest.fail "fold_file opened a missing file"
  | Error _ -> ()

(* ---------------------------------------------------------------- *)
(* the workload generator                                            *)

let collect spec = List.rev (Workload.fold spec ~init:[] ~f:(fun l j -> j :: l))

let workload_deterministic () =
  let spec = { Workload.default with total = 400 } in
  let a = collect spec and b = collect spec in
  check "same spec, same stream" true (a = b);
  check_int "exactly total jobs" 400 (List.length a);
  let ids = List.map (fun j -> j.Manifest.job_id) a in
  check "ids strictly increasing (feed order = id order)" true
    (List.for_all2 (fun x y -> compare x y < 0)
       (List.filteri (fun i _ -> i < List.length ids - 1) ids)
       (List.tl ids));
  let light = { spec with mix = Workload.Light } in
  check "mix changes the stream" true (collect light <> a);
  check "light deterministic too" true (collect light = collect light)

let workload_zipf_skew () =
  let spec =
    { Workload.default with universe = 50; total = 2_000; cold = 0.0;
      corrupt = 0.0; exponent = 1.2 }
  in
  (* rank identity is the job seed *)
  let freq = Array.make 50 0 in
  Workload.iter spec ~f:(fun j -> freq.(j.Manifest.seed) <- freq.(j.Manifest.seed) + 1);
  check
    (Printf.sprintf "rank 0 (%d) hotter than rank 49 (%d)" freq.(0) freq.(49))
    true
    (freq.(0) > freq.(49));
  check "head rank dominates" true (freq.(0) > 100)

let workload_corrupt_rejected () =
  let spec = { Workload.default with total = 60; corrupt = 0.5; cold = 0.0 } in
  let engine = Engine.create () in
  let rejected = ref 0 and served = ref 0 in
  Workload.iter spec ~f:(fun j ->
      match (Engine.run_job engine j).Stats.r_status with
      | Stats.Input_error _ -> incr rejected
      | Stats.Served_fresh | Stats.Served_cached | Stats.Served_degraded ->
          incr served
      | s -> Alcotest.failf "unexpected status %s" (Stats.status_name s));
  check "some corrupt jobs drawn" true (!rejected > 5);
  check "every non-corrupt job served" true (!served + !rejected = 60)

let workload_spec_parse () =
  let rt spec =
    match Workload.parse_spec (Workload.to_string spec) with
    | Ok s -> check "round trip" true (s = spec)
    | Error e -> Alcotest.fail e
  in
  rt Workload.default;
  rt
    {
      Workload.universe = 7; total = 3; exponent = 2.5; seed = 9;
      cold = 0.25; corrupt = 0.125; mix = Workload.Light;
    };
  (match Workload.parse_spec "t=12345" with
  | Ok s ->
      check_int "t overrides" 12_345 s.Workload.total;
      check_int "u defaults" Workload.default.Workload.universe
        s.Workload.universe
  | Error e -> Alcotest.fail e);
  let bad s = match Workload.parse_spec s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  bad "zipf:u=0";
  bad "s=0";
  bad "cold=0.9,corrupt=0.2";
  bad "mix=heavy";
  bad "q=1";
  bad "gauss:u=5"

(* ---------------------------------------------------------------- *)
(* the negative-lookup filter                                        *)

let keys_arb =
  QCheck.make
    QCheck.Gen.(list_size (int_range 0 200) (map Int64.of_int int))

let filter_no_false_negatives keys =
  let f = Negf.create () in
  List.iter (Negf.add f) keys;
  List.for_all (Negf.mem f) keys

let filter_fp_rate () =
  let f = Negf.create () in
  let key i = Hash64.int Hash64.init i in
  for i = 0 to 4_999 do
    Negf.add f (key i)
  done;
  check_int "added counter" 5_000 (Negf.added f);
  let fps = ref 0 in
  for i = 5_000 to 9_999 do
    if Negf.mem f (key i) then incr fps
  done;
  check
    (Printf.sprintf "%d false positives of 5000 probes (< 2%%)" !fps)
    true
    (float_of_int !fps /. 5_000.0 < 0.02);
  Negf.clear f;
  check_int "clear resets added" 0 (Negf.added f);
  check "clear forgets members" false (Negf.mem f (key 0))

(* ---------------------------------------------------------------- *)
(* filter + batching counters through the engine and store           *)

(* two jobs with the same content key (same generated graph, property,
   k) under different ids. The path family makes key identity exact:
   same n is the same edge set (one key), distinct n is provably a
   distinct edge set (random graphs at tiny n can collide) *)
let dup_jobs ids_ns =
  List.map
    (fun (id, n) ->
      match
        Manifest.parse
          (Printf.sprintf
             "id=%s gen=path n=%d gseed=%d property=connected k=1 seed=%d"
             id n n n)
      with
      | Ok [ j ] -> j
      | _ -> Alcotest.fail "bad test job")
    ids_ns

(* one in-process pass of [jobs] over [engine] through the local
   driver, fed in manifest order: these tests script the order in which
   keys are touched *)
let run_local engine jobs =
  let reports = ref [] in
  ignore
    (Pool.run_once
       ~emit:(fun r -> reports := r :: !reports)
       ~timing:(Service.Timing.create ()) ~workers:1
       ~make_engine:(fun ~worker:_ _ -> engine)
       (fun feed -> List.iter feed jobs)
      : Pool.outcome);
  List.rev !reports

let counters_write_through () =
  with_dir "wt" (fun d ->
      (* cap=1 evicts the previous key on every insert, so every repeat
         is a disk probe: the filter must let each one through (hit)
         and must short-circuit exactly the two first-touches (skip) *)
      let engine = Engine.create ~cache_cap:1 ~cache_dir:d () in
      let jobs =
        dup_jobs
          [ ("a1", 6); ("b1", 8); ("a2", 6); ("b2", 8); ("a3", 6); ("b3", 8) ]
      in
      ignore (run_local engine jobs : Stats.job_report list);
      let s = Store.stats (Engine.store engine) in
      check_int "filter_skips = first touches" 2 s.Store.filter_skips;
      check_int "filter_hits = disk serves" 4 s.Store.filter_hits;
      check_int "disk_loads" 4 s.Store.disk_loads;
      check_int "no false positives in-process" 0 s.Store.filter_fps)

let counters_dirty_serve () =
  with_dir "dirty" (fun d ->
      (* write_batch larger than the job count: nothing reaches disk
         until the final flush, yet evicted entries must still be
         served — from the dirty set, not by recomputation *)
      let engine = Engine.create ~cache_cap:1 ~cache_dir:d ~write_batch:8 () in
      let jobs = dup_jobs [ ("a1", 6); ("b1", 8); ("a2", 6); ("b2", 8) ] in
      ignore (run_local engine jobs : Stats.job_report list);
      let s = Store.stats (Engine.store engine) in
      check_int "nothing read back from disk" 0 s.Store.disk_loads;
      check_int "no disk probes at all" 0 s.Store.filter_hits;
      check_int "first touches still skip" 2 s.Store.filter_skips;
      check_int "one group commit (the final flush)" 1 s.Store.flushes;
      let certs =
        Sys.readdir d |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".cert")
      in
      check_int "both records flushed" 2 (List.length certs))

let counters_pool_sharded () =
  with_dir "shard" (fun d ->
      let jobs =
        dup_jobs
          (List.concat_map
             (fun n -> [ (Printf.sprintf "k%da" n, n); (Printf.sprintf "k%db" n, n) ])
             [ 6; 7; 8; 9; 10; 11 ])
      in
      let workers = 2 in
      let timing = Service.Timing.create () in
      (* one disk tier per worker (keyed by child pid): a shared dir
         would let a late-starting worker seed its filter from the
         sibling's flushed records, turning first-touch skips into
         scheduling-dependent disk hits *)
      ignore
        (Pool.run_once ~timing ~workers
           ~make_engine:(fun ~worker:_ wt ->
             let wd = Filename.concat d (string_of_int (Unix.getpid ())) in
             Engine.create ~cache_dir:wd ?timing:wt ())
           (Pool.in_id_order jobs)
          : Pool.outcome);
      (* per-worker filters are process-private and start empty,
         memory caps are large: each worker skips exactly one probe
         per distinct key of its shard and never probes again *)
      let module S = Set.Make (Int) in
      let expected =
        List.fold_left
          (fun acc j ->
            let w = Pool.shard_of ~workers j.Manifest.job_id in
            let n = match j.Manifest.source with
              | Manifest.Generated { n; _ } -> n
              | _ -> Alcotest.fail "generated only"
            in
            (w, n) :: acc)
          [] jobs
        |> List.map (fun (w, n) -> (w * 1000) + n)
        |> S.of_list |> S.cardinal
      in
      let summed = Service.Timing.counter timing in
      check_int "summed filter_skips = per-shard first touches" expected
        (summed "filter_skips");
      check_int "no disk hits with private tiers" 0 (summed "filter_hits");
      check_int "no false positives across workers" 0 (summed "filter_fps"))

let crash_mid_flush_recovers () =
  let jobs =
    dup_jobs [ ("j1", 5); ("j2", 6); ("j3", 7); ("j4", 8); ("j5", 9) ]
  in
  (* the clean reference canonical output *)
  let clean_lines =
    with_dir "ref" (fun d ->
        let e = Engine.create ~cache_dir:d ~write_batch:4 () in
        Stats.canonical_lines (run_local e jobs))
  in
  with_dir "crash" (fun d ->
      let plan =
        match Blob_io.parse_plan "crash@6" with
        | Ok p -> p
        | Error e -> Alcotest.fail e
      in
      let io = fst (Blob_io.inject ~plan Blob_io.real) in
      let e1 = Engine.create ~cache_dir:d ~write_batch:4 ~io () in
      (match run_local e1 jobs with
      | _ -> Alcotest.fail "expected a crash mid-flush"
      | exception Blob_io.Crashed _ -> ());
      (* reopen: orphan tmp files swept, no corrupt record served, and
         the judgements re-converge to the clean run byte-for-byte *)
      let e2 = Engine.create ~cache_dir:d ~write_batch:4 () in
      let reports = run_local e2 jobs in
      let s = Store.stats (Engine.store e2) in
      check_int "zero corrupt records on reopen" 0 s.Store.corrupt;
      check_int "zero quarantined" 0 s.Store.quarantined;
      check_str "canonical output = clean run" clean_lines
        (Stats.canonical_lines reports);
      let tmp_left =
        Sys.readdir d |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".tmp")
      in
      check_int "no tmp litter after reopen" 0 (List.length tmp_left))

(* ---------------------------------------------------------------- *)
(* stream = batch through the pool                                   *)

let stream_matches_batch () =
  with_dir "sb" (fun d ->
      let spec =
        { Workload.default with total = 150; universe = 40;
          mix = Workload.Light; corrupt = 0.05 }
      in
      let mpath = Filename.concat d "w.manifest" in
      let written = Workload.write_manifest spec mpath in
      check_int "manifest covers the stream" 150 written;
      let jobs =
        match Manifest.load_file mpath with
        | Ok js -> js
        | Error e -> Alcotest.fail e
      in
      let cache tag = Filename.concat d ("c" ^ tag) in
      let batch = ref [] in
      ignore
        (Pool.run_once
           ~emit:(fun r -> batch := r :: !batch)
           ~timing:(Service.Timing.create ()) ~workers:1
           ~make_engine:(fun ~worker:_ wt ->
             Engine.create ~cache_dir:(cache "b") ?timing:wt ())
           (Pool.in_id_order jobs)
          : Pool.outcome);
      let batch_lines = Stats.canonical_lines !batch in
      List.iter
        (fun workers ->
          let lines = ref [] in
          let outcome =
            Pool.run_once
              ~emit:(fun r -> lines := Stats.to_canonical_json r :: !lines)
              ~timing:(Service.Timing.create ()) ~workers
              ~make_engine:(fun ~worker:_ wt ->
                Engine.create
                  ~cache_dir:(cache (string_of_int workers))
                  ?timing:wt ())
              (fun feed -> Workload.iter spec ~f:feed)
          in
          check_int
            (Printf.sprintf "N=%d: all jobs" workers)
            150 outcome.Pool.summary.Stats.s_jobs;
          check_str
            (Printf.sprintf "N=%d: canonical output = batch" workers)
            batch_lines
            (String.concat "\n" (List.rev !lines)))
        [ 1; 2 ])

(* ---------------------------------------------------------------- *)

let () =
  Alcotest.run "lcp-stream"
    [
      ( "reader",
        [
          qtest ~count:40 "fold_file = load_file on random manifests"
            manifest_arb stream_equals_load;
          test "mid-stream error is line-precise" line_precise_error;
          test "10^6-line manifest streams in constant heap"
            million_lines_constant_heap;
          test "missing file is an error, not an exception"
            missing_file_is_error;
        ] );
      ( "workload",
        [
          test "deterministic, ordered, sized" workload_deterministic;
          test "zipf head is hot" workload_zipf_skew;
          test "corrupt jobs are engine-rejected" workload_corrupt_rejected;
          test "spec parsing round-trips and rejects" workload_spec_parse;
        ] );
      ( "filter",
        [
          qtest ~count:100 "no false negatives" keys_arb
            filter_no_false_negatives;
          test "false-positive rate bounded" filter_fp_rate;
        ] );
      ( "store",
        [
          test "write-through counters exact" counters_write_through;
          test "dirty set serves unflushed evictions" counters_dirty_serve;
          test "sharded counters exact" counters_pool_sharded;
          test "crash mid-flush: reopen serves zero corrupt"
            crash_mid_flush_recovers;
        ] );
      ("pool", [ test "stream = batch at N in {1,2}" stream_matches_batch ]);
    ]

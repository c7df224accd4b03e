(* Crash-recovery and fault-injection tests for the storage layer
   (lib/service/blob_io + cert_store) and the degraded-mode engine:

   - fault-plan parsing and the injected backend's semantics
     (fail-Nth-op, torn write, bit flip, crash point);
   - the central recovery property: for EVERY truncation prefix of a
     real .cert record, and for EVERY single-bit flip of it, the store
     rejects the record before decode (quarantining it) and the engine
     serves a fresh, locally verified bundle — never a torn one;
   - orphan .tmp sweep on reopen, disk-capacity GC by mtime, the
     degraded (memory-only) mode under persistent write failure, the
     Sys_error boundary at Cert_store.add, descriptive create errors,
     uniform n >= 1 validation in the engine, and the deterministic
     retry/backoff/deadline machinery.

   Runs as its own executable; `dune build @recovery` runs this suite
   plus the full E9 campaign in bench/. *)

module G = Lcp_graph.Graph
module Gen = Lcp_graph.Gen
module Bitenc = Lcp_util.Bitenc
module Hash64 = Lcp_util.Hash64
module Blob = Lcp_service.Blob_io
module Store = Lcp_service.Cert_store
module Bundle = Lcp_service.Bundle
module Manifest = Lcp_service.Manifest
module Engine = Lcp_service.Engine
module Stats = Lcp_service.Stats
module Pool = Lcp_service.Pool
module Timing = Lcp_service.Timing

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let test name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let contains s frag =
  let ls = String.length s and lf = String.length frag in
  let rec go i = i + lf <= ls && (String.sub s i lf = frag || go (i + 1)) in
  go 0

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lcp_test_recovery_%d_%d" (Unix.getpid ())
         (Random.bits ()))
  in
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file = Blob.real.Blob.read_file
let write_file = Blob.real.Blob.write_file

let plan1 on = [ { Blob.at = 1; repeat = false; on } ]

let job_of ?(id = "j") family n gseed property k =
  {
    Manifest.job_id = id;
    source = Manifest.Generated { family; n; gen_seed = gseed };
    property;
    k;
    seed = 1;
  }

(* one real record, produced by the real engine pipeline *)
let produce_record dir =
  let engine = Engine.create ~cache_cap:16 ~cache_dir:dir () in
  let r = Engine.run_job engine (job_of "path" 6 0 "connected" 1) in
  check "record job served fresh" true (r.Stats.r_status = Stats.Served_fresh);
  let key = Store.key ~property:"connected" ~k:1 (Gen.path 6) in
  let path = Filename.concat dir (Store.key_hex key ^ ".cert") in
  check "record exists on disk" true (Sys.file_exists path);
  (key, path, read_file path)

(* ---------------------------------------------------------------- *)
(* fault plans                                                       *)

let plan_parsing () =
  (match Blob.parse_plan "fail@3:ENOSPC, torn@5:128,flip@7:42,crash@9" with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      check_int "four items" 4 (List.length plan);
      check "roundtrip" true
        (Blob.plan_to_string plan = "fail@3:ENOSPC,torn@5:128,flip@7:42,crash@9"));
  (match Blob.parse_plan "fail@2+" with
  | Ok [ { Blob.at = 2; repeat = true; on = Blob.Fail "EIO" } ] -> ()
  | Ok _ -> Alcotest.fail "fail@2+ parsed wrong"
  | Error e -> Alcotest.fail e);
  let expect_err s frag =
    match Blob.parse_plan s with
    | Ok _ -> Alcotest.failf "plan %S must not parse" s
    | Error e -> check (Printf.sprintf "error mentions %s" frag) true (contains e frag)
  in
  expect_err "" "empty";
  expect_err "fail" "kind@N";
  expect_err "fail@0" "op index";
  expect_err "torn@2" "byte offset";
  expect_err "flip@2:x" "offset must be";
  expect_err "crash@1:9" "no argument";
  expect_err "explode@1" "unknown fault kind"

let injection_semantics () =
  with_temp_dir (fun dir ->
      let p = Filename.concat dir "f" in
      (* fail-Nth: op 2 raises, ops 1 and 3 succeed *)
      let io, c =
        Blob.inject
          ~plan:[ { Blob.at = 2; repeat = false; on = Blob.Fail "ENOSPC" } ]
          Blob.real
      in
      io.Blob.write_file p "one";
      (match io.Blob.write_file p "two" with
      | () -> Alcotest.fail "op 2 must raise"
      | exception Sys_error e ->
          check "tagged errno" true (contains e "ENOSPC"));
      io.Blob.write_file p "three";
      check_int "three ops counted" 3 c.Blob.ops;
      check_int "one injection" 1 c.Blob.injected;
      check "reads do not count as ops" true
        (ignore (io.Blob.read_file p);
         c.Blob.ops = 3);
      (* torn: prefix lands on disk, then the backend is dead *)
      let io, c = Blob.inject ~plan:(plan1 (Blob.Torn 4)) Blob.real in
      (match io.Blob.write_file p "abcdefgh" with
      | () -> Alcotest.fail "torn write must crash"
      | exception Blob.Crashed _ -> ());
      check "crashed flag" true c.Blob.crashed;
      Alcotest.(check string) "torn prefix on disk" "abcd" (read_file p);
      (match io.Blob.read_file p with
      | _ -> Alcotest.fail "dead backend must not read"
      | exception Blob.Crashed _ -> ());
      (* flip: silent single-bit corruption *)
      let io, _ = Blob.inject ~plan:(plan1 (Blob.Flip 0)) Blob.real in
      io.Blob.write_file p "a";
      Alcotest.(check string) "bit 0 flipped" "`" (read_file p);
      (* crash: nothing happens, everything after is dead *)
      let io, c = Blob.inject ~plan:(plan1 Blob.Crash) Blob.real in
      write_file p "x";
      (match io.Blob.write_file p "y" with
      | () -> Alcotest.fail "crash point must fire"
      | exception Blob.Crashed _ -> ());
      Alcotest.(check string) "crash wrote nothing" "x" (read_file p);
      check "crashed" true c.Blob.crashed)

(* ---------------------------------------------------------------- *)
(* the recovery property                                             *)

let every_truncation_rejected () =
  with_temp_dir (fun dir ->
      let key, path, content = produce_record dir in
      let len = String.length content in
      check "record nonempty" true (len > 0);
      (* every prefix must be rejected by the parser before decode *)
      for b = 0 to len - 1 do
        match Store.parse_record key (String.sub content 0 b) with
        | Ok (Some _) -> Alcotest.failf "truncation at %d accepted" b
        | Ok None | Error _ -> ()
      done;
      (* through the disk machinery: truncated record in place -> the
         reopened store quarantines it and misses; the engine then
         serves a fresh, locally verified bundle *)
      List.iter
        (fun b ->
          write_file path (String.sub content 0 b);
          let st = Store.create ~cap:8 ~dir () in
          check "torn record is a miss" true (Store.find st key = None);
          check_int "torn record counted corrupt" 1 (Store.stats st).Store.corrupt;
          check_int "torn record quarantined" 1
            (Store.stats st).Store.quarantined;
          check "torn file moved off the hot path" true
            (not (Sys.file_exists path));
          let engine = Engine.create ~cache_cap:16 ~cache_dir:dir () in
          let r = Engine.run_job engine (job_of "path" 6 0 "connected" 1) in
          check "engine re-serves fresh after torn record" true
            (r.Stats.r_status = Stats.Served_fresh);
          check "fresh record back on disk" true (Sys.file_exists path);
          Alcotest.(check string)
            "re-written record is byte-identical" content (read_file path);
          (* drop quarantined copies so counts stay per-iteration *)
          rm_rf (Filename.concat dir "quarantine"))
        [ 0; 1; 9; len / 2; len - 1 ])

let every_bit_flip_rejected () =
  with_temp_dir (fun dir ->
      let key, path, content = produce_record dir in
      let flip s b =
        let bytes = Bytes.of_string s in
        Bytes.set bytes (b / 8)
          (Char.chr
             (Char.code (Bytes.get bytes (b / 8)) lxor (1 lsl (b mod 8))));
        Bytes.unsafe_to_string bytes
      in
      (* every single-bit flip of the record must be rejected *)
      for b = 0 to (8 * String.length content) - 1 do
        match Store.parse_record key (flip content b) with
        | Ok (Some _) -> Alcotest.failf "bit flip at %d accepted" b
        | Ok None | Error _ -> ()
      done;
      (* a few through the disk machinery + engine *)
      List.iter
        (fun b ->
          write_file path (flip content b);
          let st = Store.create ~cap:8 ~dir () in
          check "flipped record is a miss" true (Store.find st key = None);
          check_int "flipped record counted corrupt" 1
            (Store.stats st).Store.corrupt;
          let engine = Engine.create ~cache_cap:16 ~cache_dir:dir () in
          let r = Engine.run_job engine (job_of "path" 6 0 "connected" 1) in
          check "engine re-serves fresh after bit rot" true
            (r.Stats.r_status = Stats.Served_fresh);
          rm_rf (Filename.concat dir "quarantine"))
        [ 0; 7; 8 * String.length content / 2; (8 * String.length content) - 1 ])

let shared_record = ref None

let prop_mutations_never_served =
  qcheck ~count:150 "random truncation+flips never parse as our record"
    QCheck.(pair small_nat (small_list small_nat))
    (fun (cut, flips) ->
      (* one shared record, mutated purely in memory *)
      let key, content =
        match !shared_record with
        | Some kc -> kc
        | None ->
            let kc =
              with_temp_dir (fun dir ->
                  let key, _, content = produce_record dir in
                  (key, content))
            in
            shared_record := Some kc;
            kc
      in
      let len = String.length content in
      let s =
        if cut mod 3 = 0 && len > 0 then String.sub content 0 (cut mod len)
        else content
      in
      let s =
        List.fold_left
          (fun s b ->
            if String.length s = 0 then s
            else begin
              let bytes = Bytes.of_string s in
              let i = b mod (8 * String.length s) in
              Bytes.set bytes (i / 8)
                (Char.chr
                   (Char.code (Bytes.get bytes (i / 8)) lxor (1 lsl (i mod 8))));
              Bytes.unsafe_to_string bytes
            end)
          s flips
      in
      if s = content then true
      else
        match Store.parse_record key s with
        | Ok (Some _) -> false
        | Ok None | Error _ -> true)

(* ---------------------------------------------------------------- *)
(* store robustness                                                  *)

let orphan_sweep () =
  with_temp_dir (fun dir ->
      write_file (Filename.concat dir "a.cert.tmp") "half";
      write_file (Filename.concat dir "b.cert.tmp") "";
      write_file (Filename.concat dir "keep.cert") "not swept";
      let st = Store.create ~cap:4 ~dir () in
      check_int "two orphans swept" 2 (Store.stats st).Store.orphans_swept;
      check "tmp files gone" true
        ((not (Sys.file_exists (Filename.concat dir "a.cert.tmp")))
        && not (Sys.file_exists (Filename.concat dir "b.cert.tmp")));
      check "non-tmp files kept" true
        (Sys.file_exists (Filename.concat dir "keep.cert")))

let dummy_entry key seed =
  let w = Bitenc.writer () in
  Bitenc.varint w seed;
  {
    Store.e_key = key;
    e_bundle = { Bundle.bytes = Bitenc.to_bytes w; bits = Bitenc.length_bits w };
    e_label_bits = seed;
  }

let key_i i = Store.key ~property:"connected" ~k:1 (Gen.path (4 + i))

let degraded_mode () =
  with_temp_dir (fun dir ->
      let io, _ =
        Blob.inject
          ~plan:[ { Blob.at = 1; repeat = true; on = Blob.Fail "EDQUOT" } ]
          Blob.real
      in
      let st = Store.create ~cap:8 ~dir ~degrade_after:3 ~io () in
      for i = 0 to 4 do
        Store.add st (dummy_entry (key_i i) i)
      done;
      let s = Store.stats st in
      check "store degraded after persistent write failure" true
        (Store.degraded st);
      check "disk errors counted" true (s.Store.disk_errors >= 3);
      check_int "no record reached disk" 0
        (List.length
           (List.filter
              (fun f -> Filename.check_suffix f ".cert")
              (Array.to_list (Sys.readdir dir))));
      (* the memory tier still serves *)
      check "memory tier alive" true (Store.find st (key_i 0) <> None);
      (* and a degraded store never touches the disk again *)
      Store.add st (dummy_entry (key_i 9) 9);
      check "add while degraded is memory-only" true
        (Store.find st (key_i 9) <> None))

let add_boundary_regression () =
  (* the cache dir becomes unwritable after create (the moral
     equivalent of a read-only disk, which root would bypass): add must
     absorb the Sys_error, count it, and keep serving from memory *)
  with_temp_dir (fun parent ->
      let dir = Filename.concat parent "cache" in
      let st = Store.create ~cap:8 ~dir () in
      rm_rf dir;
      write_file dir "now a file, not a directory";
      Store.add st (dummy_entry (key_i 0) 7);
      check_int "disk error counted" 1 (Store.stats st).Store.disk_errors;
      check "batch survives: entry served from memory" true
        (Store.find st (key_i 0) <> None);
      check "not yet degraded after one failure" true (not (Store.degraded st)))

let create_errors () =
  with_temp_dir (fun dir ->
      let file = Filename.concat dir "plain" in
      write_file file "x";
      (* the target exists but is a file *)
      (match Store.create ~cap:4 ~dir:file () with
      | _ -> Alcotest.fail "create over a file must fail"
      | exception Sys_error e ->
          check "names the directory" true (contains e "plain");
          check "says why" true (contains e "not a directory"));
      (* a parent component is a file, so mkdir_p cannot proceed *)
      match Store.create ~cap:4 ~dir:(Filename.concat file "sub") () with
      | _ -> Alcotest.fail "create under a file must fail"
      | exception Sys_error e ->
          check "descriptive create error" true
            (contains e "cannot create cache directory"))

let disk_gc () =
  with_temp_dir (fun dir ->
      let st = Store.create ~cap:16 ~dir ~disk_cap:3 () in
      let path i = Filename.concat dir (Store.key_hex (key_i i) ^ ".cert") in
      for i = 0 to 4 do
        Store.add st (dummy_entry (key_i i) i);
        (* deterministic mtime order regardless of fs resolution *)
        Unix.utimes (path i) (1000.0 +. float_of_int i) (1000.0 +. float_of_int i)
      done;
      let certs =
        Array.to_list (Sys.readdir dir)
        |> List.filter (fun f -> Filename.check_suffix f ".cert")
      in
      check_int "disk tier capped" 3 (List.length certs);
      check_int "gc evictions counted" 2 (Store.stats st).Store.gc_evictions;
      check "oldest records evicted" true
        ((not (Sys.file_exists (path 0))) && not (Sys.file_exists (path 1)));
      check "newest records kept" true
        (Sys.file_exists (path 2) && Sys.file_exists (path 3)
        && Sys.file_exists (path 4));
      (* a disk hit refreshes recency: reading 2 touches its mtime *)
      let st2 = Store.create ~cap:16 ~dir ~disk_cap:3 () in
      check "disk hit" true (Store.find st2 (key_i 2) <> None);
      check "disk hit touched mtime" true
        ((Unix.stat (path 2)).Unix.st_mtime > 2000.0))

let quarantine_cap () =
  with_temp_dir (fun dir ->
      (* five intact records, then corrupt every one of them on disk *)
      let st = Store.create ~cap:16 ~dir () in
      for i = 0 to 4 do
        Store.add st (dummy_entry (key_i i) i)
      done;
      let path i = Filename.concat dir (Store.key_hex (key_i i) ^ ".cert") in
      for i = 0 to 4 do
        let b = Bytes.of_string (read_file (path i)) in
        let last = Bytes.length b - 1 in
        Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0xff));
        write_file (path i) (Bytes.to_string b)
      done;
      (* a cold store rejects each record on read and quarantines it;
         the quarantine cap must keep the directory at 3, evicting the
         oldest debris as the 4th and 5th arrive *)
      let st2 = Store.create ~cap:16 ~dir ~quarantine_cap:3 () in
      for i = 0 to 4 do
        check "corrupt record reads as a miss" true
          (Store.find st2 (key_i i) = None)
      done;
      let s = Store.stats st2 in
      check_int "all five corrupt" 5 s.Store.corrupt;
      check_int "all five quarantined" 5 s.Store.quarantined;
      check_int "two quarantine evictions" 2 s.Store.quarantine_evictions;
      let qdir = Filename.concat dir "quarantine" in
      check_int "quarantine dir capped at 3" 3
        (Array.length (Sys.readdir qdir)))

(* ---------------------------------------------------------------- *)
(* engine robustness                                                 *)

let engine_n_validation () =
  let engine = Engine.create () in
  let expect_input_error family n frag =
    match (Engine.run_job engine (job_of family n 0 "connected" 2)).Stats.r_status with
    | Stats.Input_error e ->
        check (Printf.sprintf "%s n=%d rejected" family n) true (contains e frag)
    | s ->
        Alcotest.failf "%s n=%d: expected Input_error, got %s" family n
          (Stats.status_name s)
  in
  List.iter
    (fun family ->
      expect_input_error family 0 "n >= 1";
      expect_input_error family (-4) "n >= 1")
    [ "path"; "cycle"; "caterpillar"; "ladder"; "star"; "tree"; "random" ];
  expect_input_error "cycle" 2 "n >= 3";
  (* n = 1 is valid everywhere else: no exception may escape *)
  List.iter
    (fun family ->
      match (Engine.run_job engine (job_of family 1 0 "connected" 2)).Stats.r_status with
      | Stats.Input_error e -> Alcotest.failf "%s n=1: %s" family e
      | _ -> ())
    [ "path"; "caterpillar"; "ladder"; "star"; "tree"; "random" ]

let retry_machinery () =
  let policy =
    { Engine.max_retries = 3; backoff_ms = 0.0; deadline_ms = Float.infinity }
  in
  let now () = Unix.gettimeofday () *. 1000.0 in
  (* succeeds on the third attempt *)
  let calls = ref 0 in
  (match
     Engine.with_retries ~retry:policy ~now (fun attempt ->
         incr calls;
         check_int "attempt number passed through" (attempt + 1) !calls;
         if !calls < 3 then failwith "transient";
         "ok")
   with
  | Ok ("ok", 2) -> ()
  | Ok (_, r) -> Alcotest.failf "wrong retry count %d" r
  | Error (e, _) -> Alcotest.fail e);
  (* exhausts the retry budget *)
  let calls = ref 0 in
  (match
     Engine.with_retries ~retry:policy ~now (fun _ ->
         incr calls;
         raise (Sys_error "disk on fire"))
   with
  | Ok _ -> Alcotest.fail "must not succeed"
  | Error (e, retries) ->
      check_int "all attempts spent" 4 !calls;
      check_int "retries reported" 3 retries;
      check "message says gave up" true (contains e "gave up after 4");
      check "message keeps the cause" true (contains e "disk on fire"));
  (* the deadline budget stops retries that would overrun it *)
  let calls = ref 0 in
  (match
     Engine.with_retries
       ~retry:
         { Engine.max_retries = 5; backoff_ms = 1000.0; deadline_ms = 0.5 }
       ~now
       (fun _ ->
         incr calls;
         failwith "still broken")
   with
  | Ok _ -> Alcotest.fail "must not succeed"
  | Error (e, _) ->
      check_int "no retry scheduled past the deadline" 1 !calls;
      check "message says deadline" true (contains e "deadline"));
  (* the deterministic schedule: 1x, 2x, 4x, ... *)
  check "backoff doubles" true
    (Engine.backoff_delay policy 0 = 0.0
    && Engine.backoff_delay
         { policy with Engine.backoff_ms = 3.0 }
         2
       = 12.0);
  (* a simulated crash is never retried: the process is dead *)
  let calls = ref 0 in
  match
    Engine.with_retries ~retry:policy ~now (fun _ ->
        incr calls;
        raise (Blob.Crashed "boom"))
  with
  | _ -> Alcotest.fail "crash must propagate"
  | exception Blob.Crashed _ -> check_int "single attempt" 1 !calls

let engine_degraded_and_crash () =
  with_temp_dir (fun dir ->
      (* persistent ENOSPC: the batch completes, jobs degrade, none fail *)
      let io, _ =
        Blob.inject
          ~plan:[ { Blob.at = 1; repeat = true; on = Blob.Fail "ENOSPC" } ]
          Blob.real
      in
      let engine = Engine.create ~cache_cap:32 ~cache_dir:dir ~io () in
      let jobs = List.init 8 (fun i -> job_of ~id:(string_of_int i) "tree" (8 + i) i "acyclic" 2) in
      let run engine =
        (Pool.run_once ~timing:(Timing.create ()) ~workers:1
           ~make_engine:(fun ~worker:_ _ -> engine)
           (Pool.in_id_order jobs))
          .Pool.summary
      in
      let summary = run engine in
      check_int "all jobs served" 8 summary.Stats.s_served;
      check_int "no job failed" 0 summary.Stats.s_failed;
      check "store degraded" true (Store.degraded (Engine.store engine));
      check "later jobs report served_degraded" true
        (summary.Stats.s_degraded > 0);
      (* a crash point, by contrast, must abort the batch *)
      let io, _ = Blob.inject ~plan:(plan1 Blob.Crash) Blob.real in
      let engine = Engine.create ~cache_cap:32 ~cache_dir:dir ~io () in
      match run engine with
      | _ -> Alcotest.fail "crash must propagate out of the batch"
      | exception Blob.Crashed _ -> ())

let run_job_is_total =
  qcheck ~count:120 "run_job never raises, whatever the job"
    QCheck.(
      quad
        (oneofl
           [ "path"; "cycle"; "star"; "tree"; "random"; "moebius"; "" ])
        small_signed_int small_signed_int
        (oneofl [ "connected"; "acyclic"; "frobnicate"; "" ]))
    (fun (family, n, k, property) ->
      let engine = Engine.create () in
      let job =
        {
          Manifest.job_id = "q";
          source = Manifest.Generated { family; n; gen_seed = 3 };
          property;
          k;
          seed = 0;
        }
      in
      match Engine.run_job engine job with
      | (_ : Stats.job_report) -> true
      | exception _ -> false)

let suite =
  ( "recovery",
    [
      test "fault plan parsing" plan_parsing;
      test "fault injection semantics" injection_semantics;
      test "every truncation rejected" every_truncation_rejected;
      test "every bit flip rejected" every_bit_flip_rejected;
      prop_mutations_never_served;
      test "orphan sweep on reopen" orphan_sweep;
      test "degraded mode under persistent failure" degraded_mode;
      test "add absorbs Sys_error (unwritable dir)" add_boundary_regression;
      test "create errors are immediate and descriptive" create_errors;
      test "disk GC by mtime" disk_gc;
      test "quarantine dir is capped" quarantine_cap;
      test "engine validates n uniformly" engine_n_validation;
      test "retry machinery" retry_machinery;
      test "engine degraded vs crash" engine_degraded_and_crash;
      run_job_is_total;
    ] )

let () = Alcotest.run "lcp-recovery" [ suite ]

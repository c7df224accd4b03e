(* Daemon-layer tests: the wire protocol (framing, incremental
   reassembly, codec round-trips), the Timing percentile-merge edge
   cases a long-lived multi-process daemon exercises (empty sample
   sets, single-sample stages, workers that recorded nothing for a
   stage), and end-to-end tests of the server itself — a real forked
   certd-server on a tmp socket: canonical output byte-identical to a
   batch run, admission-control rejections, the live stats endpoint,
   worker crash/respawn with single-retry semantics, and SIGTERM
   drain.

   Runs as its own executable; `dune build @daemon` runs it in
   isolation. *)

module Wire = Lcp_service.Wire
module Server = Lcp_service.Server
module Engine = Lcp_service.Engine
module Manifest = Lcp_service.Manifest
module Stats = Lcp_service.Stats
module Timing = Lcp_service.Timing
module Pool = Lcp_service.Pool
module Blob = Lcp_service.Blob_io

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let test name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 200) name arb prop =
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
      (Printf.sprintf "lcp_test_daemon_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ---------------------------------------------------------------- *)
(* framing                                                           *)

let frame_roundtrip () =
  let rfd, wfd = Unix.pipe () in
  (* total must fit the pipe buffer (64 KiB): these writes have no
     concurrent reader *)
  let payloads = [ ""; "x"; "hello\nworld"; String.make 40_000 'q' ] in
  List.iter (fun p -> Wire.write_frame wfd p) payloads;
  Unix.close wfd;
  List.iter
    (fun expected ->
      match Wire.read_frame rfd with
      | Some got -> check_str "frame round-trips" expected got
      | None -> Alcotest.fail "premature EOF")
    payloads;
  check "clean EOF reads as None" true (Wire.read_frame rfd = None);
  Unix.close rfd;
  (* a torn frame — EOF inside the payload — is an error, not an end *)
  let rfd, wfd = Unix.pipe () in
  let b = Bytes.of_string "\x00\x00\x00\x10abc" in
  ignore (Unix.write wfd b 0 (Bytes.length b));
  Unix.close wfd;
  (match Wire.read_frame rfd with
  | exception Sys_error e -> check "says mid-frame" true (contains e "mid-frame")
  | Some _ | None -> Alcotest.fail "torn frame must raise");
  Unix.close rfd;
  (* the length cap guards both directions *)
  let rfd, wfd = Unix.pipe () in
  (match Wire.write_frame wfd (String.make (Wire.max_frame + 1) 'z') with
  | exception Sys_error e -> check "cap named" true (contains e "cap")
  | () -> Alcotest.fail "over-cap write must raise");
  let b = Bytes.of_string "\xff\xff\xff\xff" in
  ignore (Unix.write wfd b 0 4);
  (match Wire.read_frame rfd with
  | exception Sys_error e -> check "cap named" true (contains e "cap")
  | _ -> Alcotest.fail "over-cap length prefix must raise");
  Unix.close rfd;
  Unix.close wfd

let conn_reassembly () =
  (* one byte at a time: frames must pop out whole, exactly once *)
  let c = Wire.conn_create () in
  let payloads = [ "alpha"; ""; "beta\ngamma" ] in
  let stream = Buffer.create 64 in
  List.iter
    (fun p ->
      let rfd, wfd = Unix.pipe () in
      Wire.write_frame wfd p;
      Unix.close wfd;
      let chunk = Bytes.create 4096 in
      let n = Unix.read rfd chunk 0 4096 in
      Buffer.add_subbytes stream chunk 0 n;
      Unix.close rfd)
    payloads;
  let bytes = Buffer.to_bytes stream in
  let got = ref [] in
  Bytes.iter
    (fun ch ->
      Wire.conn_feed c (Bytes.make 1 ch) 1;
      let rec drain () =
        match Wire.conn_next c with
        | Some p ->
            got := p :: !got;
            drain ()
        | None -> ()
      in
      drain ())
    bytes;
  check "drip-fed frames arrive in order" true (List.rev !got = payloads);
  check_int "no residue" 0 (Wire.conn_buffered c);
  (* all at once: every frame pops from a single feed *)
  let c = Wire.conn_create () in
  Wire.conn_feed c bytes (Bytes.length bytes);
  List.iter
    (fun expected ->
      match Wire.conn_next c with
      | Some got -> check_str "bulk-fed frame" expected got
      | None -> Alcotest.fail "frame missing from bulk feed")
    payloads;
  check "no phantom frame" true (Wire.conn_next c = None)

let conn_frame_limits () =
  (* a payload of exactly [max_frame] bytes is legal and must
     reassemble whole; zero-length frames on both sides must pop as
     their own (empty) payloads, not be absorbed into it *)
  let big = String.make Wire.max_frame 'x' in
  let stream =
    Bytes.of_string (Wire.frame "" ^ Wire.frame big ^ Wire.frame "")
  in
  let c = Wire.conn_create () in
  (* feed in socket-read-sized chunks so the cap-sized frame is split
     across many feeds *)
  let chunk = 65536 in
  let off = ref 0 and got = ref [] in
  while !off < Bytes.length stream do
    let n = min chunk (Bytes.length stream - !off) in
    Wire.conn_feed c (Bytes.sub stream !off n) n;
    let rec drain () =
      match Wire.conn_next c with
      | Some p ->
          got := p :: !got;
          drain ()
      | None -> ()
    in
    drain ();
    off := !off + n
  done;
  (match List.rev !got with
  | [ ""; p; "" ] ->
      check_int "cap-sized payload intact" Wire.max_frame (String.length p);
      check "cap-sized payload unmangled" true (String.equal p big)
  | fs -> Alcotest.failf "expected 3 frames, got %d" (List.length fs));
  check_int "no residue" 0 (Wire.conn_buffered c);
  (* one byte over the cap refuses at encode time... *)
  (match Wire.frame (String.make (Wire.max_frame + 1) 'z') with
  | exception Sys_error e -> check "cap named" true (contains e "cap")
  | _ -> Alcotest.fail "over-cap frame must raise");
  (* ...and a hostile length prefix poisons the connection in conn_next
     rather than provoking a giant allocation *)
  let c = Wire.conn_create () in
  Wire.conn_feed c (Bytes.of_string "\xff\x00\x00\x00rest") 8;
  match Wire.conn_next c with
  | exception Sys_error e -> check "cap named" true (contains e "cap")
  | _ -> Alcotest.fail "over-cap prefix must raise in conn_next"

(* ---------------------------------------------------------------- *)
(* codec round-trips                                                 *)

(* single-space-separated words: the codec's reason fields live on the
   head line where runs of spaces collapse, so the generator avoids
   them (real reasons are printf-built and single-spaced) *)
let words_gen =
  QCheck.Gen.(
    map (String.concat " ")
      (list_size (int_range 1 6)
         (string_size ~gen:(char_range 'a' 'z') (int_range 1 8))))

let line_gen =
  QCheck.Gen.(
    map
      (fun (id, n) -> Printf.sprintf "id=%s gen=path n=%d property=connected k=2 seed=1" id n)
      (pair (string_size ~gen:(char_range 'a' 'z') (int_range 1 12)) (int_range 1 50)))

let request_gen =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map
            (fun (serial, canonical, deadline, line) ->
              Wire.Submit
                {
                  serial = abs serial;
                  canonical;
                  deadline_ms = Float.of_int (abs deadline);
                  line;
                })
            (quad small_signed_int bool small_signed_int line_gen) );
        ( 2,
          map
            (fun (serial, deadline, (sid, resume), line) ->
              Wire.Delta_open
                {
                  serial = abs serial;
                  deadline_ms = Float.of_int (abs deadline);
                  sid;
                  resume;
                  line;
                })
            (quad small_signed_int small_signed_int
               (pair
                  (string_size ~gen:(char_range 'a' 'z') (int_range 1 16))
                  bool)
               line_gen) );
        ( 1,
          map
            (fun v -> Wire.Hello { version = 1 + abs v })
            small_signed_int );
        ( 2,
          map
            (fun (serial, deadline, full, ops) ->
              Wire.Delta_edit
                {
                  serial = abs serial;
                  deadline_ms = Float.of_int (abs deadline);
                  full;
                  ops;
                })
            (quad small_signed_int small_signed_int bool
               (* an empty edit line is a legal no-op batch and must
                  survive the trip distinctly from "no body" *)
               (oneof [ return ""; return "add=0-1,2-3 del=4-5"; words_gen ])) );
        (1, return Wire.Stats_req);
        (1, return Wire.Ping);
        (1, return Wire.Shutdown);
      ])

let request_arb = QCheck.make ~print:Wire.encode_request request_gen

let request_roundtrip =
  qcheck "decode_request inverts encode_request" request_arb (fun req ->
      match Wire.decode_request (Wire.encode_request req) with
      | Ok req' -> req' = req
      | Error _ -> false)

let response_gen =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          map
            (fun (serial, id, status) ->
              Wire.Report
                {
                  serial = abs serial;
                  id;
                  status;
                  json = Printf.sprintf "{\"id\":\"%s\"}" id;
                  canonical = Printf.sprintf "{\"id\":\"%s\",\"verdict\":\"served\"}" id;
                })
            (triple small_signed_int
               (string_size ~gen:(char_range 'a' 'z') (int_range 1 12))
               (oneofl [ "served_fresh"; "served_cached"; "failed" ])) );
        ( 2,
          map
            (fun (serial, reason) ->
              Wire.Overloaded { serial = abs serial; reason })
            (pair small_signed_int words_gen) );
        ( 2,
          map
            (fun (serial, reason) -> Wire.Err { serial = abs serial; reason })
            (pair small_signed_int words_gen) );
        ( 2,
          map
            (fun (serial, id, status) ->
              Wire.Dreport
                {
                  serial = abs serial;
                  id;
                  status;
                  json = Printf.sprintf "{\"id\":\"%s\"}" id;
                  canonical =
                    Printf.sprintf "{\"id\":\"%s\",\"verdict\":\"served\"}" id;
                  patch = "{\"mode\":\"patched\",\"edits\":1,\"reused\":7}";
                })
            (triple small_signed_int
               (string_size ~gen:(char_range 'a' 'z') (int_range 1 12))
               (oneofl [ "served_fresh"; "served_cached"; "declined"; "unsound" ])) );
        (1, map (fun s -> Wire.Stats_reply ("{\"x\":" ^ string_of_int (abs s) ^ "}")) small_signed_int);
        (1, return Wire.Pong);
        (1, map (fun v -> Wire.Hello_ok { version = 1 + abs v }) small_signed_int);
      ])

let response_arb = QCheck.make ~print:Wire.encode_response response_gen

let response_roundtrip =
  qcheck "decode_response inverts encode_response" response_arb (fun resp ->
      match Wire.decode_response (Wire.encode_response resp) with
      | Ok resp' -> resp' = resp
      | Error _ -> false)

let decoder_is_total =
  qcheck ~count:500 "decoders never raise on junk" QCheck.(string)
    (fun payload ->
      (match Wire.decode_request payload with Ok _ | Error _ -> true)
      && match Wire.decode_response payload with Ok _ | Error _ -> true)

let delta_codec_rejects_malformed () =
  let req p = match Wire.decode_request p with Ok _ -> true | Error _ -> false in
  let resp p =
    match Wire.decode_response p with Ok _ -> true | Error _ -> false
  in
  check "dopen without body" false (req "dopen 1 0.0 0 s");
  check "dopen negative deadline" false
    (req "dopen 1 -5.0 0 s\nid=x gen=path n=4 property=connected k=1 seed=1");
  (* the protocol-1 dopen shape (no sid, no resume flag) must no longer
     decode: an old client gets a descriptive error, not a silently
     un-resumable session *)
  check "v1 dopen frame rejected" false
    (req "dopen 1 0.0\nid=x gen=path n=4 property=connected k=1 seed=1");
  check "v2 dopen frame accepted" true
    (req "dopen 1 0.0 0 s7\nid=x gen=path n=4 property=connected k=1 seed=1");
  check "dopen resume flag out of range" false
    (req "dopen 1 0.0 2 s7\nid=x gen=path n=4 property=connected k=1 seed=1");
  check "dopen empty sid" false
    (req "dopen 1 0.0 0 \nid=x gen=path n=4 property=connected k=1 seed=1");
  check "hello accepted" true (req "hello 2");
  check "hello needs a version" false (req "hello");
  check "hello non-numeric version" false (req "hello two");
  check "hello with body" false (req "hello 2\nx");
  check "hello-ok accepted" true (resp "hello-ok 2");
  check "hello-ok with body" false (resp "hello-ok 2\nx");
  check "dedit full flag out of range" false (req "dedit 1 2 0.0\nadd=0-1");
  check "dedit without body" false (req "dedit 1 1 0.0");
  check "dedit non-numeric serial" false (req "dedit one 0 0.0\nadd=0-1");
  check "dedit empty ops is a legal no-op batch" true (req "dedit 1 0 0.0\n");
  check "dreport three-line body" false (resp "dreport 1 ok\nid\njson\ncanon");
  check "dreport five-line body" false (resp "dreport 1 ok\na\nb\nc\nd\ne");
  check "dreport trailing header garbage" false
    (resp "dreport 1 ok extra\na\nb\nc\nd");
  check "dreport well-formed accepted" true (resp "dreport 1 ok\na\nb\nc\nd")

(* ---------------------------------------------------------------- *)
(* Timing percentile merges (the daemon's cross-process cases)       *)

let find_line t stage =
  List.find_opt (fun l -> l.Timing.l_stage = stage) (Timing.report t)

let timing_empty_merge () =
  let parent = Timing.create () in
  (* absorbing a worker that recorded nothing changes nothing *)
  Timing.absorb parent (Timing.samples (Timing.create ()));
  check "still no lines" true (Timing.report parent = []);
  Timing.record parent Timing.Prove 2.0;
  Timing.absorb parent (Timing.samples (Timing.create ()));
  match find_line parent "prove" with
  | Some l ->
      check_int "count unchanged by empty merge" 1 l.Timing.l_count;
      check "p50 is the sample" true (l.Timing.l_p50 = 2.0)
  | None -> Alcotest.fail "prove line vanished"

let timing_single_sample () =
  let t = Timing.create () in
  Timing.record t Timing.Verify 7.5;
  match find_line t "verify" with
  | Some l ->
      check_int "count 1" 1 l.Timing.l_count;
      check "all percentiles equal the one sample" true
        (l.Timing.l_p50 = 7.5 && l.Timing.l_p90 = 7.5 && l.Timing.l_p99 = 7.5
       && l.Timing.l_max = 7.5 && l.Timing.l_total_ms = 7.5)
  | None -> Alcotest.fail "single sample produced no line"

let timing_partial_worker_merge () =
  (* worker 1 recorded prove only; worker 2 recorded verify only; the
     merged report must treat each stage as the exact union — a stage
     one worker never saw must not dilute the other's percentiles *)
  let w1 = Timing.create () and w2 = Timing.create () in
  List.iter (fun v -> Timing.record w1 Timing.Prove v)
    [ 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0; 9.0 ];
  Timing.record w2 Timing.Verify 42.0;
  let parent = Timing.create () in
  Timing.absorb parent (Timing.samples w1);
  Timing.absorb parent (Timing.samples w2);
  (match find_line parent "prove" with
  | Some l ->
      check_int "prove count is w1's alone" 9 l.Timing.l_count;
      check "prove p50 exact" true (l.Timing.l_p50 = 5.0);
      check "prove p99 exact" true (l.Timing.l_p99 = 9.0)
  | None -> Alcotest.fail "prove line missing");
  (match find_line parent "verify" with
  | Some l ->
      check_int "verify count is w2's alone" 1 l.Timing.l_count;
      check "verify percentiles undiluted" true
        (l.Timing.l_p50 = 42.0 && l.Timing.l_p99 = 42.0)
  | None -> Alcotest.fail "verify line missing");
  check "unrecorded stages stay absent" true (find_line parent "parse" = None)

let timing_merge_equals_sequential () =
  (* absorbing shards must give byte-for-byte the percentiles of one
     sink holding every sample *)
  let values = List.init 101 (fun i -> float_of_int ((i * 37) mod 101)) in
  let whole = Timing.create () in
  List.iter (fun v -> Timing.record whole Timing.Encode v) values;
  let parent = Timing.create () in
  let shard = Timing.create () in
  List.iteri
    (fun i v ->
      Timing.record shard Timing.Encode v;
      if i mod 7 = 0 then Timing.absorb parent (Timing.flush shard))
    values;
  Timing.absorb parent (Timing.flush shard);
  match (find_line whole "encode", find_line parent "encode") with
  | Some a, Some b -> check "sharded merge = sequential" true (a = b)
  | _ -> Alcotest.fail "encode line missing"

let timing_flush_discipline () =
  (* flush hands over each sample exactly once — the invariant that
     stops a long-lived worker double-counting its history *)
  let w = Timing.create () in
  Timing.record w Timing.Store 1.0;
  Timing.add_counter w "memo_hits" 3;
  let first = Timing.flush w in
  check "flush carries the sample" true
    (List.assoc "store" first.Timing.w_stages = [ 1.0 ]);
  check "flush carries counters" true
    (List.assoc "memo_hits" first.Timing.w_ctrs = 3);
  let second = Timing.flush w in
  check "second flush is empty" true
    (List.for_all (fun (_, vs) -> vs = []) second.Timing.w_stages
    && second.Timing.w_ctrs = []);
  Timing.record w Timing.Store 9.0;
  let third = Timing.flush w in
  check "post-flush samples are fresh" true
    (List.assoc "store" third.Timing.w_stages = [ 9.0 ])

(* ---------------------------------------------------------------- *)
(* end-to-end: a real daemon on a tmp socket                         *)

let jobs_lines =
  [
    "id=e2e-ring gen=cycle n=12 property=connected k=2 seed=1";
    "id=e2e-tree gen=tree n=16 gseed=5 property=acyclic k=2 seed=2";
    "id=e2e-ladder gen=ladder n=12 property=bipartite k=2 seed=3";
    "id=e2e-star gen=star n=9 property=triangle_free k=2 seed=4";
    "id=e2e-path gen=path n=10 property=perfect_matching k=1 seed=5";
  ]

let parse_lines lines =
  List.map
    (fun l ->
      match Manifest.parse l with
      | Ok [ j ] -> j
      | _ -> Alcotest.failf "bad test job line %S" l)
    lines

(* fork a server; wait until its socket accepts *)
let start_server cfg =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (try Server.run cfg with _ -> Unix._exit 1);
      Unix._exit 0
  | pid ->
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec wait () =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect fd (Unix.ADDR_UNIX cfg.Server.socket_path) with
        | () ->
            Unix.close fd;
            ()
        | exception Unix.Unix_error _ ->
            Unix.close fd;
            if Unix.gettimeofday () > deadline then begin
              Unix.kill pid Sys.sigkill;
              ignore (Unix.waitpid [] pid);
              Alcotest.fail "server did not come up"
            end;
            Unix.sleepf 0.02;
            wait ()
      in
      wait ();
      pid

(* a connection that has not yet said hello — only the handshake tests
   want one of these *)
let dial_raw path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let read_response fd =
  match Wire.read_frame fd with
  | None -> Alcotest.fail "server closed the connection"
  | Some p -> (
      match Wire.decode_response p with
      | Ok r -> r
      | Error e -> Alcotest.failf "bad response: %s" e)

let dial path =
  let fd = dial_raw path in
  Wire.write_frame fd
    (Wire.encode_request (Wire.Hello { version = Wire.protocol_version }));
  (match read_response fd with
  | Wire.Hello_ok _ -> ()
  | r -> Alcotest.failf "handshake refused: %s" (Wire.encode_response r));
  fd

let submit fd serial line =
  Wire.write_frame fd
    (Wire.encode_request
       (Wire.Submit { serial; canonical = true; deadline_ms = 0.0; line }))

let stop_server ?(signal = Sys.sigterm) pid =
  Unix.kill pid signal;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) ->
      Alcotest.fail "server killed by signal instead of draining"

let base_cfg ~socket_path ~workers =
  {
    Server.socket_path;
    workers;
    queue_cap = 16;
    client_cap = 8;
    make_engine = (fun ~worker:_ timing -> Engine.create ?timing ());
    timed = true;
    verbose = false;
    journal_dir = None;
    journal_fsync = `Every 8;
    journal_checkpoint = 256;
  }

let daemon_matches_batch () =
  with_temp_dir (fun dir ->
      let socket_path = Filename.concat dir "d.sock" in
      let pid = start_server (base_cfg ~socket_path ~workers:2) in
      let fd = dial socket_path in
      List.iteri (fun i line -> submit fd i line) jobs_lines;
      let results = Array.make (List.length jobs_lines) ("", "") in
      List.iter
        (fun _ ->
          match read_response fd with
          | Wire.Report { serial; id; canonical; _ } ->
              results.(serial) <- (id, canonical)
          | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r))
        jobs_lines;
      Unix.close fd;
      (* the client-side canonical order: stable sort by id over
         submission order *)
      let daemon_lines =
        Array.to_list results
        |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
        |> List.map snd |> String.concat "\n"
      in
      let reports = ref [] in
      ignore
        (Pool.run_once
           ~emit:(fun r -> reports := r :: !reports)
           ~timing:(Timing.create ()) ~workers:1
           ~make_engine:(fun ~worker:_ timing -> Engine.create ?timing ())
           (Pool.in_id_order (parse_lines jobs_lines))
          : Pool.outcome);
      let reports = List.rev !reports in
      check_str "daemon canonical output = batch canonical output"
        (Stats.canonical_lines reports)
        daemon_lines;
      check_int "clean SIGTERM drain" 0 (stop_server pid);
      check "socket unlinked after drain" true
        (not (Sys.file_exists socket_path)))

let daemon_backpressure () =
  with_temp_dir (fun dir ->
      let socket_path = Filename.concat dir "d.sock" in
      let cfg =
        { (base_cfg ~socket_path ~workers:1) with queue_cap = 1; client_cap = 1 }
      in
      let pid = start_server cfg in
      let fd = dial socket_path in
      (* a burst far over both caps: the excess must be refused with
         Overloaded, not buffered *)
      let burst = 10 in
      for i = 0 to burst - 1 do
        submit fd i "id=burst gen=tree n=40 gseed=7 property=acyclic k=3 seed=9"
      done;
      let reports = ref 0 and refused = ref 0 in
      for _ = 1 to burst do
        match read_response fd with
        | Wire.Report _ -> incr reports
        | Wire.Overloaded { reason; _ } ->
            incr refused;
            check "reason names a cap" true
              (contains reason "cap" || contains reason "draining")
        | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r)
      done;
      check "some jobs served" true (!reports >= 1);
      check "excess refused, not buffered" true (!refused >= 1);
      check_int "every submission answered" burst (!reports + !refused);
      (* the stats endpoint must agree *)
      Wire.write_frame fd (Wire.encode_request Wire.Stats_req);
      (match read_response fd with
      | Wire.Stats_reply json ->
          check "stats counts refusals" true
            (contains json "\"rejected_overload\":"
            && contains json "\"rejected_quota\":")
      | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
      Unix.close fd;
      check_int "clean drain" 0 (stop_server pid))

let daemon_stats_endpoint () =
  with_temp_dir (fun dir ->
      let socket_path = Filename.concat dir "d.sock" in
      let pid = start_server (base_cfg ~socket_path ~workers:2) in
      let fd = dial socket_path in
      List.iteri (fun i line -> submit fd i line) jobs_lines;
      List.iter (fun _ -> ignore (read_response fd)) jobs_lines;
      Wire.write_frame fd (Wire.encode_request Wire.Stats_req);
      (match read_response fd with
      | Wire.Stats_reply json ->
          check "submitted counted" true (contains json "\"submitted\":5");
          check "completed counted" true (contains json "\"completed\":5");
          check "workers reported" true (contains json "\"configured\":2");
          check "queue cap surfaced" true (contains json "\"cap\":16");
          (* timed=true: worker samples reach the endpoint's percentiles *)
          check "stage percentiles present" true
            (contains json "\"stage\":\"prove\"" && contains json "\"p99_ms\":")
      | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
      (* ping still answered while idle *)
      Wire.write_frame fd (Wire.encode_request Wire.Ping);
      (match read_response fd with
      | Wire.Pong -> ()
      | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
      Unix.close fd;
      check_int "clean drain" 0 (stop_server pid))

(* substring-scan an int field out of the stats JSON *)
let json_int json field =
  let tag = "\"" ^ field ^ "\":" in
  let rec find i =
    if i + String.length tag > String.length json then
      Alcotest.failf "field %s missing from %s" field json
    else if String.sub json i (String.length tag) = tag then begin
      let j = ref (i + String.length tag) in
      let start = !j in
      while
        !j < String.length json
        && match json.[!j] with '0' .. '9' | '-' -> true | _ -> false
      do
        incr j
      done;
      int_of_string (String.sub json start (!j - start))
    end
    else find (i + 1)
  in
  find 0

let daemon_crash_respawn () =
  with_temp_dir (fun dir ->
      let socket_path = Filename.concat dir "d.sock" in
      let cache = Filename.concat dir "cache" in
      (* pre-create the shared disk tier so the fault plan's op counter
         starts at the record writes, not the mkdir *)
      Sys.mkdir cache 0o755;
      let plan =
        match Blob.parse_plan "crash@3" with
        | Ok p -> p
        | Error e -> Alcotest.fail e
      in
      let cfg =
        {
          (base_cfg ~socket_path ~workers:2) with
          make_engine =
            (fun ~worker:_ timing ->
              (* every worker incarnation: two mutating ops succeed (one
                 record = tmp write + rename), then the process dies on
                 the next store write *)
              let io = fst (Blob.inject ~plan Blob.real) in
              Engine.create ~cache_dir:cache ~io ?timing ());
        }
      in
      let pid = start_server cfg in
      let fd = dial socket_path in
      (* distinct instances: every job is a cache miss, so each wants a
         store write and the workers keep crashing and respawning *)
      let lines =
        List.init 8 (fun i ->
            Printf.sprintf
              "id=c%d gen=path n=%d property=connected k=2 seed=1" i (6 + i))
      in
      List.iteri (fun i line -> submit fd i line) lines;
      let served = ref 0 and failed = ref 0 in
      List.iter
        (fun _ ->
          match read_response fd with
          | Wire.Report { status; _ } ->
              if
                List.mem status
                  [ "served_fresh"; "served_cached"; "served_degraded" ]
              then incr served
              else incr failed
          | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r))
        lines;
      check_int "every job reached a terminal reply" 8 (!served + !failed);
      check "most jobs served despite crashes" true (!served >= 6);
      Wire.write_frame fd (Wire.encode_request Wire.Stats_req);
      (match read_response fd with
      | Wire.Stats_reply json ->
          check "workers died and were respawned" true
            (json_int json "restarts" >= 2);
          check "crashed jobs were requeued" true
            (json_int json "requeued" >= 1);
          check_int "no slot permanently stopped" 0 (json_int json "stopped");
          check_int "full pool alive after every crash" 2
            (json_int json "live")
      | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
      Unix.close fd;
      check_int "clean drain after crashes" 0 (stop_server pid))

(* the server's worker pids are not on the wire; on Linux /proc names a
   process's children, which is exactly the external-kill (OOM, admin)
   scenario the supervisor must survive *)
let children_of pid =
  let path = Printf.sprintf "/proc/%d/task/%d/children" pid pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      Some
        (String.split_on_char ' ' line
        |> List.filter_map int_of_string_opt)

let daemon_idle_worker_death () =
  with_temp_dir (fun dir ->
      let socket_path = Filename.concat dir "d.sock" in
      let pid = start_server (base_cfg ~socket_path ~workers:1) in
      let fd = dial socket_path in
      (* prove the worker serves, then kill it while it sits idle *)
      submit fd 0 (List.hd jobs_lines);
      (match read_response fd with
      | Wire.Report _ -> ()
      | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
      (match children_of pid with
      | None | Some [] -> () (* no /proc children file: cannot stage it *)
      | Some kids ->
          List.iter
            (fun k ->
              try Unix.kill k Sys.sigkill with Unix.Unix_error _ -> ())
            kids;
          Unix.sleepf 0.05;
          (* a submission against the dead slot must not wedge dispatch:
             the daemon has to notice the EOF, respawn, and answer *)
          submit fd 1 (List.nth jobs_lines 1);
          (match Unix.select [ fd ] [] [] 30.0 with
          | [], _, _ ->
              Alcotest.fail "daemon wedged after an idle worker death"
          | _ -> ());
          (match read_response fd with
          | Wire.Report { serial; _ } ->
              check_int "answered after respawn" 1 serial
          | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
          Wire.write_frame fd (Wire.encode_request Wire.Stats_req);
          (match read_response fd with
          | Wire.Stats_reply json ->
              check "the death was counted as a restart" true
                (json_int json "restarts" >= 1)
          | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r)));
      Unix.close fd;
      check_int "clean drain" 0 (stop_server pid))

let daemon_sigterm_drains_inflight () =
  with_temp_dir (fun dir ->
      let socket_path = Filename.concat dir "d.sock" in
      let pid = start_server (base_cfg ~socket_path ~workers:1) in
      let fd = dial socket_path in
      (* queue several slow-ish jobs, then fire SIGTERM immediately:
         every accepted job must still be answered before the close *)
      let lines =
        List.init 4 (fun i ->
            Printf.sprintf
              "id=drain%d gen=tree n=%d gseed=%d property=acyclic k=3 seed=2" i
              (30 + i) i)
      in
      List.iteri (fun i line -> submit fd i line) lines;
      Unix.kill pid Sys.sigterm;
      let answered = ref 0 in
      List.iter
        (fun _ ->
          match read_response fd with
          | Wire.Report _ -> incr answered
          | Wire.Overloaded _ ->
              (* a job that raced the drain gate: refused, not dropped *)
              incr answered
          | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r))
        lines;
      check_int "every accepted job answered during drain" 4 !answered;
      check "connection closed after drain" true (Wire.read_frame fd = None);
      Unix.close fd;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED c -> Alcotest.failf "drain exited %d" c
      | _ -> Alcotest.fail "server killed by signal");
      check "socket unlinked" true (not (Sys.file_exists socket_path)))

let daemon_rejects_garbage () =
  with_temp_dir (fun dir ->
      let socket_path = Filename.concat dir "d.sock" in
      let pid = start_server (base_cfg ~socket_path ~workers:1) in
      let fd = dial socket_path in
      Wire.write_frame fd "frobnicate 7";
      (match read_response fd with
      | Wire.Err { reason; _ } ->
          check "names the bad verb" true (contains reason "frobnicate")
      | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
      (* a bad job line is an Err tied to its serial, and the
         connection keeps working afterwards *)
      Wire.write_frame fd
        (Wire.encode_request
           (Wire.Submit
              { serial = 3; canonical = false; deadline_ms = 0.0; line = "nonsense" }));
      (match read_response fd with
      | Wire.Err { serial; _ } -> check_int "serial echoed" 3 serial
      | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
      submit fd 4 (List.hd jobs_lines);
      (match read_response fd with
      | Wire.Report { serial; _ } -> check_int "connection survives" 4 serial
      | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
      Unix.close fd;
      check_int "clean drain" 0 (stop_server pid))

let daemon_delta_session () =
  with_temp_dir (fun dir ->
      let socket_path = Filename.concat dir "d.sock" in
      let pid = start_server (base_cfg ~socket_path ~workers:2) in
      let fd = dial socket_path in
      (* an edit before any open is a protocol error, not a crash *)
      Wire.write_frame fd
        (Wire.encode_request
           (Wire.Delta_edit
              { serial = 0; deadline_ms = 0.0; full = false; ops = "add=0-1" }));
      (match read_response fd with
      | Wire.Err { serial; reason } ->
          check_int "serial echoed" 0 serial;
          check "asks for a dopen" true (contains reason "dopen")
      | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
      (* open a session, then stream edits: replies must be Dreports in
         submission order, ids suffixed per edit, patch info attached *)
      Wire.write_frame fd
        (Wire.encode_request
           (Wire.Delta_open
              {
                serial = 1;
                deadline_ms = 0.0;
                sid = "t-dyn";
                resume = false;
                line = "id=dyn gen=path n=24 property=connected k=2 seed=7";
              }));
      (match read_response fd with
      | Wire.Dreport { serial; id; status; patch; _ } ->
          check_int "open serial" 1 serial;
          check_str "open id" "dyn" id;
          check_str "open served" "served_fresh" status;
          check "open patch mode" true (contains patch "\"mode\":\"open\"")
      | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
      let edits = [ "del=3-4"; "add=3-4"; "add=0-5 del=5-6"; "" ] in
      List.iteri
        (fun i ops ->
          Wire.write_frame fd
            (Wire.encode_request
               (Wire.Delta_edit
                  { serial = 2 + i; deadline_ms = 0.0; full = false; ops })))
        edits;
      List.iteri
        (fun i _ ->
          match read_response fd with
          | Wire.Dreport { serial; id; status; patch; canonical; _ } ->
              check_int "edit serial in stream order" (2 + i) serial;
              check_str "edit id suffixed"
                (Printf.sprintf "dyn#e%04d" (i + 1))
                id;
              check "edit reached a verdict" true
                (status <> "failed" && status <> "input_error");
              check "patch info is json" true (contains patch "\"mode\":");
              check "canonical line carries the verdict" true
                (contains canonical "\"verdict\":")
          | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r))
        edits;
      (* a malformed edit line is an input error pinned to its serial,
         and the session survives it *)
      Wire.write_frame fd
        (Wire.encode_request
           (Wire.Delta_edit
              { serial = 6; deadline_ms = 0.0; full = false; ops = "frob=1-2" }));
      (match read_response fd with
      | Wire.Dreport { serial; status; _ } ->
          check_int "bad edit serial" 6 serial;
          check_str "bad edit is an input error" "input_error" status
      | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
      Wire.write_frame fd
        (Wire.encode_request
           (Wire.Delta_edit
              { serial = 7; deadline_ms = 0.0; full = true; ops = "add=3-4" }));
      (match read_response fd with
      | Wire.Dreport { serial; patch; _ } ->
          check_int "session survives a bad edit" 7 serial;
          check "forced full recompute labelled" true
            (contains patch "\"mode\":\"full\""
            || contains patch "\"mode\":\"cached\"")
      | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
      (* memo hit/miss counters ride the live stats endpoint *)
      Wire.write_frame fd (Wire.encode_request Wire.Stats_req);
      (match read_response fd with
      | Wire.Stats_reply json ->
          check "counters object present" true (contains json "\"counters\":{");
          check "memo misses surfaced" true (json_int json "memo_miss" >= 1);
          check "memo hits surfaced" true (json_int json "memo_hit" >= 0)
      | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
      Unix.close fd;
      check_int "clean drain" 0 (stop_server pid))

(* the store, memo and GC counters ride every worker reply, timed or
   not, so a live daemon's stats reconcile before any drain: each store
   hit was either served from the cache or rejected by re-verification
   (here, a certificate proved for another id seed) and re-proved *)
let daemon_counters_reconcile_live () =
  with_temp_dir (fun dir ->
      let socket_path = Filename.concat dir "d.sock" in
      let cache = Filename.concat dir "cache" in
      let cfg =
        {
          (base_cfg ~socket_path ~workers:1) with
          make_engine =
            (fun ~worker:_ timing -> Engine.create ~cache_dir:cache ?timing ());
          timed = false;
        }
      in
      let pid = start_server cfg in
      (* a failed check must not leave the daemon holding the test's
         output pipe *)
      Fun.protect
        ~finally:(fun () ->
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ ->
              Unix.kill pid Sys.sigkill;
              ignore (Unix.waitpid [] pid)
          | _ | (exception Unix.Unix_error _) -> ())
      @@ fun () ->
      let fd = dial socket_path in
      let tree seed =
        Printf.sprintf
          "id=rc-%d gen=tree n=16 gseed=5 property=acyclic k=2 seed=%d" seed
          seed
      in
      (* fresh, then a hit served, then a hit whose ids differ *)
      List.iteri
        (fun i line ->
          submit fd i line;
          ignore (read_response fd))
        [ tree 1; tree 1; tree 2 ];
      Wire.write_frame fd (Wire.encode_request Wire.Stats_req);
      (match read_response fd with
      | Wire.Stats_reply json ->
          check_int "one seed-collision reject" 1
            (json_int json "cache_rejects");
          check_int "one cached serve" 1 (json_int json "cached");
          check_int "store hits = cached serves + rejects"
            (json_int json "cached" + json_int json "cache_rejects")
            (json_int json "hits");
          check_int "the rejected entry was dropped" 1 (json_int json "drops");
          check "the filter skipped the first touch" true
            (json_int json "filter_skips" >= 1);
          check "allocation counted while serving" true
            (json_int json "minor_words" > 0)
      | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
      Unix.close fd;
      check_int "clean drain" 0 (stop_server pid))

(* the mandatory handshake: a frame before hello — garbage, an honest
   v1 frame, anything — gets one descriptive error naming the expected
   exchange, then the connection is closed; a wrong version gets a
   mismatch error naming both versions *)
let daemon_requires_hello () =
  with_temp_dir (fun dir ->
      let socket_path = Filename.concat dir "d.sock" in
      let pid = start_server (base_cfg ~socket_path ~workers:1) in
      (* an old (protocol-1) client submitting straight away *)
      let fd = dial_raw socket_path in
      submit fd 0 (List.hd jobs_lines);
      (match read_response fd with
      | Wire.Err { reason; _ } ->
          check "error names the handshake" true (contains reason "hello");
          check "error names the server version" true
            (contains reason (string_of_int Wire.protocol_version))
      | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
      check "connection closed after the error" true (Wire.read_frame fd = None);
      Unix.close fd;
      (* a future client speaking a version we do not *)
      let fd = dial_raw socket_path in
      Wire.write_frame fd
        (Wire.encode_request
           (Wire.Hello { version = Wire.protocol_version + 1 }));
      (match read_response fd with
      | Wire.Err { reason; _ } ->
          check "mismatch error names both versions" true
            (contains reason "mismatch"
            && contains reason (string_of_int (Wire.protocol_version + 1)))
      | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
      check "mismatched client hung up on" true (Wire.read_frame fd = None);
      Unix.close fd;
      (* an undecodable first frame, ditto: the decode error is served,
         then the connection is cut instead of waiting for more junk *)
      let fd = dial_raw socket_path in
      Wire.write_frame fd "frobnicate 7";
      (match read_response fd with
      | Wire.Err { reason; _ } ->
          check "garbage pre-hello named" true (contains reason "frobnicate")
      | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
      check "garbage client hung up on" true (Wire.read_frame fd = None);
      Unix.close fd;
      (* and none of it hurt a well-behaved client *)
      let fd = dial socket_path in
      submit fd 9 (List.hd jobs_lines);
      (match read_response fd with
      | Wire.Report { serial; _ } -> check_int "server still serves" 9 serial
      | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
      Unix.close fd;
      check_int "clean drain" 0 (stop_server pid))

(* a second server on a live socket must refuse to start (the pidfile
   lock), and a server started over a SIGKILLed predecessor's leftovers
   must take over the stale socket *)
let daemon_pidfile_lock () =
  with_temp_dir (fun dir ->
      let socket_path = Filename.concat dir "d.sock" in
      let pid = start_server (base_cfg ~socket_path ~workers:1) in
      (* the contender must lose while the first server holds the lock *)
      flush stdout;
      flush stderr;
      (match Unix.fork () with
      | 0 ->
          Unix.close Unix.stderr;
          (try Server.run (base_cfg ~socket_path ~workers:1)
           with Sys_error _ -> Unix._exit 2);
          Unix._exit 0
      | contender -> (
          match Unix.waitpid [] contender with
          | _, Unix.WEXITED 2 -> ()
          | _, s ->
              Alcotest.failf "contender did not lose the lock race (%s)"
                (match s with
                | Unix.WEXITED n -> Printf.sprintf "exit %d" n
                | _ -> "signal")));
      (* the incumbent is unharmed by the contender's attempt *)
      let fd = dial socket_path in
      submit fd 0 (List.hd jobs_lines);
      (match read_response fd with
      | Wire.Report _ -> ()
      | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
      Unix.close fd;
      (* SIGKILL the incumbent: socket + pidfile left behind, lock
         released by the kernel — a new server must take over *)
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      check "socket left behind by SIGKILL" true (Sys.file_exists socket_path);
      let pid = start_server (base_cfg ~socket_path ~workers:1) in
      let fd = dial socket_path in
      submit fd 1 (List.hd jobs_lines);
      (match read_response fd with
      | Wire.Report _ -> ()
      | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
      Unix.close fd;
      check_int "takeover server drains cleanly" 0 (stop_server pid))

(* the tentpole end-to-end: open a journaled session, apply edits,
   SIGKILL the daemon mid-life, restart it on the same socket+journal,
   resume — the journaled replies dedup byte-for-byte and the stream
   continues where it left off *)
let daemon_journal_resume () =
  with_temp_dir (fun dir ->
      let socket_path = Filename.concat dir "d.sock" in
      let cfg =
        {
          (base_cfg ~socket_path ~workers:1) with
          journal_dir = Some (Filename.concat dir "journal");
          journal_fsync = `Always;
        }
      in
      let pid = start_server cfg in
      let fd = dial socket_path in
      let dopen ~resume serial =
        Wire.write_frame fd
          (Wire.encode_request
             (Wire.Delta_open
                {
                  serial;
                  deadline_ms = 0.0;
                  sid = "t-resume";
                  resume;
                  line =
                    (if resume then ""
                     else "id=dyn gen=path n=24 property=connected k=2 seed=7");
                }))
      in
      let dedit serial ops =
        Wire.write_frame fd
          (Wire.encode_request
             (Wire.Delta_edit { serial; deadline_ms = 0.0; full = false; ops }))
      in
      let dreport what =
        match read_response fd with
        | Wire.Dreport { serial; canonical; _ } -> (serial, canonical)
        | r ->
            Alcotest.failf "unexpected reply to %s: %s" what
              (Wire.encode_response r)
      in
      dopen ~resume:false 0;
      let _, open_canonical = dreport "open" in
      let edits = [ "del=3-4"; "add=3-4"; "add=0-5 del=5-6" ] in
      let firsts =
        List.mapi
          (fun i ops ->
            dedit (i + 1) ops;
            dreport "edit")
          edits
      in
      (* die without warning; socket, pidfile, journal all left behind *)
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Unix.close fd;
      let pid = start_server cfg in
      let fd = dial socket_path in
      dopen ~resume:true 0;
      let _, resumed_open = dreport "resumed open" in
      check_str "resumed open reply is the journaled one byte-for-byte"
        open_canonical resumed_open;
      (* a client that never saw its last reply resends it: the journal
         answers, byte-identical, without recomputing *)
      dedit 3 "add=0-5 del=5-6";
      let s, dedup_canonical = dreport "deduplicated resend" in
      check_int "resent serial echoed" 3 s;
      check_str "journal-dedup reply byte-identical"
        (snd (List.nth firsts 2))
        dedup_canonical;
      (* ... and the stream continues against the rebuilt graph *)
      dedit 4 "add=7-9";
      let s, _ = dreport "post-resume edit" in
      check_int "stream continues past the crash" 4 s;
      (* a serial further ahead than the journal is a lost edit: the
         daemon must refuse it descriptively, not diverge silently *)
      dedit 9 "add=0-1";
      (match read_response fd with
      | Wire.Err { serial; reason } ->
          check_int "gap serial echoed" 9 serial;
          check "gap named" true (contains reason "serial gap")
      | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
      (* resumption is single-writer: a second connection is refused
         while this one holds the session *)
      let fd2 = dial socket_path in
      Wire.write_frame fd2
        (Wire.encode_request
           (Wire.Delta_open
              {
                serial = 0;
                deadline_ms = 0.0;
                sid = "t-resume";
                resume = true;
                line = "";
              }));
      (match read_response fd2 with
      | Wire.Err { reason; _ } -> check "busy named" true (contains reason "busy")
      | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
      Unix.close fd2;
      (* durability counters ride the stats endpoint *)
      Wire.write_frame fd (Wire.encode_request Wire.Stats_req);
      (match read_response fd with
      | Wire.Stats_reply json ->
          check "resumed counted" true (json_int json "resumed" >= 1);
          check "rebuilt steps counted" true (json_int json "rebuilt_steps" >= 3);
          check "no resume mismatches" true (json_int json "resume_mismatch" = 0);
          check "dedup served counted" true (json_int json "dedup_served" >= 1)
      | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
      Unix.close fd;
      check_int "clean drain" 0 (stop_server pid);
      (* an unknown session stays unknown after everything *)
      let pid = start_server cfg in
      let fd = dial socket_path in
      Wire.write_frame fd
        (Wire.encode_request
           (Wire.Delta_open
              {
                serial = 0;
                deadline_ms = 0.0;
                sid = "never-opened";
                resume = true;
                line = "";
              }));
      (match read_response fd with
      | Wire.Err { reason; _ } ->
          check "unknown sid named" true (contains reason "never-opened")
      | r -> Alcotest.failf "unexpected reply %s" (Wire.encode_response r));
      Unix.close fd;
      check_int "clean drain" 0 (stop_server pid))

let suite =
  ( "daemon",
    [
      test "frame round-trip, torn frames, length cap" frame_roundtrip;
      test "incremental reassembly" conn_reassembly;
      test "zero-length and cap-sized frames" conn_frame_limits;
      request_roundtrip;
      response_roundtrip;
      decoder_is_total;
      test "delta codec rejects malformed payloads" delta_codec_rejects_malformed;
      test "timing: empty-sample merges" timing_empty_merge;
      test "timing: single-sample stage" timing_single_sample;
      test "timing: partial-worker merge" timing_partial_worker_merge;
      test "timing: sharded merge = sequential" timing_merge_equals_sequential;
      test "timing: flush ships each sample once" timing_flush_discipline;
      test "daemon output = batch output" daemon_matches_batch;
      test "admission control refuses the excess" daemon_backpressure;
      test "live stats endpoint" daemon_stats_endpoint;
      test "live counters reconcile before drain"
        daemon_counters_reconcile_live;
      test "worker crash, respawn, single retry" daemon_crash_respawn;
      test "idle worker killed externally, daemon recovers"
        daemon_idle_worker_death;
      test "SIGTERM drains in-flight jobs" daemon_sigterm_drains_inflight;
      test "garbage requests answered, connection survives" daemon_rejects_garbage;
      test "delta session: open, edit stream, memo counters" daemon_delta_session;
      test "hello handshake enforced, old frames rejected" daemon_requires_hello;
      test "pidfile lock: contender loses, stale socket taken over"
        daemon_pidfile_lock;
      test "journal: SIGKILL, restart, resume, dedup byte-identical"
        daemon_journal_resume;
    ] )

let () = Alcotest.run "lcp-daemon" [ suite ]

(* The end-to-end runs: drive the shipped binaries (certd, certd_server)
   as child processes on the benchmark's own inputs, check every
   outcome, and measure from outside. *)

module Wire = Lcp_service.Wire

let certd = ref "certd.exe"

let certd_server = ref "certd_server.exe"

(* ---------------------------------------------------------------- *)
(* accounting: every checked outcome, and why any was wrong           *)

type acct = {
  mutable attempted : int;
  mutable failed : int;
  mutable broken : bool;  (** a whole-run check failed *)
  mutable notes : int;
}

let acct () = { attempted = 0; failed = 0; broken = false; notes = 0 }

let note a msg =
  a.notes <- a.notes + 1;
  if a.notes <= 20 then Util.log "WRONG: %s" msg

let job_ok a = a.attempted <- a.attempted + 1

let job_failed a msg =
  a.attempted <- a.attempted + 1;
  a.failed <- a.failed + 1;
  note a msg

(* a run-level check (byte identity, counter reconciliation) failed *)
let run_failed a msg =
  a.broken <- true;
  a.failed <- a.failed + 1;
  note a msg

let correct a = a.failed = 0 && not a.broken

(* check one outcome against the ground truth; [true] when right *)
let check_outcome a (j : Jobs.job) ~status ~n ~m =
  match Truth.check j ~status ~n ~m with
  | None ->
      job_ok a;
      true
  | Some why ->
      job_failed a why;
      false

(* ---------------------------------------------------------------- *)
(* the program's output                                               *)

let is_json l = String.length l > 0 && l.[0] = '{'

(* the fields of certd's full per-job JSON line the drivers read *)
type report = {
  status : string;
  n : int;
  m : int;
  total_ms : float;
  rejected : bool;  (** a cached bundle failed re-verification *)
}

let report_of_json line =
  let o = Json.parse_flat line in
  {
    status = Json.get_str o "status";
    n = Json.get_int o "n";
    m = Json.get_int o "m";
    total_ms = Json.get_num o "total_ms";
    rejected = Json.get_arr o "cache_rejects" <> [];
  }

(* the integer after [key] (a [key=V] token, or the word before
   [key]) on the first line starting with [prefix] *)
let footer lines ~prefix ~key =
  List.find_map
    (fun (_, l) ->
      if String.starts_with ~prefix l then
        let toks = String.split_on_char ' ' l |> List.filter (( <> ) "") in
        let rec go = function
          | v :: k :: _ when k = key || k = key ^ ";" || k = key ^ "," ->
              int_of_string_opt v
          | tok :: rest -> (
              match String.index_opt tok '=' with
              | Some i when String.sub tok 0 i = key ->
                  int_of_string_opt (String.sub tok (i + 1) (String.length tok - i - 1))
              | _ -> go rest)
          | [] -> None
        in
        go toks
      else None)
    lines

(* Store hits (certd's footer) must be exactly the cached serves plus
   the re-verification rejects the reports show: a hit is either
   verified and served or dropped and re-proved. (The footer's own
   "re-verification rejects" counts reject reasons, of which one job
   can have several, so it is logged, not reconciled.) Returns the
   footer's hits. *)
let reconcile a what lines ~cached ~rejected =
  match footer lines ~prefix:"store: " ~key:"hits" with
  | None ->
      run_failed a (what ^ ": no store footer in certd's output");
      0
  | Some h ->
      if h <> cached + rejected then
        run_failed a
          (Printf.sprintf "%s: store hits %d <> cached serves %d + re-verification rejects %d"
             what h cached rejected);
      Option.iter
        (fun r ->
          if r <> rejected then
            Util.log "%s: footer counts %d reject reasons over %d rejected jobs" what r rejected)
        (footer lines ~prefix:"cache: " ~key:"re-verification");
      h

(* certd exits 1 when some job ended as an input_error, which the
   light mix asks for on purpose; anything else nonzero is a crash *)
let check_exit a what code =
  if code <> 0 && code <> 1 then
    run_failed a (Printf.sprintf "%s exited with code %d" what code)

let index jobs =
  let h = Hashtbl.create (Array.length jobs) in
  Array.iter (fun (j : Jobs.job) -> Hashtbl.replace h j.id j) jobs;
  h

(* Check certd's per-job lines (full or canonical JSON) against [jobs]:
   each job exactly once, each outcome right. [on_right j line] sees
   every right outcome's line. Returns the largest label. *)
let check_lines a jobs lines ~on_right =
  let by_id = index jobs in
  let seen = Hashtbl.create (Array.length jobs) in
  let bits = ref 0 in
  List.iter
    (fun l ->
      if is_json l then begin
        let o = Json.parse_flat l in
        let id = Json.get_str o "id" in
        match Hashtbl.find_opt by_id id with
        | None -> run_failed a ("unknown job id in output: " ^ id)
        | Some _ when Hashtbl.mem seen id -> run_failed a ("job reported twice: " ^ id)
        | Some j ->
            Hashtbl.replace seen id ();
            let status =
              match Json.get_str o "status" with "" -> Json.get_str o "verdict" | s -> s
            in
            if check_outcome a j ~status ~n:(Json.get_int o "n") ~m:(Json.get_int o "m")
            then begin
              bits := max !bits (Json.get_int o "label_bits");
              on_right j l
            end
      end)
    lines;
  Array.iter
    (fun (j : Jobs.job) ->
      if not (Hashtbl.mem seen j.id) then job_failed a (j.id ^ ": lost (no report)"))
    jobs;
  !bits

let lines_of_file path =
  String.split_on_char '\n' (Util.read_file path)

(* ---------------------------------------------------------------- *)
(* the end-to-end figures                                             *)

type e2e = {
  jobs_per_s : float;
  lat : float list list;
      (** right outcomes' latencies, ms, in windows: the run's whole
          sample on cold_prove, one pass on zipf_light *)
  within : float;  (** share of attempted jobs right within the limit *)
  label_bits_max : int;
  peak_kb : float;
  setup_s : float list;
}

(* the share of [attempted] jobs with a right outcome in [lat] within
   [limit_ms]; wrong, lost and refused jobs are not in [lat] *)
let within_share lat ~attempted ~limit_ms =
  Util.share (List.length (List.filter (fun l -> l <= limit_ms) lat)) attempted

(* A latency percentile is taken in each window and the median over the
   windows reported, so a burst of host stalls inside one window moves
   it little. *)
let metrics e =
  let sizes = List.map List.length e.lat in
  let smallest = List.fold_left min max_int sizes in
  let beyond q = smallest - int_of_float (ceil (q *. float_of_int smallest)) in
  Util.log
    "latency sample: %d right outcomes in %d windows of at least %d (p90 has %d \
     beyond it, p99 %d, in each)"
    (List.fold_left ( + ) 0 sizes) (List.length sizes) smallest (beyond 0.9) (beyond 0.99);
  Util.log "setup: %d launches, median %.2f ms" (List.length e.setup_s)
    (1000.0 *. Util.median e.setup_s);
  List.iteri
    (fun i w ->
      Util.log "latency window %d: %d samples, p50 %.4f p90 %.4f p99 %.4f ms" i (List.length w)
        (Util.percentile w 0.5) (Util.percentile w 0.9) (Util.percentile w 0.99))
    e.lat;
  let pct q = Util.median (List.map (fun w -> Util.percentile w q) e.lat) in
  [
    ("jobs_per_s", e.jobs_per_s, "1/s");
    ("latency_p50_ms", pct 0.50, "ms");
    ("latency_p90_ms", pct 0.90, "ms");
    ("latency_p99_ms", pct 0.99, "ms");
    ("within_limit_share", e.within, "share");
    ("label_bits_max", float_of_int e.label_bits_max, "bits");
    ("peak_rss_mb", e.peak_kb /. 1024.0, "MB");
    ("setup_s", Util.median e.setup_s, "s");
  ]

(* ---------------------------------------------------------------- *)
(* set-up probes of the batch driver                                  *)

(* [batch_setup a ~work ~flags ~store job] returns a prober: [probe k]
   launches certd [k] times on a one-job manifest with [flags] and the
   store directory [store ()], and records each launch's set-up time,
   from exec to the arrival of its report. The drivers probe between
   their rounds, so the samples spread over the whole run. *)
let batch_setup a ~work ~flags ~store job =
  let manifest = Filename.concat work "probe.manifest" in
  Util.write_file manifest (Jobs.manifest [| job |]);
  let samples = ref [] in
  let probe k =
    for _ = 1 to k do
      let t0, _, code, _, lines =
        Proc.run_collect ~log:(Filename.concat work "certd.log") !certd
          ([ "--manifest"; manifest; "--cache-dir"; store (); "--jsonl"; "-"; "--quiet" ]
          @ flags)
      in
      check_exit a "certd (set-up probe)" code;
      match List.find_opt (fun (_, l) -> is_json l) lines with
      | None -> run_failed a "set-up probe: no report"
      | Some (t, l) ->
          let r = report_of_json l in
          if check_outcome a job ~status:r.status ~n:r.n ~m:r.m then
            samples := (t -. t0) :: !samples
    done
  in
  (probe, samples)

let probes_first = 5

let probes_between = 2

let probes_total = 25

(* ---------------------------------------------------------------- *)
(* cold_prove                                                        *)

let cold_limit_ms = 10_000.0

(* Rounds of the catalogue (jobs.ml) through certd --jobs 1, which runs
   Engine.run_jobs in-process, each round on a fresh empty store, until
   [seconds] have passed and at least [Jobs.id_slots] rounds ran. A
   round's per-job latency is certd's own service time from its
   progress line; its wall is exec to exit minus the median set-up.
   Throughput is all rounds' right outcomes over all rounds' walls. *)
let cold_prove a ~work ~seed ~seconds =
  let store = Filename.concat work "store" in
  let fresh () =
    Util.rm_rf store;
    store
  in
  let probe, setups = batch_setup a ~work ~flags:[ "--jobs"; "1" ] ~store:fresh Jobs.cold_probe in
  probe probes_first;
  let canon = Hashtbl.create 8 in
  let lat = ref [] and ok = ref 0 and walls = ref [] and peaks = ref [] and bits = ref 0 in
  let attempted = ref 0 in
  let start = Util.now () in
  let round = ref 0 in
  while !round < Jobs.id_slots || Util.now () -. start < seconds do
    let r = !round in
    let jobs = Jobs.cold_round ~seed r in
    let manifest = Filename.concat work (Printf.sprintf "cold-%d.manifest" r) in
    let out = Filename.concat work (Printf.sprintf "cold-%d.jsonl" r) in
    Util.write_file manifest (Jobs.manifest jobs);
    let t0, t1, code, hwm, lines =
      Proc.run_collect ~log:(Filename.concat work "certd.log") !certd
        [ "--manifest"; manifest; "--jobs"; "1"; "--cache-dir"; fresh ();
          "--jsonl"; out; "--canonical" ]
    in
    check_exit a "certd" code;
    (* the store starts empty: no hit is possible *)
    ignore (reconcile a (Printf.sprintf "round %d" r) lines ~cached:0 ~rejected:0 : int);
    (* progress line: id property k= n= m= status ms "ms" *)
    let service = Hashtbl.create 64 in
    List.iter
      (fun (_, l) ->
        match List.filter (( <> ) "") (String.split_on_char ' ' l) with
        | id :: _ :: _ :: _ :: _ :: _ :: ms :: "ms" :: _ ->
            Option.iter (Hashtbl.replace service id) (float_of_string_opt ms)
        | _ -> ())
      lines;
    let right = ref 0 in
    let text = Util.read_file out in
    bits :=
      max !bits
        (check_lines a jobs (String.split_on_char '\n' text) ~on_right:(fun j _ ->
             incr right;
             match Hashtbl.find_opt service j.id with
             | Some ms -> lat := ms :: !lat
             | None -> run_failed a (j.id ^ ": no progress line")));
    attempted := !attempted + Array.length jobs;
    ok := !ok + !right;
    walls := (t1 -. t0) :: !walls;
    peaks := float_of_int hwm :: !peaks;
    Hashtbl.replace canon r text;
    (* rounds id_slots apart certify the same networks *)
    (match Hashtbl.find_opt canon (r - Jobs.id_slots) with
    | Some prev when prev <> text ->
        run_failed a (Printf.sprintf "round %d: canonical JSONL differs from round %d" r
                        (r - Jobs.id_slots))
    | _ -> ());
    Util.log "round %d: %d jobs right in %.3f s" r !right (t1 -. t0);
    Util.calibrate (Printf.sprintf "round %d" r);
    probe probes_between;
    incr round
  done;
  (* a repeated pass: round 0's small jobs again, on a fresh store,
     must give byte-identical canonical lines *)
  let small = Array.of_list (List.filter (fun (j : Jobs.job) ->
      match j.source with Jobs.Gen { n; _ } -> n < 200 | _ -> false)
      (Array.to_list (Jobs.cold_round ~seed 0))) in
  let manifest = Filename.concat work "cold-repeat.manifest" in
  let out = Filename.concat work "cold-repeat.jsonl" in
  Util.write_file manifest (Jobs.manifest small);
  let _, _, code, _, _ =
    Proc.run_collect ~log:(Filename.concat work "certd.log") !certd
      [ "--manifest"; manifest; "--jobs"; "1"; "--cache-dir"; fresh ();
        "--jsonl"; out; "--canonical"; "--quiet" ]
  in
  check_exit a "certd (repeated pass)" code;
  let again = lines_of_file out in
  ignore (check_lines a small again ~on_right:(fun _ _ -> ()) : int);
  let first = lines_of_file (Filename.concat work "cold-0.jsonl") in
  List.iter
    (fun l ->
      if is_json l && not (List.mem l first) then
        run_failed a ("repeated pass: canonical line differs from round 0: " ^ l))
    again;
  probe (max 0 (probes_total - List.length !setups));
  let setup = Util.median !setups in
  {
    jobs_per_s =
      float_of_int !ok /. Util.sum (List.map (fun w -> w -. setup) !walls);
    lat = [ !lat ];
    within = within_share !lat ~attempted:!attempted ~limit_ms:cold_limit_ms;
    label_bits_max = !bits;
    peak_kb = Util.median !peaks;
    setup_s = !setups;
  }

(* ---------------------------------------------------------------- *)
(* the light mix's store                                              *)

let light_flags = [ "--cache-cap"; "256"; "--write-batch"; "64" ]

let zipf_flags = [ "--stream"; "--jobs"; "2" ] @ light_flags

(* Prime [store] with every corpus graph under every identifier seed,
   untimed, through certd --stream --jobs 2, in canonical form. Returns
   the jobs, their canonical JSONL and the largest label. *)
let prime a ~work ~seed ~store =
  let jobs = Jobs.light_universe ~seed ~tag:"a" in
  Jobs.write_graphs ~work jobs;
  let manifest = Filename.concat work "prime.manifest" in
  Util.write_file manifest (Jobs.manifest jobs);
  let pass out =
    let _, _, code, _, _ =
      Proc.run_collect ~log:(Filename.concat work "certd.log") !certd
        ([ "--manifest"; manifest; "--cache-dir"; store; "--jsonl"; out;
           "--canonical"; "--quiet" ] @ zipf_flags)
    in
    check_exit a "certd (priming pass)" code;
    Util.read_file out
  in
  let text = pass (Filename.concat work "prime.jsonl") in
  let bits = check_lines a jobs (String.split_on_char '\n' text) ~on_right:(fun _ _ -> ()) in
  (jobs, text, bits, fun () -> pass (Filename.concat work "prime-again.jsonl"))

(* ---------------------------------------------------------------- *)
(* zipf_light                                                        *)

let zipf_pass_jobs = 3000

let light_limit_ms = 50.0

(* An untimed priming pass fills the disk tier; then timed passes, each
   one certd --stream --jobs 2 launch over a fresh Zipf stream, replay
   the light mix on it until [seconds] have passed. The memory tier
   (256 entries a worker) is smaller than the 2000 distinct keys.
   Latency is certd's per-job service time; throughput is right
   outcomes over the passes' walls less the median set-up. Last, the
   priming stream runs again and its canonical JSONL must be
   byte-identical. *)
let zipf_light a ~work ~seed ~seconds =
  let store = Filename.concat work "store" in
  let prime_jobs, canon0, bits0, prime_again = prime a ~work ~seed ~store in
  let probe, setups = batch_setup a ~work ~flags:zipf_flags ~store:(fun () -> store) prime_jobs.(0) in
  probe probes_first;
  let windows = ref [] and ok = ref 0 and walls = ref [] and peaks = ref [] in
  let bits = ref bits0 and attempted = ref 0 in
  let hits = ref 0 and rejects = ref 0 in
  let start = Util.now () in
  let part = ref 1 in
  while !part <= 3 || Util.now () -. start < seconds do
    let jobs = Jobs.light_stream ~seed ~tag:"z" ~part:!part zipf_pass_jobs in
    Jobs.write_graphs ~work jobs;
    let manifest = Filename.concat work (Printf.sprintf "zipf-%d.manifest" !part) in
    Util.write_file manifest (Jobs.manifest jobs);
    let t0, t1, code, hwm, lines =
      Proc.run_collect ~log:(Filename.concat work "certd.log") !certd
        ([ "--manifest"; manifest; "--cache-dir"; store; "--jsonl"; "-"; "--quiet" ]
        @ zipf_flags)
    in
    check_exit a "certd" code;
    let cached = ref 0 and rejected = ref 0 and right = ref 0 and lat = ref [] in
    bits :=
      max !bits
        (check_lines a jobs (List.map snd lines) ~on_right:(fun _ l ->
             let r = report_of_json l in
             incr right;
             lat := r.total_ms :: !lat;
             if r.status = "served_cached" then incr cached;
             if r.rejected then incr rejected));
    let h =
      reconcile a (Printf.sprintf "pass %d" !part) lines ~cached:!cached ~rejected:!rejected
    in
    hits := !hits + h;
    rejects := !rejects + !rejected;
    attempted := !attempted + Array.length jobs;
    ok := !ok + !right;
    windows := !lat :: !windows;
    walls := (t1 -. t0) :: !walls;
    peaks := float_of_int hwm :: !peaks;
    Util.log "pass %d: %d jobs right in %.3f s, %d hits = %d cached + %d rejects" !part
      !right (t1 -. t0) h !cached !rejected;
    Util.calibrate (Printf.sprintf "pass %d" !part);
    probe probes_between;
    incr part
  done;
  probe (max 0 (probes_total - List.length !setups));
  if prime_again () <> canon0 then
    run_failed a "zipf_light: canonical JSONL of the priming stream changed between its two runs";
  Util.log "zipf_light: re-verification rejects %d of %d store hits" !rejects !hits;
  let setup = Util.median !setups in
  {
    jobs_per_s =
      float_of_int !ok /. Util.sum (List.map (fun w -> w -. setup) !walls);
    lat = !windows;
    within = within_share (List.concat !windows) ~attempted:!attempted ~limit_ms:light_limit_ms;
    label_bits_max = !bits;
    peak_kb = Util.median !peaks;
    setup_s = !setups;
  }

(* ---------------------------------------------------------------- *)
(* the daemon                                                         *)

let server_flags ~work ~store =
  [ "--workers"; "1"; "--quiet"; "--queue-cap"; "4096"; "--client-cap"; "4096";
    "--base-dir"; work; "--cache-dir"; store ] @ light_flags

let rec connect_retry path ~until =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      if Util.now () > until then None
      else begin
        Unix.sleepf 0.0005;
        connect_retry path ~until
      end

let rpc fd req =
  Wire.write_frame fd (Wire.encode_request req);
  match Wire.read_frame fd with
  | Some payload -> Wire.decode_response payload
  | None -> Error "connection closed"

type server = { pid : int; fd : Unix.file_descr }

let start_server a ~work ~store ~socket =
  if Sys.file_exists socket then Sys.remove socket;
  let launched = Util.now () in
  let pid, _ =
    Proc.spawn ~capture:false ~log:(Filename.concat work "server.log") !certd_server
      ([ "--socket"; socket ] @ server_flags ~work ~store)
  in
  match connect_retry socket ~until:(launched +. 30.0) with
  | None ->
      run_failed a "certd_server did not open its socket";
      None
  | Some fd -> (
      match rpc fd (Wire.Hello { version = Wire.protocol_version }) with
      | Ok (Wire.Hello_ok _) -> Some { pid; fd }
      | _ ->
          run_failed a "certd_server refused the handshake";
          None)

(* ask the daemon to drain and exit; SIGKILL it after [grace] s *)
let stop_server s ~grace =
  (match rpc s.fd Wire.Shutdown with _ -> () | exception _ -> ());
  (try Unix.close s.fd with Unix.Unix_error _ -> ());
  let until = Util.now () +. grace in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when Util.now () < until ->
        Unix.sleepf 0.005;
        go ()
    | 0, _ ->
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Proc.reap s.pid)
    | _ -> Proc.forget s.pid
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

type reply = {
  mutable sent : float;
  mutable replied : float;
  mutable r_status : string;  (** "" = no answer, "overloaded" = refused *)
  mutable r_json : string;
  mutable r_canonical : string;
}

let fresh_reply () =
  { sent = nan; replied = nan; r_status = ""; r_json = ""; r_canonical = "" }

let submit fd serial job =
  Wire.write_frame fd
    (Wire.encode_request
       (Wire.Submit { serial; canonical = false; deadline_ms = 0.0; line = Jobs.line job }))

(* Read every frame readable within [timeout] seconds, recording
   reports and refusals. Returns the number of submissions answered. *)
let collect fd conn chunk replies ~timeout =
  let answered = ref 0 in
  let ready =
    match Unix.select [ fd ] [] [] timeout with
    | r, _, _ -> r <> []
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
  in
  if ready then begin
    let k = Unix.read fd chunk 0 (Bytes.length chunk) in
    if k = 0 then raise End_of_file;
    Wire.conn_feed conn chunk k;
    let t = Util.now () in
    let record serial status json canonical =
      if serial >= 0 && serial < Array.length replies then begin
        let r = replies.(serial) in
        if r.r_status = "" then incr answered;
        r.replied <- t;
        r.r_status <- status;
        r.r_json <- json;
        r.r_canonical <- canonical
      end
    in
    let rec frames () =
      match Wire.conn_next conn with
      | None -> ()
      | Some payload ->
          (match Wire.decode_response payload with
          | Ok (Wire.Report { serial; status; json; canonical; _ }) ->
              record serial status json canonical
          | Ok (Wire.Overloaded { serial; _ }) -> record serial "overloaded" "" ""
          | _ -> ());
          frames ()
    in
    frames ()
  end;
  !answered

(* Submit [jobs] one at a time, each once the one before is answered.
   Returns the replies of the jobs sent. *)
let closed_loop fd jobs =
  let replies = Array.map (fun _ -> fresh_reply ()) jobs in
  let conn = Wire.conn_create () and chunk = Bytes.create 65536 in
  let sent = ref 0 and answered = ref 0 in
  (try
     while !answered < Array.length jobs do
       if !sent = !answered then begin
         replies.(!sent).sent <- Util.now ();
         submit fd !sent jobs.(!sent);
         incr sent
       end;
       answered := !answered + collect fd conn chunk replies ~timeout:1.0
     done
   with End_of_file | Unix.Unix_error _ -> ());
  Array.sub replies 0 !sent

(* The open loop: job i is due at [t0 + due.(i)] whatever happened to
   the jobs before it; replies are read between sends. Returns once
   every job is answered or [grace] seconds after the last due time. *)
let open_loop fd jobs due ~t0 ~grace =
  let n = Array.length jobs in
  let replies = Array.map (fun _ -> fresh_reply ()) jobs in
  let conn = Wire.conn_create () and chunk = Bytes.create 65536 in
  let next = ref 0 and answered = ref 0 in
  let give_up = t0 +. due.(n - 1) +. grace in
  (try
     while !answered < n && Util.now () < give_up do
       let now = Util.now () in
       while !next < n && t0 +. due.(!next) <= now do
         replies.(!next).sent <- Util.now ();
         submit fd !next jobs.(!next);
         incr next
       done;
       let timeout =
         if !next < n then Float.max 0.0 (t0 +. due.(!next) -. Util.now ()) else 0.05
       in
       answered := !answered + collect fd conn chunk replies ~timeout
     done
   with End_of_file | Unix.Unix_error _ -> ());
  replies

(* check a reply against the truth; [true] when right *)
let check_reply a (j : Jobs.job) r =
  match r.r_status with
  | "" ->
      job_failed a (j.id ^ ": lost (no reply)");
      false
  | "overloaded" ->
      job_failed a (j.id ^ ": refused (overloaded)");
      false
  | status ->
      let o = Json.parse_flat r.r_json in
      check_outcome a j ~status ~n:(Json.get_int o "n") ~m:(Json.get_int o "m")

(* check the replies of [jobs]; a job never sent is lost *)
let check_replies a jobs replies =
  Array.iteri
    (fun i (j : Jobs.job) ->
      if i < Array.length replies then ignore (check_reply a j replies.(i) : bool)
      else job_failed a (j.id ^ ": lost (no reply)"))
    jobs

(* ---------------------------------------------------------------- *)
(* the daemon session of the traced run                               *)

(* The offered rate: about half of one worker's closed-loop capacity on
   the light mix, measured on a 2-vCPU VM (perfbench/README.md). *)
let daemon_rate = 500.0

let daemon_warm = 1000

type daemon = {
  d_jobs : Jobs.job array;  (** the open loop's jobs *)
  d_due : float array;  (** absolute due times *)
  d_replies : reply array;
  d_ok : bool array;
  d_window : float;  (** seconds from the first due time to the last *)
  d_queue_max : int;
}

(* certd_server --workers 1 on zipf_light's primed store ([primed], the
   result of [prime] on work/store), one client on one connection. The
   priming stream's first jobs go first, closed-loop: their canonical
   lines must be the batch driver's. Then an untimed closed-loop
   warm-up, and the open loop for [seconds]: Poisson arrivals at
   [daemon_rate], each job timed from its due time. Last, the stats
   endpoint's queue depth. *)
let daemon_session a ~work ~seed ~seconds ~primed =
  let store = Filename.concat work "store" in
  let socket = Filename.concat work "d.sock" in
  let prime_jobs, canon0, _, _ = primed in
  let prefix = Array.sub prime_jobs 0 16 in
  let canon_prefix =
    let ids = Array.to_list (Array.map (fun (j : Jobs.job) -> j.id) prefix) in
    List.filter
      (fun l -> is_json l && List.mem (Json.get_str (Json.parse_flat l) "id") ids)
      (String.split_on_char '\n' canon0)
  in
  match start_server a ~work ~store ~socket with
  | None -> None
  | Some s ->
      let replies = closed_loop s.fd prefix in
      check_replies a prefix replies;
      let canon = List.map (fun r -> r.r_canonical) (Array.to_list replies) in
      if List.sort compare canon <> List.sort compare canon_prefix then
        run_failed a "daemon: canonical lines differ from the batch priming pass";
      let part = ref 0 in
      let stream count =
        incr part;
        let jobs = Jobs.light_stream ~seed ~tag:"d" ~part:!part count in
        Jobs.write_graphs ~work jobs;
        jobs
      in
      let warm = stream daemon_warm in
      check_replies a warm (closed_loop s.fd warm);
      Util.calibrate "daemon warm-up";
      let jobs = stream (int_of_float (seconds *. daemon_rate)) in
      let due = Jobs.arrivals ~seed ~rate:daemon_rate (Array.length jobs) in
      let t0 = Util.now () +. 0.02 in
      let replies = open_loop s.fd jobs due ~t0 ~grace:10.0 in
      let queue_max =
        match rpc s.fd Wire.Stats_req with
        | Ok (Wire.Stats_reply json) -> Option.value ~default:0 (Json.find_int json "max_depth")
        | _ | (exception _) -> 0
      in
      stop_server s ~grace:10.0;
      Some
        {
          d_jobs = jobs;
          d_due = Array.map (fun d -> t0 +. d) due;
          d_replies = replies;
          d_ok = Array.mapi (fun i r -> check_reply a jobs.(i) r) replies;
          d_window = due.(Array.length due - 1) -. due.(0);
          d_queue_max = queue_max;
        }

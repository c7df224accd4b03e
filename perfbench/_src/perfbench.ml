(* The repository benchmark. One run measures one workload:

     perfbench --bin DIR --workload cold_prove|zipf_light \
       --seed N --seconds S --trace 0|1

   --trace 0 drives the shipped binaries in DIR as child processes and
   prints the end-to-end metrics; --trace 1 replays the same kind of
   jobs in-process, timing every call into each layer, and prints the
   per-layer metrics. Either way the last line of standard output is
   one JSON object:

     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

   Progress and host-noise diagnostics go to standard error. Scratch
   files live under .perfbench_work/ in the current directory and are
   removed on exit; the traced run leaves its Chrome trace under
   .perfbench_out/. See perfbench/README.md. *)

let workloads = [ "cold_prove"; "zipf_light" ]

let usage () =
  Util.die
    "usage: perfbench --bin DIR --workload %s --seed N --seconds S --trace 0|1"
    (String.concat "|" workloads)

let parse_args () =
  let bin = ref None and workload = ref "" and seed = ref None in
  let seconds = ref None and trace = ref None in
  let rec go = function
    | "--bin" :: d :: rest -> bin := Some d; go rest
    | "--workload" :: w :: rest -> workload := w; go rest
    | "--seed" :: s :: rest -> seed := int_of_string_opt s; go rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; go rest
    | "--trace" :: t :: rest ->
        trace := (match t with "0" -> Some false | "1" -> Some true | _ -> None);
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!bin, !seed, !seconds, !trace) with
  | Some bin, Some seed, Some seconds, Some trace
    when List.mem !workload workloads && seconds > 0.0 ->
      (bin, !workload, seed, seconds, trace)
  | _ -> usage ()

let untraced a ~work ~workload ~seed ~seconds =
  if workload = "cold_prove" then Drive.cold_prove a ~work ~seed ~seconds
  else Drive.zipf_light a ~work ~seed ~seconds

let () =
  let bin, workload, seed, seconds, trace = parse_args () in
  Drive.certd := Filename.concat bin "certd.exe";
  Drive.certd_server := Filename.concat bin "certd_server.exe";
  List.iter
    (fun f -> if not (Sys.file_exists f) then Util.die "%s is missing" f)
    [ !Drive.certd; !Drive.certd_server ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* a stopped benchmark still stops its children (at_exit) *)
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  let work =
    Filename.concat ".perfbench_work" (Printf.sprintf "%s-%d" workload (Unix.getpid ()))
  in
  Util.rm_rf work;
  Util.mkdir_p work;
  at_exit (fun () ->
      Proc.kill_all ();
      Util.rm_rf work;
      try Unix.rmdir ".perfbench_work" with Unix.Unix_error _ -> ());
  let a = Drive.acct () in
  Util.calibrate "start";
  let metrics =
    if trace then Trace.run a ~work ~workload ~seed ~seconds
    else Some (Drive.metrics (untraced a ~work ~workload ~seed ~seconds))
  in
  Util.host_summary ();
  match metrics with
  | None -> exit 1
  | Some metrics ->
      print_endline
        (Json.result ~correct:(Drive.correct a) ~attempted:(max 1 a.attempted)
           ~failed:a.failed metrics)

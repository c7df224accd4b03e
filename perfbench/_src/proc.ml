(* Child processes: spawn the program's binaries, read their standard
   output line by line with arrival times, sample their peak resident
   set from /proc, and make sure none outlives the benchmark. *)

let live : int list ref = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  let st = go () in
  live := List.filter (( <> ) pid) !live;
  st

(* SIGKILL and reap everything still running; registered with at_exit *)
let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit kill_all

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0)

(* [spawn prog args ~log] starts [prog] with stdin from /dev/null,
   stderr appended to [log], and stdout on a pipe whose read end is
   returned (or /dev/null when [capture] is false). *)
let spawn ?(capture = true) ~log prog args =
  let err =
    Unix.openfile log
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
      0o644
  in
  let rd, wr =
    if capture then
      let rd, wr = Unix.pipe ~cloexec:true () in
      (Some rd, wr)
    else (None, Lazy.force devnull)
  in
  let pid =
    Unix.create_process prog
      (Array.of_list (prog :: args))
      (Lazy.force devnull) wr err
  in
  live := pid :: !live;
  if capture then Unix.close wr;
  Unix.close err;
  (pid, rd)

let exit_code = function
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 128

(* ---------------------------------------------------------------- *)
(* peak resident set                                                 *)

let read_opt path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let b = Buffer.create 1024 in
      (try
         while true do
           Buffer.add_channel b ic 1
         done
       with End_of_file | Sys_error _ -> ());
      close_in_noerr ic;
      Some (Buffer.contents b)

let vmhwm_kb pid =
  match read_opt (Printf.sprintf "/proc/%d/status" pid) with
  | None -> 0
  | Some s ->
      List.fold_left
        (fun acc line ->
          match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
          | Some kb -> max acc kb
          | None -> acc)
        0
        (String.split_on_char '\n' s)

let children pid =
  match read_opt (Printf.sprintf "/proc/%d/task/%d/children" pid pid) with
  | None -> []
  | Some s ->
      String.split_on_char ' ' (String.trim s)
      |> List.filter_map int_of_string_opt

(* the largest VmHWM over [pid] and its descendants, in kB *)
let rec tree_hwm_kb pid =
  List.fold_left (fun acc c -> max acc (tree_hwm_kb c)) (vmhwm_kb pid)
    (children pid)

(* ---------------------------------------------------------------- *)
(* line reader                                                       *)

(* Read [fd] to EOF, calling [on_line time line] for every complete
   line (time = arrival, monotonic seconds) and [tick ()] at least
   every [every] seconds while the child runs. Closes [fd]. *)
let drain ?(every = 0.05) ?(tick = fun () -> ()) fd ~on_line =
  let chunk = Bytes.create 65536 in
  let pending = Buffer.create 4096 in
  let last_tick = ref (Util.now ()) in
  let emit t =
    let s = Buffer.contents pending in
    let len = String.length s in
    let start = ref 0 in
    for i = 0 to len - 1 do
      if s.[i] = '\n' then begin
        on_line t (String.sub s !start (i - !start));
        start := i + 1
      end
    done;
    Buffer.clear pending;
    Buffer.add_substring pending s !start (len - !start)
  in
  let rec loop () =
    let ready =
      match Unix.select [ fd ] [] [] every with
      | r, _, _ -> r <> []
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
    in
    let t = Util.now () in
    if t -. !last_tick >= every then begin
      last_tick := t;
      tick ()
    end;
    if not ready then loop ()
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 ->
          if Buffer.length pending > 0 then begin
            Buffer.add_char pending '\n';
            emit t
          end
      | k ->
          Buffer.add_subbytes pending chunk 0 k;
          emit t;
          loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ();
  Unix.close fd

(* Run [prog args] to completion, collecting its stdout lines with
   arrival times. Returns (launch time, exit time, exit code, peak
   VmHWM kB over the process tree, lines). *)
let run_collect ~log prog args =
  let t0 = Util.now () in
  let pid, rd = spawn ~log prog args in
  let hwm = ref 0 in
  let lines = ref [] in
  drain (Option.get rd)
    ~tick:(fun () -> hwm := max !hwm (tree_hwm_kb pid))
    ~on_line:(fun t l -> lines := (t, l) :: !lines);
  hwm := max !hwm (tree_hwm_kb pid);
  let st = reap pid in
  let t1 = Util.now () in
  (t0, t1, exit_code st, !hwm, List.rev !lines)

(* [pid] was reaped elsewhere *)
let forget pid = live := List.filter (( <> ) pid) !live

(* Clocks, order statistics, host-noise diagnostics and work-directory
   helpers shared by the benchmark's drivers. *)

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* monotonic seconds; only differences are meaningful *)
let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* nearest-rank percentile of an unsorted sample; 0 for an empty one *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

(* the midpoint median, so an even sample does not snap to one of its
   two middle values *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum xs = List.fold_left ( +. ) 0.0 xs

let ratio a b = if b = 0.0 then 0.0 else a /. b

let share a b = ratio (float_of_int a) (float_of_int b)

(* splitmix64's finalizer on OCaml ints: a stateless hash of (a, b) *)
let mix a b =
  let z = ref ((a * 0x1e3779b97f4a7c15) + b) in
  z := (!z lxor (!z lsr 30)) * 0x3f58476d1ce4e5b9;
  z := (!z lxor (!z lsr 27)) * 0x14d049bb133111eb;
  (!z lxor (!z lsr 31)) land max_int

(* ---------------------------------------------------------------- *)
(* host noise                                                        *)

(* (steal, all) CPU ticks since boot, from the first line of
   /proc/stat; (0, 0) where it cannot be read *)
let cpu_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> (0, 0)
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | "cpu" :: ticks ->
          let t = List.filter_map int_of_string_opt ticks in
          (Option.value ~default:0 (List.nth_opt t 7), List.fold_left ( + ) 0 t)
      | _ -> (0, 0))

(* A fixed kernel owned by the benchmark: sort 2^16 pseudo-random ints
   and hash the result. It never touches the program, so its time moves
   only with the host's speed. The runs log it between rounds to tell a
   noisy host apart from a program change; no metric is ever rescaled by
   it. *)
let kernel_ms () =
  let a = Array.init 65536 (fun i -> mix 0xca11b i land 0xffffff) in
  let t0 = now () in
  Array.sort compare a;
  let h = Array.fold_left (fun h x -> mix h x) 0 a in
  let ms = 1000.0 *. (now () -. t0) in
  if h = 0 then log "kernel hash 0";
  ms

let kernel_samples = ref []

let steal0 = lazy (cpu_ticks ())

(* time the kernel once and log it with the phase it follows *)
let calibrate what =
  ignore (Lazy.force steal0);
  let ms = kernel_ms () in
  kernel_samples := ms :: !kernel_samples;
  log "host: calibration kernel %.2f ms after %s" ms what

(* the run's host summary: kernel spread and steal share *)
let host_summary () =
  let s0, a0 = Lazy.force steal0 in
  let s1, a1 = cpu_ticks () in
  let ks = !kernel_samples in
  log
    "host: calibration kernel over %d samples: min %.2f, median %.2f, max \
     %.2f ms; steal %.2f%% of CPU time"
    (List.length ks)
    (List.fold_left Float.min infinity ks)
    (median ks)
    (List.fold_left Float.max 0.0 ks)
    (100.0 *. share (s1 - s0) (a1 - a0))

(* ---------------------------------------------------------------- *)
(* files                                                             *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  data

(* a flat directory copy (a certificate store has no subdirectories
   until it quarantines something) *)
let copy_dir src dst =
  mkdir_p dst;
  Array.iter
    (fun f ->
      let s = Filename.concat src f in
      if not (Sys.is_directory s) then
        write_file (Filename.concat dst f) (read_file s))
    (Sys.readdir src)

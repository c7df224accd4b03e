(* The traced run: replay jobs in-process and time every call into a
   layer's public functions from here, adding nothing to the program.

   A span is kept in memory at each call: name, start, end, parent and
   job id, plus the minor words the call allocated. The spans are
   written once, at the end, as Chrome trace-event JSON under
   .perfbench_out/. A layer's self time is its spans' time less the
   time of their child spans.

   Every traced run measures every per-layer metric, whichever workload
   it is asked for, from three parts:

   - cold: cold_prove's round 0, and the ladder's n = 1024 rung
     ([Jobs.growth_jobs]), each on an empty store;
   - light: a zipf_light stream on a primed store, plus one certd
     --stream --jobs 2 pass over the same stream for the pool's share;
   - daemon: a short open-loop session against certd_server --workers
     1 on the primed store ([Drive.daemon_session]), measured from the
     client.

   Each in-process replay runs twice on identically prepared stores:
   first through [Engine.run_job] untimed per layer (the reference: its
   outcomes and its wall), then through [pipeline], which takes
   [Engine.run_once]'s steps call by call inside spans. Every outcome
   must equal the reference's and the ground truth. The asked
   workload's replay gives trace.attributed_share (self time of the
   layer spans over the traced wall) and trace.overhead_share (traced
   wall over reference wall, less 1). Neither counts the replay of the
   prover's phases (the core.phases spans), which is the benchmark's
   own extra work. *)

module S = Lcp_service
module Engine = S.Engine
module Store = S.Cert_store
module Bundle = S.Bundle
module Config = Lcp_pls.Config
module Scheme = Lcp_pls.Scheme
module G = Lcp_graph.Graph

(* ---------------------------------------------------------------- *)
(* spans                                                             *)

type span = {
  sid : int;
  name : string;
  job : string;
  parent : int;  (** -1 for a root *)
  t0 : float;
  t1 : float;
  words : float;
}

let spans : span list ref = ref []

let next_sid = ref 0

let stack : int list ref = ref []

let current_job = ref ""

(* [span name f]: [f ()] inside a span *)
let span name f =
  let sid = !next_sid in
  incr next_sid;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := sid :: !stack;
  let w0 = Gc.minor_words () in
  let t0 = Util.now () in
  let finish () =
    let t1 = Util.now () in
    let w1 = Gc.minor_words () in
    stack := List.tl !stack;
    spans := { sid; name; job = !current_job; parent; t0; t1; words = w1 -. w0 } :: !spans
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

let dur s = s.t1 -. s.t0

(* per name: calls, total ms, self ms, minor words *)
type agg = { mutable calls : int; mutable ms : float; mutable self : float; mutable words : float }

let aggregate ss =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent >= 0 then
        Hashtbl.replace child s.parent (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    ss;
  let aggs = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let a =
        match Hashtbl.find_opt aggs s.name with
        | Some a -> a
        | None ->
            let a = { calls = 0; ms = 0.0; self = 0.0; words = 0.0 } in
            Hashtbl.replace aggs s.name a;
            a
      in
      a.calls <- a.calls + 1;
      a.ms <- a.ms +. (1000.0 *. dur s);
      a.self <- a.self +. (1000.0 *. (dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.sid)));
      a.words <- a.words +. s.words)
    ss;
  aggs

let write_chrome path ss =
  let oc = open_out_bin path in
  output_string oc "{\"traceEvents\":[\n";
  let base = List.fold_left (fun acc s -> Float.min acc s.t0) infinity ss in
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"job\":%S,\"id\":%d,\"parent\":%d,\"minor_words\":%.0f}}\n"
        (if i = 0 then "" else ",")
        s.name
        (1e6 *. (s.t0 -. base))
        (1e6 *. dur s) s.job s.sid s.parent s.words)
    (List.sort (fun a b -> compare a.t0 b.t0) ss);
  output_string oc "]}\n";
  close_out oc

(* ---------------------------------------------------------------- *)
(* outcomes                                                          *)

type outcome = { status : string; bits : int }

let pp o = Printf.sprintf "%s/%d bits" o.status o.bits

(* the layers [Prover.prepare] runs before its algebra pass, as
   separately callable steps fed exactly as [prepare] feeds them; the
   representation is the engine's own policy ([Engine.default_rep]) *)
let replay_phases cfg =
  let g = Config.graph cfg in
  if G.n g > 0 && Lcp_graph.Traversal.is_connected g then begin
    let rep = span "interval.rep" (fun () -> Option.get (Engine.default_rep cfg)) in
    let lc = span "lanes.prop46" (fun () -> Lcp_lanes.Low_congestion.construct rep) in
    let partition = lc.Lcp_lanes.Low_congestion.partition in
    let host = span "lanes.completion" (fun () -> Lcp_lanes.Completion.completion partition) in
    let trace, to_host =
      span "lanewidth.trace" (fun () -> Lcp_lanewidth.Prop52.trace_of_partition partition)
    in
    ignore
      (span "lanewidth.hierarchy" (fun () ->
           Lcp_lanewidth.Builder.of_trace_on ~host ~to_host trace)
        : Lcp_lanewidth.Hierarchy.t)
  end

type counts = {
  mutable lookups : int;
  mutable cached : int;
  mutable rejects : int;
  mutable fresh : int;
  mutable jobs : int;
}

(* One manifest line through the layers, in [Engine.run_once]'s order.
   After each fresh proof the prover's phases are replayed on the same
   configuration, so [core.prove] less the phases is the annotate pass. *)
let pipeline c ~base_dir store ~lineno line =
  c.jobs <- c.jobs + 1;
  let error = { status = "input_error"; bits = 0 } in
  match span "manifest.parse" (fun () -> S.Manifest.parse_line ~line:lineno line) with
  | Error _ | Ok None -> error
  | Ok (Some (job : S.Manifest.job)) -> (
      current_job := job.job_id;
      match span "graph.gen" (fun () -> Engine.graph_of_source ~base_dir ~k:job.k job.source) with
      | Error _ -> error
      | Ok g -> (
          match S.Registry.find job.property with
          | None -> error
          | Some (module P) -> (
              let module T1 = Lcp_cert.Theorem1.Make (P.A) in
              let scheme = T1.edge_scheme ~rep:Engine.default_rep ~k:job.k () in
              let decode_label = Lcp_cert.Certificate.decode ~decode_state:P.decode_state in
              let cfg =
                span "pls.config" (fun () -> Config.random_ids (Random.State.make [| job.seed |]) g)
              in
              let key = span "store.key" (fun () -> Store.key ~property:job.property ~k:job.k g) in
              let verify labels = span "pls.verify" (fun () -> Scheme.run_edge cfg scheme labels) in
              let drop () =
                c.rejects <- c.rejects + 1;
                span "store.remove" (fun () -> Store.remove store key)
              in
              c.lookups <- c.lookups + 1;
              let cached =
                match span "store.find" (fun () -> Store.find store key) with
                | None -> None
                | Some entry -> (
                    match
                      span "service.decode" (fun () ->
                          Bundle.decode ~decode_label g entry.Store.e_bundle)
                    with
                    | Error _ ->
                        drop ();
                        None
                    | Ok labels -> (
                        match verify labels with
                        | Scheme.Accepted -> Some entry
                        | Scheme.Rejected _ ->
                            drop ();
                            None))
              in
              match cached with
              | Some entry ->
                  c.cached <- c.cached + 1;
                  { status = "served_cached"; bits = entry.Store.e_label_bits }
              | None -> (
                  let proved = span "core.prove" (fun () -> scheme.Scheme.es_prove cfg) in
                  span "core.phases" (fun () -> replay_phases cfg);
                  match proved with
                  | None -> { status = "declined"; bits = 0 }
                  | Some labels -> (
                      match
                        span "service.encode" (fun () ->
                            Bundle.encode ~encode_label:scheme.Scheme.es_encode g labels)
                      with
                      | Error _ -> { status = "unsound"; bits = 0 }
                      | Ok bundle -> (
                          match verify labels with
                          | Scheme.Rejected _ -> { status = "unsound"; bits = 0 }
                          | Scheme.Accepted ->
                              c.fresh <- c.fresh + 1;
                              let bits =
                                span "pls.label_bits" (fun () ->
                                    Scheme.max_edge_label_bits scheme labels)
                              in
                              span "store.add" (fun () ->
                                  Store.add store
                                    { Store.e_key = key; e_bundle = bundle; e_label_bits = bits });
                              { status = "served_fresh"; bits }))))))

(* ---------------------------------------------------------------- *)
(* one in-process replay                                             *)

type replay = {
  r_spans : span list;  (** the traced pass's spans *)
  r_wall : float;  (** traced pass, s *)
  r_ref_wall : float;  (** reference pass, s *)
  r_counts : counts;
  r_stats : Store.stats;
  r_memo : int * int;  (** composition memo hits, misses while traced *)
}

let memo name = Option.value ~default:0 (List.assoc_opt name (Lcp_cert.Memo.counters ()))

(* Replay [jobs] on two copies of the store in [from] (an empty store
   when [None]), with the store settings [engine] applies. *)
let replay (a : Drive.acct) ~work ~tag ~engine ?from jobs =
  let dir name =
    let d = Filename.concat work (tag ^ "-" ^ name) in
    Util.rm_rf d;
    Option.iter (fun src -> Util.copy_dir src d) from;
    d
  in
  let lines = Array.map Jobs.line jobs in
  (* job by job, the reference first and then the traced pipeline, so
     neither pass runs on caches the other warmed for the whole replay *)
  let reference = engine (dir "ref") in
  let e = engine (dir "traced") in
  let store = Engine.store e in
  let c = { lookups = 0; cached = 0; rejects = 0; fresh = 0; jobs = 0 } in
  let before = !spans in
  spans := [];
  let mh = memo "memo_hit" and mm = memo "memo_miss" in
  let ref_wall = ref 0.0 and memo_ref = ref (0, 0) in
  Gc.full_major ();
  Array.iteri
    (fun i l ->
      let j = jobs.(i) in
      let h0 = memo "memo_hit" and m0 = memo "memo_miss" in
      let t0 = Util.now () in
      let expected =
        match S.Manifest.parse_line ~line:1 l with
        | Ok (Some job) ->
            let r = Engine.run_job reference job in
            { status = S.Stats.status_name r.S.Stats.r_status; bits = r.S.Stats.r_label_bits }
        | Ok None | Error _ -> { status = "input_error"; bits = 0 }
      in
      ref_wall := !ref_wall +. (Util.now () -. t0);
      memo_ref := (fst !memo_ref + memo "memo_hit" - h0, snd !memo_ref + memo "memo_miss" - m0);
      current_job := j.id;
      let o = span "job" (fun () -> pipeline c ~base_dir:work store ~lineno:1 l) in
      if o <> expected then
        Drive.job_failed a
          (Printf.sprintf "%s: traced outcome %s, engine outcome %s" j.id (pp o) (pp expected))
      else if Truth.verdict_of_status o.status = (Truth.compute j).Truth.verdict then
        Drive.job_ok a
      else Drive.job_failed a (Printf.sprintf "%s: traced status %s is wrong" j.id o.status))
    lines;
  let t0 = Util.now () in
  Engine.flush reference;
  let ref_wall = !ref_wall +. (Util.now () -. t0) in
  current_job := "";
  span "store.flush" (fun () -> Store.flush store);
  let wall =
    List.fold_left (fun acc sp -> if sp.parent < 0 then acc +. dur sp else acc) 0.0 !spans
  in
  let st = Store.stats store in
  if st.Store.hits <> c.cached + c.rejects then
    Drive.run_failed a
      (Printf.sprintf "%s: traced store hits %d <> cached serves %d + re-verification rejects %d"
         tag st.Store.hits c.cached c.rejects);
  let mine = !spans in
  spans := mine @ before;
  Util.log "%s: %d jobs traced in %.3f s (reference %.3f s), %d hits = %d cached + %d rejects"
    tag c.jobs wall ref_wall st.Store.hits c.cached c.rejects;
  { r_spans = mine; r_wall = wall; r_ref_wall = ref_wall; r_counts = c; r_stats = st;
    r_memo = (memo "memo_hit" - mh - fst !memo_ref, memo "memo_miss" - mm - snd !memo_ref) }

(* ---------------------------------------------------------------- *)
(* the metrics                                                        *)

let per_call aggs name =
  match Hashtbl.find_opt aggs name with
  | Some a when a.calls > 0 -> (a.ms /. float_of_int a.calls, a.words /. float_of_int a.calls)
  | _ -> (0.0, 0.0)

(* (family, size class) of a cold_prove or growth job id, e.g.
   cp-path-0258-1 or gr-random-1024-0 *)
let cold_class id =
  match String.split_on_char '-' id with
  | [ ("cp" | "gr"); fam; n; _ ] -> (
      let fam = if fam = "random" then "pw2" else fam in
      match int_of_string_opt n with
      | Some n -> Some (fam, if n < 180 then 128 else if n < 360 then 256 else if n < 720 then 512 else 1024)
      | None -> None)
  | _ -> None

(* per job: the time of [name]'s spans, and of the annotate pass
   (core.prove less the replayed phases) *)
let phase_names =
  [ "interval.rep"; "lanes.prop46"; "lanes.completion"; "lanewidth.trace"; "lanewidth.hierarchy" ]

let per_job_ms ss =
  let t = Hashtbl.create 256 in
  let add job name ms =
    Hashtbl.replace t (job, name) (ms +. Option.value ~default:0.0 (Hashtbl.find_opt t (job, name)))
  in
  List.iter (fun s -> add s.job s.name (1000.0 *. dur s)) ss;
  let jobs = List.sort_uniq compare (List.map (fun s -> s.job) ss) in
  List.iter
    (fun job ->
      match Hashtbl.find_opt t (job, "core.prove") with
      | Some prove when Hashtbl.mem t (job, "interval.rep") ->
          let phases =
            List.fold_left
              (fun acc n -> acc +. Option.value ~default:0.0 (Hashtbl.find_opt t (job, n)))
              0.0 phase_names
          in
          add job "core.annotate" (Float.max 0.0 (prove -. phases))
      | _ -> ())
    jobs;
  t

(* mean per-job time of [name] at n ~ 1024 over n ~ 256, for [fam] *)
let growth t name fam =
  let mean cls =
    let xs =
      Hashtbl.fold
        (fun (job, nm) ms acc -> if nm = name && cold_class job = Some (fam, cls) then ms :: acc else acc)
        t []
    in
    Util.ratio (Util.sum xs) (float_of_int (List.length xs))
  in
  Util.ratio (mean 1024) (mean 256)

let annotate_ms t =
  let xs = Hashtbl.fold (fun (_, nm) ms acc -> if nm = "core.annotate" then ms :: acc else acc) t [] in
  Util.ratio (Util.sum xs) (float_of_int (List.length xs))

(* trace.attributed_share and trace.overhead_share of one replay. The
   core.phases subtrees (the phases' replay after each fresh proof) are
   taken out of the traced wall and out of the attributed time, so both
   shares see only the work the engine itself does. *)
let shares r =
  let rerun = Hashtbl.create 256 in
  (* a child's sid is above its parent's *)
  List.iter
    (fun s ->
      if s.name = "core.phases" || Hashtbl.mem rerun s.parent then Hashtbl.replace rerun s.sid ())
    (List.sort (fun x y -> compare x.sid y.sid) r.r_spans);
  let rerun_s =
    List.fold_left (fun acc s -> if s.name = "core.phases" then acc +. dur s else acc) 0.0 r.r_spans
  in
  let wall = r.r_wall -. rerun_s in
  let aggs = aggregate (List.filter (fun s -> not (Hashtbl.mem rerun s.sid)) r.r_spans) in
  let layer_self =
    Hashtbl.fold (fun name a acc -> if name = "job" then acc else acc +. a.self) aggs 0.0
  in
  (layer_self /. (1000.0 *. wall), (wall /. r.r_ref_wall) -. 1.0)

(* the store settings of certd's light-mix runs (Drive.light_flags) *)
let light_engine ~work dir =
  Engine.create ~cache_cap:256 ~cache_dir:dir ~write_batch:64 ~base_dir:work ()

let light_trace_jobs = 6000

let daemon_trace_seconds = 6.0

let run a ~work ~workload ~seed ~seconds:_ =
  (* cold: round 0, then the n = 1024 growth jobs on a store of their own *)
  let cold_engine dir = Engine.create ~cache_dir:dir () in
  let cold = replay a ~work ~tag:"cold" ~engine:cold_engine (Jobs.cold_round ~seed 0) in
  let growth_set = replay a ~work ~tag:"growth" ~engine:cold_engine Jobs.growth_jobs in
  Util.calibrate "cold replay";
  (* light: replays and the pool pass start from copies of [base], the
     primed store; the daemon session then uses [store] itself *)
  let store = Filename.concat work "store" in
  let primed = Drive.prime a ~work ~seed ~store in
  let base = Filename.concat work "base" in
  Util.copy_dir store base;
  let stream = Jobs.light_stream ~seed ~tag:"t" ~part:1 light_trace_jobs in
  Jobs.write_graphs ~work stream;
  let light = replay a ~work ~tag:"light" ~engine:(light_engine ~work) ~from:base stream in
  Util.calibrate "light replay";
  let ipc_share =
    let pool_store = Filename.concat work "pool-store" in
    Util.rm_rf pool_store;
    Util.copy_dir base pool_store;
    let manifest = Filename.concat work "pool.manifest" in
    Util.write_file manifest (Jobs.manifest stream);
    let t0, t1, code, _, lines =
      Proc.run_collect ~log:(Filename.concat work "certd.log") !Drive.certd
        ([ "--manifest"; manifest; "--cache-dir"; pool_store; "--jsonl"; "-"; "--quiet" ]
        @ Drive.zipf_flags)
    in
    Drive.check_exit a "certd (pool pass)" code;
    let service = ref 0.0 in
    ignore
      (Drive.check_lines a stream (List.map snd lines) ~on_right:(fun _ l ->
           service := !service +. (Drive.report_of_json l).Drive.total_ms)
        : int);
    1.0 -. (!service /. 1000.0 /. (2.0 *. (t1 -. t0)))
  in
  (* daemon *)
  match Drive.daemon_session a ~work ~seed ~seconds:daemon_trace_seconds ~primed with
  | None -> None
  | Some d ->
      Util.calibrate "daemon session";
      let own = if workload = "cold_prove" then cold else light in
      let path =
        Filename.concat ".perfbench_out" (Printf.sprintf "trace-%s.json" workload)
      in
      Util.mkdir_p ".perfbench_out";
      write_chrome path !spans;
      Util.log "wrote %d spans to %s" (List.length !spans) path;
      let attributed, overhead = shares own in
      (* cold *)
      let ca = aggregate cold.r_spans in
      let cj = per_job_ms (cold.r_spans @ growth_set.r_spans) in
      let cms name = fst (per_call ca name) and cwords name = snd (per_call ca name) in
      let cmemo_h, cmemo_m = cold.r_memo in
      (* light *)
      let la = aggregate light.r_spans in
      let lms name = fst (per_call la name) in
      let lc = light.r_counts and ls = light.r_stats in
      let probes = ls.Store.filter_skips + ls.Store.filter_hits + ls.Store.filter_fps in
      (* daemon, from the client *)
      let samples =
        List.filter_map
          (fun i ->
            let r = d.Drive.d_replies.(i) in
            if d.Drive.d_ok.(i) then
              let svc = Json.get_num (Json.parse_flat r.Drive.r_json) "total_ms" in
              Some (1000.0 *. (r.Drive.sent -. d.Drive.d_due.(i)),
                    (1000.0 *. (r.Drive.replied -. r.Drive.sent)) -. svc, svc)
            else None)
          (List.init (Array.length d.Drive.d_jobs) Fun.id)
      in
      let late = List.map (fun (l, _, _) -> l) samples in
      let over = List.map (fun (_, o, _) -> o) samples in
      let svc = List.map (fun (_, _, s) -> s) samples in
      let refused =
        Array.fold_left (fun n r -> if r.Drive.r_status = "overloaded" then n + 1 else n) 0 d.Drive.d_replies
      in
      Some
        [
          ("graph.gen_ms", cms "graph.gen", "ms");
          ("interval.rep_ms", cms "interval.rep", "ms");
          ("lanes.prop46_ms", cms "lanes.prop46", "ms");
          ("lanes.completion_ms", cms "lanes.completion", "ms");
          ("lanewidth.trace_ms", cms "lanewidth.trace", "ms");
          ("lanewidth.hierarchy_ms", cms "lanewidth.hierarchy", "ms");
          ("core.annotate_ms", annotate_ms cj, "ms");
          ("service.encode_ms", cms "service.encode", "ms");
          ("pls.verify_ms", cms "pls.verify", "ms");
          ("pls.label_bits_ms", cms "pls.label_bits", "ms");
          ("store.add_ms", cms "store.add", "ms");
          ("store.flush_ms", cms "store.flush", "ms");
          ("lanes.prop46.words", cwords "lanes.prop46", "words");
          ("lanewidth.hierarchy.words", cwords "lanewidth.hierarchy", "words");
          ("service.encode.words", cwords "service.encode", "words");
          ("interval.rep.growth4x.path", growth cj "interval.rep" "path", "x");
          ("interval.rep.growth4x.pw2", growth cj "interval.rep" "pw2", "x");
          ("lanes.prop46.growth4x.path", growth cj "lanes.prop46" "path", "x");
          ("lanes.prop46.growth4x.pw2", growth cj "lanes.prop46" "pw2", "x");
          ("lanewidth.hierarchy.growth4x.path", growth cj "lanewidth.hierarchy" "path", "x");
          ("lanewidth.hierarchy.growth4x.pw2", growth cj "lanewidth.hierarchy" "pw2", "x");
          ("core.annotate.growth4x.path", growth cj "core.annotate" "path", "x");
          ("core.annotate.growth4x.pw2", growth cj "core.annotate" "pw2", "x");
          ("service.encode.growth4x.path", growth cj "service.encode" "path", "x");
          ("service.encode.growth4x.pw2", growth cj "service.encode" "pw2", "x");
          ("core.memo_hit_share", Util.share cmemo_h (cmemo_h + cmemo_m), "share");
          ("manifest.parse_ms", lms "manifest.parse", "ms");
          ("store.key_ms", lms "store.key", "ms");
          ("store.find_ms", lms "store.find", "ms");
          ("service.decode_ms", lms "service.decode", "ms");
          ("light.pls.verify_ms", lms "pls.verify", "ms");
          ("core.prove_ms", lms "core.prove", "ms");
          ("light.service.encode_ms", lms "service.encode", "ms");
          ("light.store.add_ms", lms "store.add", "ms");
          ("light.store.flush_ms", lms "store.flush", "ms");
          ("store.hit_share", Util.share ls.Store.hits lc.lookups, "share");
          ("store.fresh_share", Util.share lc.fresh lc.jobs, "share");
          ("store.reverify_reject_share", Util.share lc.rejects ls.Store.hits, "share");
          ("store.disk_load_share", Util.share ls.Store.disk_loads ls.Store.hits, "share");
          ("negf.skip_share", Util.share ls.Store.filter_skips probes, "share");
          ("negf.fp", float_of_int ls.Store.filter_fps, "count");
          ("pool.ipc_share", ipc_share, "share");
          ("client.late_ms_p99", Util.percentile late 0.99, "ms");
          ("server.overhead_ms_p50", Util.percentile over 0.50, "ms");
          ("server.overhead_ms_p99", Util.percentile over 0.99, "ms");
          ("worker.service_ms_p50", Util.percentile svc 0.50, "ms");
          ("worker.service_ms_p99", Util.percentile svc 0.99, "ms");
          ("server.busy_share", Util.sum svc /. 1000.0 /. d.Drive.d_window, "share");
          ("server.queue_depth_max", float_of_int d.Drive.d_queue_max, "count");
          ("server.refused", float_of_int refused, "count");
          ("trace.attributed_share", attributed, "share");
          ("trace.overhead_share", overhead, "share");
        ]

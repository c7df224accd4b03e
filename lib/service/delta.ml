(** Delta sessions: incremental re-certification of an evolving graph
    against the service engine.

    A session pins one base job (graph source, property, k, id seed)
    and holds the typed state the incremental core needs across edits —
    the current graph, its (transplanted) interval representation, the
    last {e verified} labeling, and one [Incremental.Make] instance
    whose composition-memo tables stay warm for the session's life.
    The property's algebra state type is existential (it comes out of
    [Registry] as a first-class module), so the typed machinery hides
    behind closures built once in [create].

    Every step follows the engine's serving discipline end to end:

    - the edited graph is content-addressed in the [Cert_store]; a warm
      hit is decoded and {e fully} re-verified before it is served
      (and before its labels become the next splice baseline);
    - a miss transplants the representation (falling back to a fresh
      one when the edit escapes the old windows), re-runs the prover
      with the warm memo, splices against the previous labeling, and
      re-verifies the dirty region plus its boundary — or every vertex
      when there is no fully-verified baseline or [full] recompute is
      forced;
    - the fresh bundle is verified before it is stored or served, and
      every step runs under [Engine.run_delta_job]'s retry/deadline/
      degraded machinery.

    [full:true] is the differential anchor: the same representation
    policy and pipeline, but no splice baseline and whole-graph
    verification — a from-scratch recompute whose canonical JSONL must
    be byte-identical to the incremental path (the [@incr] suite and
    the check.sh daemon smoke assert exactly that).

    Session state only advances when a step returns a report
    (exceptions leave it untouched, so retried attempts rerun whole);
    a well-formed delta advances the graph even when the property no
    longer holds (Declined) — the stream's shape is the client's
    business, judgements are ours. After a Declined or Unsound step
    the labeling baseline is dropped and the next step rebuilds and
    re-verifies in full. *)

module Graph = Lcp_graph.Graph
module PW = Lcp_interval.Pathwidth
module Config = Lcp_pls.Config
module Scheme = Lcp_pls.Scheme
module Incr = Lcp_cert.Incremental
module Memo = Lcp_cert.Memo

type patch_info = {
  pi_mode : string;
      (** [open]: base certification; [patched]: transplanted rep +
          splice; [rebuilt]: fresh rep or no baseline, everything
          recomputed; [full]: forced from-scratch recompute; [cached]:
          store hit re-verified and served; [none]: nothing ran (bad
          delta, retry exhaustion) *)
  pi_edits : int;  (** operations in the normalized delta *)
  pi_dirty_windows : int;  (** window-overlap closure of the delta *)
  pi_changed : int;  (** edge labels that differ from the baseline *)
  pi_reused : int;  (** edge labels spliced through unchanged *)
  pi_verified : int;  (** vertices re-verified locally *)
  pi_memo_hits : int;  (** composition-memo hits during this step *)
  pi_memo_misses : int;
}

let no_info mode =
  {
    pi_mode = mode;
    pi_edits = 0;
    pi_dirty_windows = 0;
    pi_changed = 0;
    pi_reused = 0;
    pi_verified = 0;
    pi_memo_hits = 0;
    pi_memo_misses = 0;
  }

(* one line, no newlines: the wire protocol frames it as a single
   body line of a dreport *)
let info_json i =
  Printf.sprintf
    "{\"mode\":\"%s\",\"edits\":%d,\"dirty_windows\":%d,\"changed\":%d,\"reused\":%d,\"verified\":%d,\"memo_hits\":%d,\"memo_misses\":%d}"
    i.pi_mode i.pi_edits i.pi_dirty_windows i.pi_changed i.pi_reused
    i.pi_verified i.pi_memo_hits i.pi_memo_misses

type session = {
  s_job : Manifest.job;
  mutable s_edits : int;  (** edits consumed (including malformed ones) *)
  s_graph : unit -> Graph.t;
  s_bundle : unit -> Bundle.t option;
  s_exec :
    retry:Engine.retry_policy option ->
    full:bool ->
    id:string ->
    Incr.delta ->
    Stats.job_report * patch_info;
}

let base_job s = s.s_job

let edits s = s.s_edits

let graph s = s.s_graph ()

let bundle s = s.s_bundle ()

(* the engine's representation policy, verbatim: sessions must be
   byte-comparable with [Engine.run_job] on the same instance *)
let fresh_rep g =
  if Graph.n g <= 20 then PW.exact_interval_representation g
  else PW.heuristic_interval_representation g

let memo_totals () =
  let l = Memo.counters () in
  let get k = Option.value ~default:0 (List.assoc_opt k l) in
  (get "memo_hit", get "memo_miss")

let base_report (job : Manifest.job) ~id ?n ?m ~t0 status =
  Stats.bare_report ~id ~property:job.Manifest.property ~k:job.Manifest.k ?n
    ?m ~total_ms:(Timing.now_ms () -. t0) status

let create ?retry engine (job : Manifest.job) =
  let t0 = Timing.now_ms () in
  let timing = engine.Engine.timing in
  match
    Timing.time timing Timing.Parse (fun () ->
        Engine.graph_of_source ~base_dir:(Engine.base_dir engine) ~k:job.Manifest.k
          job.Manifest.source)
  with
  | Error e ->
      Error
        ( base_report job ~id:job.Manifest.job_id ~t0 (Stats.Input_error e),
          no_info "none" )
  | Ok g0 -> (
      let n = Graph.n g0 and m = Graph.m g0 in
      match Registry.find job.Manifest.property with
      | None ->
          Error
            ( base_report job ~id:job.Manifest.job_id ~n ~m ~t0
                (Stats.Input_error
                   (Printf.sprintf "unknown property %S; catalogue: %s"
                      job.Manifest.property
                      (String.concat ", " (Registry.names ())))),
              no_info "none" )
      | Some p ->
          let (module Pr : Registry.PROPERTY) = p in
          let module I = Incr.Make (Pr.A) in
          let module T1 = Lcp_cert.Theorem1.Make (Pr.A) in
          (* verify/encode only — proving goes through [I], whose
             composition memo stays warm across the session *)
          let scheme = T1.edge_scheme ~k:job.Manifest.k () in
          let decode_label =
            Lcp_cert.Certificate.decode ~decode_state:Pr.decode_state
          in
          (* memory-tier warm hits skip the bundle decode: the session
             remembers the labeling it decoded (or encoded) for each
             bundle value it has served, keyed by content hash and
             guarded by physical identity of the bundle — a disk-tier
             reload is a fresh value and decodes as usual.  Serving
             still re-verifies the labeling in full either way. *)
          let decoded : (string, Bundle.t * I.labeling) Hashtbl.t =
            Hashtbl.create 64
          in
          let remember key bundle labels =
            if Hashtbl.length decoded > 512 then Hashtbl.reset decoded;
            Hashtbl.replace decoded (Cert_store.key_hex key) (bundle, labels)
          in
          let recall key bundle =
            match Hashtbl.find_opt decoded (Cert_store.key_hex key) with
            | Some (b, labels) when b == bundle -> Some labels
            | _ -> None
          in
          let cfg0 =
            Config.random_ids (Random.State.make [| job.Manifest.seed |]) g0
          in
          (* ids depend on n and the seed only; n is invariant under
             edge edits, so the assignment is reused verbatim — the
             same ids a fresh engine run of the edited graph draws *)
          let ids = Array.init n (Config.id cfg0) in
          let cur_graph = ref g0 in
          let cur_rep : Lcp_interval.Representation.t option ref = ref None in
          let cur_labels : I.labeling option ref = ref None in
          let cur_bundle : Bundle.t option ref = ref None in
          (* the step pipeline; effect-free until it returns (state
             commits only with a report), so retries rerun it whole *)
          let exec_once ~full ~id (delta : Incr.delta) :
              Stats.job_report * patch_info =
            let t0 = Timing.now_ms () in
            let g0 = !cur_graph in
            let g1 = Timing.time timing Timing.Parse (fun () -> Incr.apply g0 delta) in
            let n = Graph.n g1 and m = Graph.m g1 in
            (* same n, same seed-drawn ids — the assignment a fresh
               engine run of this very graph would use *)
            let cfg1 = Config.make ~ids g1 in
            let key =
              Cert_store.key ~property:job.Manifest.property ~k:job.Manifest.k g1
            in
            let store = Engine.store engine in
            (* transplant-else-fresh, the session's representation
               policy: deterministic in the edit stream, so full and
               incremental runs of one stream agree byte-for-byte *)
            let make_rep () =
              match !cur_rep with
              | None -> (fresh_rep g1, false)
              | Some rep -> (
                  match Incr.transplant rep g1 with
                  | Ok rep1 -> (rep1, true)
                  | Error _ -> (fresh_rep g1, false))
            in
            let commit ~graph ~rep ~labels ~bundle =
              cur_graph := graph;
              cur_rep := rep;
              cur_labels := labels;
              cur_bundle := bundle
            in
            let base ?(n = n) ?(m = m) status = base_report job ~id ~n ~m ~t0 status in
            let info =
              {
                (no_info "none") with
                pi_edits = Incr.delta_size delta;
              }
            in
            (* 1. cache tier: decode + full re-verify before serving,
               exactly the engine's warm-hit discipline — a hit also
               becomes the next verified splice baseline *)
            let cached =
              match
                Timing.time timing Timing.Store (fun () -> Cert_store.find store key)
              with
              | None -> None
              | Some entry -> (
                  let decoded_labels =
                    match recall key entry.Cert_store.e_bundle with
                    | Some labels -> Ok labels
                    | None ->
                        Bundle.decode ~decode_label g1 entry.Cert_store.e_bundle
                  in
                  match decoded_labels with
                  | Error e ->
                      Cert_store.remove store key;
                      Some (Error [ "bundle: " ^ e ])
                  | Ok labels -> (
                      let tv = Timing.now_ms () in
                      match
                        Timing.time timing Timing.Verify (fun () ->
                            Scheme.run_edge cfg1 scheme labels)
                      with
                      | Scheme.Accepted ->
                          remember key entry.Cert_store.e_bundle labels;
                          Some (Ok (entry, labels, Timing.now_ms () -. tv))
                      | Scheme.Rejected rs ->
                          Cert_store.remove store key;
                          Some
                            (Error
                               (List.sort_uniq compare
                                  (List.map
                                     (fun (_, reason) ->
                                       Lcp_cert.Reject_reason.classify reason)
                                     rs)))))
            in
            match cached with
            | Some (Ok (entry, labels, verify_ms)) ->
                let rep1, _ = make_rep () in
                commit ~graph:g1 ~rep:(Some rep1) ~labels:(Some labels)
                  ~bundle:(Some entry.Cert_store.e_bundle);
                ( {
                    (base Stats.Served_cached) with
                    r_cache_hit = true;
                    r_verify_ms = verify_ms;
                    r_label_bits = entry.Cert_store.e_label_bits;
                    r_bundle_bits = Bundle.size_bits entry.Cert_store.e_bundle;
                    r_total_ms = Timing.now_ms () -. t0;
                  },
                  { info with pi_mode = "cached"; pi_verified = n } )
            | (None | Some (Error _)) as cache_outcome -> (
                let reject_reasons =
                  match cache_outcome with Some (Error rs) -> rs | _ -> []
                in
                (* 2. fresh path: transplant, patch-prove, splice,
                   localized verify, store *)
                let tp = Timing.now_ms () in
                let hit0, miss0 = memo_totals () in
                let patched =
                  Timing.time timing Timing.Prove (fun () ->
                      let rep1, transplanted = make_rep () in
                      let prev = if full then None else !cur_labels in
                      ( I.patch_labels ~rep:rep1 ~prev ~delta cfg1,
                        rep1,
                        transplanted,
                        prev <> None ))
                in
                let prove_ms = Timing.now_ms () -. tp in
                let hit1, miss1 = memo_totals () in
                let outcome, rep1, transplanted, spliced = patched in
                let mode =
                  if full then "full"
                  else if not spliced then "rebuilt"
                  else if transplanted then "patched"
                  else "rebuilt"
                in
                let info =
                  {
                    info with
                    pi_mode = mode;
                    pi_memo_hits = hit1 - hit0;
                    pi_memo_misses = miss1 - miss0;
                  }
                in
                match outcome with
                | Error _ ->
                    (* empty/disconnected: the prover declines, as the
                       engine's fresh path would *)
                    commit ~graph:g1 ~rep:(Some rep1) ~labels:None ~bundle:None;
                    ( {
                        (base Stats.Declined) with
                        r_prove_ms = prove_ms;
                        r_reject_reasons = reject_reasons;
                        r_total_ms = Timing.now_ms () -. t0;
                      },
                      info )
                | Ok patch ->
                    let info =
                      {
                        info with
                        pi_dirty_windows = patch.I.p_dirty_windows;
                        pi_changed = patch.I.p_changed;
                        pi_reused = patch.I.p_reused;
                      }
                    in
                    if not patch.I.p_holds then begin
                      commit ~graph:g1 ~rep:(Some rep1) ~labels:None ~bundle:None;
                      ( {
                          (base Stats.Declined) with
                          r_prove_ms = prove_ms;
                          r_reject_reasons = reject_reasons;
                          r_total_ms = Timing.now_ms () -. t0;
                        },
                        info )
                    end
                    else begin
                      match
                        Timing.time timing Timing.Encode (fun () ->
                            Bundle.encode ~encode_label:scheme.Scheme.es_encode
                              g1 patch.I.p_labels)
                      with
                      | Error e ->
                          commit ~graph:g1 ~rep:(Some rep1) ~labels:None
                            ~bundle:None;
                          ( {
                              (base (Stats.Unsound e)) with
                              r_prove_ms = prove_ms;
                              r_total_ms = Timing.now_ms () -. t0;
                            },
                            info )
                      | Ok bundle -> (
                          let verify_set =
                            if spliced then patch.I.p_verify else []
                          in
                          let tv = Timing.now_ms () in
                          let verdict =
                            Timing.time timing Timing.Verify (fun () ->
                                match verify_set with
                                | [] -> Scheme.run_edge cfg1 scheme patch.I.p_labels
                                | vs ->
                                    Scheme.run_edge_on cfg1 scheme
                                      patch.I.p_labels vs)
                          in
                          let verify_ms = Timing.now_ms () -. tv in
                          let info =
                            {
                              info with
                              pi_verified =
                                (match verify_set with
                                | [] -> n
                                | vs -> List.length vs);
                            }
                          in
                          match verdict with
                          | Scheme.Rejected rs ->
                              let reasons =
                                List.sort_uniq compare
                                  (List.map
                                     (fun (_, reason) ->
                                       Lcp_cert.Reject_reason.classify reason)
                                     rs)
                              in
                              commit ~graph:g1 ~rep:(Some rep1) ~labels:None
                                ~bundle:None;
                              ( {
                                  (base
                                     (Stats.Unsound
                                        (Printf.sprintf
                                           "patched bundle rejected locally: %s"
                                           (String.concat ", " reasons))))
                                  with
                                  r_prove_ms = prove_ms;
                                  r_verify_ms = verify_ms;
                                  r_reject_reasons = reject_reasons;
                                  r_total_ms = Timing.now_ms () -. t0;
                                },
                                info )
                          | Scheme.Accepted ->
                              let label_bits =
                                Scheme.max_edge_label_bits scheme patch.I.p_labels
                              in
                              remember key bundle patch.I.p_labels;
                              Timing.time timing Timing.Store (fun () ->
                                  Cert_store.add store
                                    {
                                      Cert_store.e_key = key;
                                      e_bundle = bundle;
                                      e_label_bits = label_bits;
                                    });
                              commit ~graph:g1 ~rep:(Some rep1)
                                ~labels:(Some patch.I.p_labels)
                                ~bundle:(Some bundle);
                              ( {
                                  (base Stats.Served_fresh) with
                                  r_prove_ms = prove_ms;
                                  r_verify_ms = verify_ms;
                                  r_label_bits = label_bits;
                                  r_bundle_bits = Bundle.size_bits bundle;
                                  r_reject_reasons = reject_reasons;
                                  r_total_ms = Timing.now_ms () -. t0;
                                },
                                info )
                        )
                    end)
          in
          let exec ~retry ~full ~id delta =
            Engine.run_delta_job ?retry engine ~job_id:id
              ~property:job.Manifest.property ~k:job.Manifest.k
              ~fallback_info:(no_info "none") (fun ~attempt:_ ->
                exec_once ~full ~id delta)
          in
          let session =
            {
              s_job = job;
              s_edits = 0;
              s_graph = (fun () -> !cur_graph);
              s_bundle = (fun () -> !cur_bundle);
              s_exec = exec;
            }
          in
          let report, info =
            exec ~retry ~full:false ~id:job.Manifest.job_id Incr.empty_delta
          in
          let info =
            if info.pi_mode = "rebuilt" then { info with pi_mode = "open" }
            else info
          in
          Ok (session, report, info))

(** Apply one delta (already parsed) to the session. A malformed delta
    (self-loop, out-of-range vertex, add∩del conflict) is an
    [Input_error] and leaves the graph untouched; a well-formed one
    advances it whatever the verdict. [full] forces the from-scratch
    comparator path. *)
let step_delta ?retry s ~full (d : Incr.delta) =
  s.s_edits <- s.s_edits + 1;
  let id = Printf.sprintf "%s#e%04d" s.s_job.Manifest.job_id s.s_edits in
  match Incr.normalize (s.s_graph ()) d with
  | Error e ->
      ( base_report s.s_job ~id
          ~n:(Graph.n (s.s_graph ()))
          ~m:(Graph.m (s.s_graph ()))
          ~t0:(Timing.now_ms ())
          (Stats.Input_error e),
        no_info "none" )
  | Ok d -> s.s_exec ~retry ~full ~id d

(** Parse and apply one textual edit line ("add=0-1,2-3 del=4-5"). *)
let step ?retry s ~full ops =
  match Incr.parse_delta ops with
  | Error e ->
      s.s_edits <- s.s_edits + 1;
      let id = Printf.sprintf "%s#e%04d" s.s_job.Manifest.job_id s.s_edits in
      ( base_report s.s_job ~id
          ~n:(Graph.n (s.s_graph ()))
          ~m:(Graph.m (s.s_graph ()))
          ~t0:(Timing.now_ms ())
          (Stats.Input_error e),
        no_info "none" )
  | Ok d -> step_delta ?retry s ~full d

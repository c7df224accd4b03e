(** The content-addressed certificate store. A key is the canonical bit
    encoding of (property, k, graph) hashed with 64-bit FNV-1a
    ([Lcp_util.Hash64]); the canonical bytes travel with the key, and
    every lookup compares them, so a hash collision degrades to a miss
    instead of serving a bundle for the wrong instance.

    The in-memory tier is a bounded LRU (hashtable + intrusive doubly
    linked list, O(1) hit/insert/evict). An optional on-disk tier
    persists encoded bundles as [<hex-hash>.cert] files; entries evicted
    from memory remain loadable from disk, and disk loads re-check the
    canonical bytes too.

    All disk I/O goes through an injectable [Blob_io.t], and the disk
    tier is {e survivable} by construction:

    - every record carries an FNV-1a checksum over its header fields and
      payload, verified {e before} any decode — torn writes and bit rot
      are detected, counted as [corrupt], and the file is moved to
      [quarantine/] for post-mortem instead of silently deleted;
    - records are written tmp-then-rename; orphaned [.tmp] files left by
      a crash are swept (and counted) when the store is reopened;
    - the disk tier has an optional capacity ([disk_cap] records),
      enforced by LRU-by-mtime GC (disk hits touch the file's mtime);
    - a disk fault ([Sys_error]) never escapes the store: it is counted
      in [disk_errors], and [degrade_after] consecutive failures demote
      the store to memory-only ([degraded]) — the service keeps
      answering, just without persistence. A simulated crash
      ([Blob_io.Crashed]) {e does} propagate, by design.

    Two scale controls sit in front of and behind the disk tier:

    - a {e negative-lookup filter} ([Lcp_util.Negf], a blocked Bloom
      filter over the key hashes this process has written or seeded
      from the directory) lets guaranteed-miss lookups skip the
      filesystem probe entirely; it has no false negatives within a
      process, and across processes a stale "absent" only costs a
      recompute of a byte-identical content-addressed record;
    - {e group commit} ([write_batch] > 1): admitted records pool in a
      bounded dirty set and are written tmp-then-rename in one burst
      with a single directory fsync per batch. A crash loses at most
      the unflushed tail (future cache misses, never corruption); a
      torn record inside a batch is caught by its checksum like any
      other.

    Soundness note: the store caches {e bytes}, never trust. The
    checksum defends availability (detect corruption before decode);
    the engine still decodes and locally re-verifies every bundle it
    serves from here, so even a checksum collision cannot change a
    judgement. *)

module Hash64 = Lcp_util.Hash64
module Bitenc = Lcp_util.Bitenc
module Graph = Lcp_graph.Graph
module Blob = Blob_io

type key = { hash : Hash64.t; canon : Bytes.t }

let key ~property ~k g =
  let w = Bitenc.writer () in
  Bitenc.varint w (String.length property);
  String.iter (fun c -> Bitenc.bits w ~width:8 (Char.code c)) property;
  Bitenc.varint w k;
  Bitenc.varint w (Graph.n g);
  Bitenc.varint w (Graph.m g);
  (* edges in canonical order, delta-coded on the tail vertex *)
  let _ =
    Graph.fold_edges
      (fun (u, v) prev_u ->
        Bitenc.varint w (u - prev_u);
        Bitenc.varint w v;
        u)
      g 0
  in
  let canon = Bitenc.to_bytes w in
  { hash = Hash64.of_bytes canon; canon }

let key_hex key = Hash64.to_hex key.hash

type entry = {
  e_key : key;
  e_bundle : Bundle.t;
  e_label_bits : int;  (** max bits of a single edge label, for stats *)
}

(* ---------------------------------------------------------------- *)
(* LRU list                                                          *)

type node = {
  mutable entry : entry;
  mutable prev : node option;
  mutable next : node option;
}

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable disk_loads : int;
  mutable drops : int;  (** entries removed after failing re-verification *)
  mutable disk_errors : int;  (** Sys_errors absorbed at the store boundary *)
  mutable corrupt : int;  (** records failing checksum/parse before decode *)
  mutable quarantined : int;  (** corrupt records moved to quarantine/ *)
  mutable orphans_swept : int;  (** .tmp files removed on create *)
  mutable gc_evictions : int;  (** disk records removed by capacity GC *)
  mutable quarantine_evictions : int;
      (** quarantined records dropped by the quarantine capacity cap *)
  mutable filter_hits : int;
      (** disk probes the negative-lookup filter let through that found
          a record *)
  mutable filter_skips : int;
      (** filesystem probes skipped because the filter proved the key
          was never written by this process *)
  mutable filter_fps : int;
      (** filter said "maybe" but the probe found nothing: false
          positives (includes keys removed/GCed after insertion) *)
  mutable flushes : int;  (** group commits of the batched write path *)
}

(** A fresh all-zero counter record (fresh, because the fields are
    mutable). *)
let zero_stats () =
  {
    hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
    disk_loads = 0;
    drops = 0;
    disk_errors = 0;
    corrupt = 0;
    quarantined = 0;
    orphans_swept = 0;
    gc_evictions = 0;
    quarantine_evictions = 0;
    filter_hits = 0;
    filter_skips = 0;
    filter_fps = 0;
    flushes = 0;
  }

(** The counters by name, in the order the [store:] footer line prints
    them: the form in which they ride the timing sink to an operator. *)
let counters s =
  [
    ("hits", s.hits);
    ("misses", s.misses);
    ("insertions", s.insertions);
    ("evictions", s.evictions);
    ("disk_loads", s.disk_loads);
    ("drops", s.drops);
    ("disk_errors", s.disk_errors);
    ("corrupt", s.corrupt);
    ("quarantined", s.quarantined);
    ("quarantine_evictions", s.quarantine_evictions);
    ("orphans_swept", s.orphans_swept);
    ("gc_evictions", s.gc_evictions);
    ("filter_hits", s.filter_hits);
    ("filter_skips", s.filter_skips);
    ("filter_fps", s.filter_fps);
    ("flushes", s.flushes);
  ]

let counter_names = List.map fst (counters (zero_stats ()))

type t = {
  cap : int;
  dir : string option;
  io : Blob.t;
  disk_cap : int;  (** max .cert files on disk; <= 0 means unbounded *)
  quarantine_cap : int;  (** max files kept in quarantine/; <= 0 unbounded *)
  degrade_after : int;
  write_batch : int;  (** group-commit size; <= 1 writes through *)
  mutable degraded : bool;
  mutable disk_failures_in_row : int;
  table : (Hash64.t, node) Hashtbl.t;
  mutable first : node option; (* most recently used *)
  mutable last : node option; (* least recently used *)
  (* group-commit dirty set: entries admitted to the disk tier but not
     yet written. [dirty_q] remembers insertion order so a flush
     commits records in admission order; superseded/removed hashes are
     skipped at flush time. Bounded by [write_batch]. *)
  dirty : (Hash64.t, entry) Hashtbl.t;
  dirty_q : Hash64.t Queue.t;
  (* negative-lookup filter over every key this process has written to
     (or seeded from) the disk tier; [None] when the filter is
     disabled or there is no disk tier *)
  filter : Lcp_util.Negf.t option;
  stats : stats;
}

(* creation failures must be loud and immediate: a store that cannot
   make its directory would otherwise fail later with a baffling rename
   error on the first write *)
let mkdir_p io d =
  let rec go d =
    if not (io.Blob.file_exists d) then begin
      let parent = Filename.dirname d in
      if parent <> d then go parent;
      io.Blob.mkdir d
    end
    else if not (io.Blob.is_directory d) then
      raise (Sys_error (d ^ ": exists but is not a directory"))
  in
  go d

let disk_error t =
  t.stats.disk_errors <- t.stats.disk_errors + 1;
  t.disk_failures_in_row <- t.disk_failures_in_row + 1;
  if (not t.degraded) && t.disk_failures_in_row >= t.degrade_after then
    t.degraded <- true

let disk_ok t = t.disk_failures_in_row <- 0

let is_tmp f = Filename.check_suffix f ".tmp"

let sweep_orphans t dir =
  try
    Array.iter
      (fun f ->
        if is_tmp f then begin
          t.io.Blob.remove (Filename.concat dir f);
          t.stats.orphans_swept <- t.stats.orphans_swept + 1
        end)
      (t.io.Blob.list_dir dir)
  with Sys_error _ -> disk_error t

(* Seed the negative-lookup filter from the records already on disk:
   file names are the hex key hashes, so a directory listing is enough
   — no record is opened. Records written later by sibling workers
   sharing this directory are invisible to the filter; skipping their
   probe only costs a recompute of byte-identical content-addressed
   records, never a judgement (see the soundness note above). *)
let seed_filter t dir filter =
  try
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".cert" then
          match Hash64.of_hex (Filename.chop_suffix f ".cert") with
          | Some h -> Lcp_util.Negf.add filter h
          | None -> ())
      (t.io.Blob.list_dir dir)
  with Sys_error _ -> disk_error t

let create ?(cap = 4096) ?dir ?(disk_cap = 0) ?(quarantine_cap = 64)
    ?(degrade_after = 3) ?(write_batch = 1) ?(filter_bits = 1 lsl 17)
    ?(io = Blob.real) () =
  if cap < 1 then invalid_arg "Cert_store.create: cap must be >= 1";
  if degrade_after < 1 then
    invalid_arg "Cert_store.create: degrade_after must be >= 1";
  (match dir with
  | Some d -> (
      try mkdir_p io d
      with Sys_error e ->
        raise
          (Sys_error
             (Printf.sprintf
                "Cert_store.create: cannot create cache directory %S: %s" d e)))
  | None -> ());
  let filter =
    match dir with
    | Some _ when filter_bits > 0 -> Some (Lcp_util.Negf.create ~bits:filter_bits ())
    | _ -> None
  in
  let t =
    {
      cap;
      dir;
      io;
      disk_cap;
      quarantine_cap;
      degrade_after;
      write_batch = max 1 write_batch;
      degraded = false;
      disk_failures_in_row = 0;
      table = Hashtbl.create 64;
      first = None;
      last = None;
      dirty = Hashtbl.create 64;
      dirty_q = Queue.create ();
      filter;
      stats = zero_stats ();
    }
  in
  (match dir with
  | Some d ->
      sweep_orphans t d;
      (match filter with Some f -> seed_filter t d f | None -> ())
  | None -> ());
  t

let size t = Hashtbl.length t.table

let stats t = t.stats

let degraded t = t.degraded

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.first <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.last <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.first;
  node.prev <- None;
  (match t.first with Some f -> f.prev <- Some node | None -> t.last <- Some node);
  t.first <- Some node

(* ---------------------------------------------------------------- *)
(* on-disk tier                                                      *)

let magic = "LCPCERT1"

let entry_path dir key = Filename.concat dir (key_hex key ^ ".cert")

let quarantine_dir dir = Filename.concat dir "quarantine"

(* the checksum covers the header's structural fields and the whole
   payload, so any single corrupted bit — header or body — is caught
   before a decoder ever runs *)
let record_sum ~canon ~bits ~label_bits ~(payload : Bytes.t) =
  Hash64.init
  |> Fun.flip Hash64.int (Bytes.length canon)
  |> Fun.flip Hash64.int bits
  |> Fun.flip Hash64.int label_bits
  |> Fun.flip Hash64.bytes canon
  |> Fun.flip Hash64.bytes payload

let record_string entry =
  let canon = entry.e_key.canon in
  let bits = Bundle.size_bits entry.e_bundle in
  let payload = entry.e_bundle.Bundle.bytes in
  let sum = record_sum ~canon ~bits ~label_bits:entry.e_label_bits ~payload in
  let b = Buffer.create (64 + Bytes.length canon + Bytes.length payload) in
  Buffer.add_string b magic;
  Buffer.add_string b
    (Printf.sprintf "\ncanon=%d bits=%d labelbits=%d sum=%s\n"
       (Bytes.length canon) bits entry.e_label_bits (Hash64.to_hex sum));
  Buffer.add_bytes b canon;
  Buffer.add_bytes b payload;
  Buffer.contents b

(* [Ok (Some e)]: sound record for [key]. [Ok None]: intact record for a
   different instance (hash collision) — a miss, not corruption.
   [Error reason]: torn/corrupt record; quarantine it. *)
let parse_record key s =
  let ml = String.length magic in
  if String.length s < ml + 1 then Error "truncated magic"
  else if String.sub s 0 ml <> magic || s.[ml] <> '\n' then Error "bad magic"
  else
    match String.index_from_opt s (ml + 1) '\n' with
    | None -> Error "truncated header"
    | Some nl -> (
        let header = String.sub s (ml + 1) (nl - ml - 1) in
        match
          Scanf.sscanf_opt header "canon=%d bits=%d labelbits=%d sum=%s%!"
            (fun a b c d -> (a, b, c, d))
        with
        | None -> Error ("bad header " ^ String.escaped header)
        | Some (canon_len, bits, label_bits, sum_hex) -> (
            match Hash64.of_hex sum_hex with
            | None -> Error ("bad checksum field " ^ String.escaped sum_hex)
            | Some sum ->
                let body = nl + 1 in
                if canon_len < 0 || bits < 0 || label_bits < 0 then
                  Error "negative header field"
                else
                  let nbytes = (bits + 7) / 8 in
                  if String.length s - body <> canon_len + nbytes then
                    Error
                      (Printf.sprintf
                         "payload is %d bytes but the header promises %d"
                         (String.length s - body)
                         (canon_len + nbytes))
                  else
                    let canon = Bytes.of_string (String.sub s body canon_len) in
                    let payload =
                      Bytes.of_string (String.sub s (body + canon_len) nbytes)
                    in
                    if
                      not
                        (Hash64.equal sum
                           (record_sum ~canon ~bits ~label_bits ~payload))
                    then Error "checksum mismatch"
                    else if not (Bytes.equal canon key.canon) then Ok None
                    else
                      Ok
                        (Some
                           {
                             e_key = key;
                             e_bundle = { Bundle.bytes = payload; bits };
                             e_label_bits = label_bits;
                           })))

(* quarantine is post-mortem evidence, not a cache: on a box taking
   sustained corruption (bad disk, bad RAM) it would otherwise grow one
   file per fault, forever. It gets the same LRU-by-mtime cap discipline
   as the live tier — oldest debris goes first, every drop is counted. *)
let gc_quarantine t dir =
  if t.quarantine_cap > 0 then begin
    try
      let qdir = quarantine_dir dir in
      let files = Array.to_list (t.io.Blob.list_dir qdir) in
      let excess = List.length files - t.quarantine_cap in
      if excess > 0 then begin
        let victims =
          List.filter_map
            (fun f ->
              match t.io.Blob.mtime (Filename.concat qdir f) with
              | m -> Some (m, f)
              | exception Sys_error _ -> None)
            files
          |> List.sort compare
        in
        List.iteri
          (fun i (_, f) ->
            if i < excess then begin
              t.io.Blob.remove (Filename.concat qdir f);
              t.stats.quarantine_evictions <- t.stats.quarantine_evictions + 1
            end)
          victims
      end
    with Sys_error _ -> disk_error t
  end

let quarantine t dir path =
  t.stats.corrupt <- t.stats.corrupt + 1;
  try
    let qdir = quarantine_dir dir in
    if not (t.io.Blob.file_exists qdir) then t.io.Blob.mkdir qdir;
    t.io.Blob.rename path
      (Filename.concat qdir
         (Printf.sprintf "%s.%d" (Filename.basename path) t.stats.corrupt));
    t.stats.quarantined <- t.stats.quarantined + 1;
    gc_quarantine t dir
  with Sys_error _ -> disk_error t

(* capacity GC: keep at most [disk_cap] records, dropping the ones with
   the oldest mtime first (disk hits touch their record, so mtime order
   is LRU order). The record just written is never a GC victim. *)
let gc_disk t dir ~keep =
  if t.disk_cap > 0 then begin
    try
      let certs =
        Array.to_list (t.io.Blob.list_dir dir)
        |> List.filter (fun f -> Filename.check_suffix f ".cert")
      in
      let excess = List.length certs - t.disk_cap in
      if excess > 0 then begin
        let victims =
          List.filter_map
            (fun f ->
              if f = keep then None
              else
                match t.io.Blob.mtime (Filename.concat dir f) with
                | m -> Some (m, f)
                | exception Sys_error _ -> None)
            certs
          |> List.sort compare
        in
        List.iteri
          (fun i (_, f) ->
            if i < excess then begin
              t.io.Blob.remove (Filename.concat dir f);
              t.stats.gc_evictions <- t.stats.gc_evictions + 1
            end)
          victims
      end
    with Sys_error _ -> disk_error t
  end

(* One record to disk, no GC: returns the basename on success so the
   caller can protect it from the capacity GC it runs afterwards. *)
let write_record t dir entry =
  let path = entry_path dir entry.e_key in
  (* the tmp name carries the pid so concurrent workers sharing this
     disk tier (Pool) never interleave writes inside one tmp file; the
     final rename stays the single atomic commit point *)
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  try
    t.io.Blob.write_file tmp (record_string entry);
    t.io.Blob.rename tmp path;
    disk_ok t;
    Some (Filename.basename path)
  with Sys_error _ ->
    (* best-effort cleanup of a half-written tmp; never fatal *)
    (try t.io.Blob.remove tmp with Sys_error _ -> ());
    disk_error t;
    None

let write_disk t dir entry =
  match write_record t dir entry with
  | Some keep -> gc_disk t dir ~keep
  | None -> ()

(* Group commit: drain the dirty set in admission order — each record
   still goes tmp-then-rename, so a fault mid-flush tears at most the
   record being renamed (caught by its checksum on read) — then pay a
   single directory fsync for the whole batch and one capacity-GC
   pass. A store demoted to memory-only drops its dirty set: those
   entries survive in the memory tier and their loss costs only future
   cache misses. *)
let flush t =
  match t.dir with
  | Some dir when (not t.degraded) && not (Queue.is_empty t.dirty_q) ->
      let last_written = ref None in
      while not (Queue.is_empty t.dirty_q) do
        let h = Queue.pop t.dirty_q in
        match Hashtbl.find_opt t.dirty h with
        | None -> () (* superseded or removed while dirty *)
        | Some entry -> (
            Hashtbl.remove t.dirty h;
            match write_record t dir entry with
            | Some keep -> last_written := Some keep
            | None -> ())
      done;
      (match !last_written with
      | Some keep ->
          (* the renames above are atomic but only as durable as the
             page cache; one directory fsync commits them all *)
          (try t.io.Blob.sync dir with Sys_error _ -> disk_error t);
          t.stats.flushes <- t.stats.flushes + 1;
          gc_disk t dir ~keep
      | None -> ())
  | _ ->
      Hashtbl.reset t.dirty;
      Queue.clear t.dirty_q

let read_disk t dir key =
  let path = entry_path dir key in
  if not (t.io.Blob.file_exists path) then None
  else
    match t.io.Blob.read_file path with
    | exception Sys_error _ ->
        disk_error t;
        None
    | s -> (
        match parse_record key s with
        | Ok (Some e) ->
            disk_ok t;
            (try t.io.Blob.touch path with Sys_error _ -> ());
            Some e
        | Ok None -> None (* intact record for another instance: a miss *)
        | Error _reason ->
            quarantine t dir path;
            None)

(* ---------------------------------------------------------------- *)
(* the store proper                                                  *)

let evict_overflow t =
  while Hashtbl.length t.table > t.cap do
    match t.last with
    | None -> assert false
    | Some node ->
        unlink t node;
        Hashtbl.remove t.table node.entry.e_key.hash;
        t.stats.evictions <- t.stats.evictions + 1
  done

let add t entry =
  (match Hashtbl.find_opt t.table entry.e_key.hash with
  | Some node ->
      node.entry <- entry;
      unlink t node;
      push_front t node
  | None ->
      let node = { entry; prev = None; next = None } in
      Hashtbl.replace t.table entry.e_key.hash node;
      push_front t node;
      t.stats.insertions <- t.stats.insertions + 1;
      evict_overflow t);
  match t.dir with
  | Some dir when not t.degraded ->
      (* the filter tracks admission, not durability: a failed write
         leaves a stale positive, which only costs a wasted probe *)
      (match t.filter with
      | Some f -> Lcp_util.Negf.add f entry.e_key.hash
      | None -> ());
      if t.write_batch <= 1 then write_disk t dir entry
      else begin
        if not (Hashtbl.mem t.dirty entry.e_key.hash) then
          Queue.push entry.e_key.hash t.dirty_q;
        Hashtbl.replace t.dirty entry.e_key.hash entry;
        if Hashtbl.length t.dirty >= t.write_batch then flush t
      end
  | _ -> ()

let find t key =
  match Hashtbl.find_opt t.table key.hash with
  | Some node when Bytes.equal node.entry.e_key.canon key.canon ->
      unlink t node;
      push_front t node;
      t.stats.hits <- t.stats.hits + 1;
      Some node.entry
  | Some _ ->
      (* same hash, different instance: a collision behaves as a miss *)
      t.stats.misses <- t.stats.misses + 1;
      None
  | None -> (
      match t.dir with
      | Some dir when not t.degraded -> (
          let install entry =
            let node = { entry; prev = None; next = None } in
            Hashtbl.replace t.table key.hash node;
            push_front t node;
            evict_overflow t;
            Some entry
          in
          (* evicted from memory while still awaiting its group commit:
             serve straight from the dirty set, no filesystem touched *)
          match Hashtbl.find_opt t.dirty key.hash with
          | Some entry when Bytes.equal entry.e_key.canon key.canon ->
              t.stats.hits <- t.stats.hits + 1;
              install entry
          | _ -> (
              let probe =
                match t.filter with
                | None -> true
                | Some f ->
                    if Lcp_util.Negf.mem f key.hash then true
                    else begin
                      t.stats.filter_skips <- t.stats.filter_skips + 1;
                      false
                    end
              in
              if not probe then begin
                t.stats.misses <- t.stats.misses + 1;
                None
              end
              else
                match read_disk t dir key with
                | Some entry ->
                    (match t.filter with
                    | Some _ ->
                        t.stats.filter_hits <- t.stats.filter_hits + 1
                    | None -> ());
                    t.stats.disk_loads <- t.stats.disk_loads + 1;
                    t.stats.hits <- t.stats.hits + 1;
                    install entry
                | None ->
                    (match t.filter with
                    | Some _ -> t.stats.filter_fps <- t.stats.filter_fps + 1
                    | None -> ());
                    t.stats.misses <- t.stats.misses + 1;
                    None))
      | _ ->
          t.stats.misses <- t.stats.misses + 1;
          None)

let remove t key =
  (match Hashtbl.find_opt t.table key.hash with
  | Some node ->
      unlink t node;
      Hashtbl.remove t.table key.hash;
      t.stats.drops <- t.stats.drops + 1
  | None -> ());
  (* a pending dirty entry must not be resurrected by a later flush;
     its queue slot stays behind and is skipped at flush time *)
  Hashtbl.remove t.dirty key.hash;
  match t.dir with
  | Some dir when not t.degraded -> (
      let path = entry_path dir key in
      try if t.io.Blob.file_exists path then t.io.Blob.remove path
      with Sys_error _ -> disk_error t)
  | _ -> ()

(** The persisted records of the disk tier as (file name, content hash)
    pairs, sorted by name — the "hash set of stored records" any two
    runs of the same workload must agree on, however the work was
    sharded. Quarantined records and [.tmp] orphans are excluded: they
    are fault debris, not served state. Diagnostic helper — unlike the
    serving path it lets [Sys_error] escape, because a determinism
    check that silently skipped unreadable records would be vacuous. *)
let disk_snapshot t =
  flush t;
  match t.dir with
  | None -> []
  | Some dir ->
      Array.to_list (t.io.Blob.list_dir dir)
      |> List.filter (fun f -> Filename.check_suffix f ".cert")
      |> List.map (fun f ->
             (f, Hash64.of_string (t.io.Blob.read_file (Filename.concat dir f))))
      |> List.sort compare

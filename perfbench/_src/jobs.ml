(* The benchmark's own inputs: graphs, jobs and manifests, all drawn
   here and never by the program's generators of workloads. The program
   receives only manifest lines; the graphs of the light mix reach it as
   DIMACS files the benchmark writes, so the benchmark knows every edge
   and can judge each outcome without the program's code (truth.ml). *)

type graph = { gn : int; edges : (int * int) array  (** u < v *) }

type source =
  | Gen of { family : string; n : int; gseed : int }
      (** a family of the program's generator, with a known answer *)
  | File of { path : string; g : graph }  (** relative to the work dir *)
  | Bad of string  (** the source tokens of a job the engine must refuse *)

type job = {
  id : string;
  source : source;
  property : string;
  k : int;
  seed : int;  (** identifier seed: draws the network's identifiers *)
}

let line j =
  let src =
    match j.source with
    | Gen { family; n; gseed } -> Printf.sprintf "gen=%s n=%d gseed=%d" family n gseed
    | File { path; _ } -> "file=" ^ path
    | Bad s -> s
  in
  Printf.sprintf "id=%s %s property=%s k=%d seed=%d" j.id src j.property j.k
    j.seed

let manifest jobs =
  let b = Buffer.create (80 * Array.length jobs) in
  Array.iter
    (fun j ->
      Buffer.add_string b (line j);
      Buffer.add_char b '\n')
    jobs;
  Buffer.contents b

let dimacs g =
  let b = Buffer.create (16 * (Array.length g.edges + 1)) in
  Printf.bprintf b "p edge %d %d\n" g.gn (Array.length g.edges);
  Array.iter (fun (u, v) -> Printf.bprintf b "e %d %d\n" (u + 1) (v + 1)) g.edges;
  Buffer.contents b

(* write every file-backed graph of [jobs] under [work] (once each) *)
let write_graphs ~work jobs =
  Array.iter
    (fun j ->
      match j.source with
      | File { path; g } ->
          let f = Filename.concat work path in
          if not (Sys.file_exists f) then begin
            Util.mkdir_p (Filename.dirname f);
            Util.write_file f (dimacs g)
          end
      | Gen _ | Bad _ -> ())
    jobs

(* Fisher-Yates with the benchmark's own generator state *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ---------------------------------------------------------------- *)
(* cold_prove: a fixed catalogue of distinct cold graphs              *)

(* (family, n, copies, property, k). The copies of a class halve as n
   doubles, so every size class costs a round about the same time and
   no job is more than about a sixth of a round. Path, caterpillar and
   ladder copies get lengths jittered by a few vertices, random
   pathwidth-2 copies their own fixed generator seed, so every job of a
   round has its own store key. The timed ladder stops at n = 512: with
   the n = 1024 rung certd's heap grows to 225 MB, and the latency tail,
   those jobs alone, moved by 0.16-0.34 of its median between sets of
   runs as the host's memory contention came and went; the traced run
   certifies that rung ([growth_jobs]). *)
let cold_classes =
  [
    ("path", 128, 9, "connected", 1);
    ("path", 256, 4, "connected", 1);
    ("path", 512, 2, "connected", 1);
    ("random", 128, 7, "connected", 2);
    ("random", 256, 3, "connected", 2);
    ("random", 512, 2, "connected", 2);
    ("caterpillar", 256, 2, "triangle_free", 1);
    ("caterpillar", 512, 1, "triangle_free", 1);
    ("ladder", 256, 2, "bipartite", 2);
    ("ladder", 512, 1, "bipartite", 2);
  ]

(* identifier seeds per catalogue job; every run uses all of them *)
let id_slots = 3

(* The catalogue as (job index, id prefix, source, property, k). *)
let catalogue =
  List.concat_map
    (fun (family, n, copies, property, k) ->
      List.init copies (fun i ->
          let n, gseed =
            match family with
            | "random" -> (n, 7000 + (17 * n) + i)
            | "caterpillar" -> (n + (3 * i), 0)
            | _ -> (n + (2 * i), 0)
          in
          ( Printf.sprintf "cp-%s-%04d-%d" family n i,
            Gen { family; n; gseed },
            property,
            k )))
    cold_classes
  |> Array.of_list

(* Round [round] of the ladder: every catalogue graph once, in an order
   the workload seed draws, under the identifier seed of slot
   [(round + off) mod id_slots], where the seed draws each graph's
   offset [off]. Any [id_slots] consecutive rounds thus certify every
   graph under every one of its fixed identifier seeds, so the largest
   label of a run of at least [id_slots] rounds is the same for every
   seed; rounds [r] and [r + id_slots] are the same jobs. *)
let cold_round ~seed round =
  let jobs =
    Array.mapi
      (fun j (id, source, property, k) ->
        let slot = (round + (Util.mix seed j mod id_slots)) mod id_slots in
        { id; source; property; k; seed = Util.mix (0x1d5 + j) slot land 0xffffff })
      catalogue
  in
  shuffle (Random.State.make [| 0xc01d; seed; round |]) jobs;
  jobs

(* The n = 1024 rung of the doubling ladder, which only the traced run
   certifies: its growth ratios compare these jobs with the catalogue's
   n = 256 ones. *)
let growth_jobs =
  Array.of_list
    (List.concat_map
       (fun i ->
         [
           { id = Printf.sprintf "gr-path-%04d-%d" (1024 + (2 * i)) i;
             source = Gen { family = "path"; n = 1024 + (2 * i); gseed = 0 };
             property = "connected"; k = 1; seed = 1 + i };
           { id = Printf.sprintf "gr-random-1024-%d" i;
             source = Gen { family = "random"; n = 1024; gseed = 7000 + (17 * 1024) + i };
             property = "connected"; k = 2; seed = 1 + i };
         ])
       [ 0; 1 ])

(* the tiny job each set-up probe of cold_prove runs *)
let cold_probe =
  { id = "probe"; source = Gen { family = "path"; n = 16; gseed = 0 };
    property = "connected"; k = 1; seed = 1 }

(* ---------------------------------------------------------------- *)
(* the light mix: a Zipf stream over a fixed corpus of small graphs   *)

let universe = 2000

let zipf_s = 1.05

let cold_share = 0.01

let invalid_share = 0.002

let seeds_per_graph = 2

(* A connected graph of pathwidth at most [k] on [n] vertices, from an
   interval model of width k + 1: vertices open in order, each new one
   is joined to one open vertex (connectivity) and to each other open
   vertex with probability 0.4, and an open vertex closes at random
   while k + 1 are open. *)
let small_graph rng ~n ~k =
  let edges = ref [] and opened = ref [ 0 ] in
  for v = 1 to n - 1 do
    let live = List.length !opened in
    if live = k + 1 || (live > 1 && Random.State.int rng 3 = 0) then begin
      let drop = List.nth !opened (Random.State.int rng live) in
      opened := List.filter (( <> ) drop) !opened
    end;
    let first = List.nth !opened (Random.State.int rng (List.length !opened)) in
    List.iter
      (fun u ->
        if u = first || Random.State.float rng 1.0 < 0.4 then
          edges := (min u v, max u v) :: !edges)
      !opened;
    opened := v :: !opened
  done;
  let edges = Array.of_list !edges in
  Array.sort compare edges;
  { gn = n; edges }

(* the store identity of a light-mix job: (property, k, edges) *)
let identity ~property ~k g = (property, k, g.gn, g.edges)

type spec = { g : graph; sk : int; sprop : string }

let spec_of rng ~n_max ~props =
  let n = 2 + Random.State.int rng (n_max - 1) in
  let k = 1 + Random.State.int rng 2 in
  { g = small_graph rng ~n ~k; sk = k;
    sprop = List.nth props (Random.State.int rng (List.length props)) }

(* The corpus: [universe] distinct (property, k, graph) triples with
   2 <= n <= 8, the same for every seed; [snd] is the set of their
   identities. *)
let corpus =
  lazy
    (let seen = Hashtbl.create (2 * universe) in
     let out = ref [] and cand = ref 0 in
     while Hashtbl.length seen < universe do
       let rng = Random.State.make [| 0x5a9e; !cand |] in
       incr cand;
       let s = spec_of rng ~n_max:8 ~props:[ "connected"; "perfect_matching" ] in
       let id = identity ~property:s.sprop ~k:s.sk s.g in
       if not (Hashtbl.mem seen id) then begin
         Hashtbl.replace seen id ();
         out := s :: !out
       end
     done;
     (Array.of_list (List.rev !out), seen))

(* the fixed identifier seeds of corpus graph [rank] *)
let corpus_seed rank variant = Util.mix (0x5eed + rank) variant land 0xffffff

let corpus_job ~id ~rank ~variant =
  let s = (fst (Lazy.force corpus)).(rank) in
  { id; source = File { path = Printf.sprintf "g/c%04d.dimacs" rank; g = s.g };
    property = s.sprop; k = s.sk; seed = corpus_seed rank variant }

(* A first touch: a graph outside the corpus with at most 6 vertices
   (fewer than the largest corpus graphs, so it neither sets the run's
   largest label nor sits apart at the latency tail), drawn from the
   seed and its place in the run. It may also ask for bipartiteness. *)
let cold_job ~seed ~id ~draw =
  let rec go attempt =
    let rng = Random.State.make [| 0xf1257; seed; draw; attempt |] in
    let s = spec_of rng ~n_max:6 ~props:[ "connected"; "perfect_matching"; "bipartite" ] in
    if Hashtbl.mem (snd (Lazy.force corpus)) (identity ~property:s.sprop ~k:s.sk s.g)
    then go (attempt + 1)
    else
      { id; source = File { path = Printf.sprintf "g/x%d-%d.dimacs" seed draw; g = s.g };
        property = s.sprop; k = s.sk; seed = Random.State.bits rng land 0xffffff }
  in
  go 0

(* parse-valid jobs the engine must refuse with an input_error *)
let invalid_job ~id kind =
  let source, property =
    match kind mod 3 with
    | 0 -> (Bad "gen=path n=8", "no_such_property")
    | 1 -> (Bad "gen=warp n=8", "connected")
    | _ -> (Bad "file=g/missing.dimacs", "connected")
  in
  { id; source; property; k = 1; seed = 0 }

let zipf_cdf =
  lazy
    (let cdf = Array.make universe 0.0 and acc = ref 0.0 in
     for r = 0 to universe - 1 do
       acc := !acc +. (1.0 /. (float_of_int (r + 1) ** zipf_s));
       cdf.(r) <- !acc
     done;
     cdf)

let zipf_rank rng =
  let cdf = Lazy.force zipf_cdf in
  let target = Random.State.float rng cdf.(universe - 1) in
  let lo = ref 0 and hi = ref (universe - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > target then hi := mid else lo := mid + 1
  done;
  !lo

(* [light_stream ~seed ~tag ~part count]: [count] jobs with ids
   [<tag><part><position>], zero-padded so feed order is id order. The
   seed draws which ranks are asked for, under which of their
   identifier seeds, and where the first touches and invalid jobs fall;
   [part] numbers the streams of one run, so each has fresh first
   touches. *)
let light_stream ~seed ~tag ~part count =
  let rng = Random.State.make [| 0x719a7; seed; Hashtbl.hash tag; part |] in
  Array.init count (fun i ->
      let id = Printf.sprintf "%s%03d-%06d" tag part i in
      let x = Random.State.float rng 1.0 in
      if x < invalid_share then invalid_job ~id (Random.State.bits rng)
      else if x < invalid_share +. cold_share then
        cold_job ~seed ~id ~draw:((part * 1_000_000) + i)
      else
        corpus_job ~id ~rank:(zipf_rank rng)
          ~variant:(Random.State.int rng seeds_per_graph))

(* every corpus graph under every identifier seed, in an order the seed
   draws: the untimed pass that primes the disk tier *)
let light_universe ~seed ~tag =
  let jobs =
    Array.init (universe * seeds_per_graph) (fun i ->
        corpus_job ~id:"" ~rank:(i / seeds_per_graph) ~variant:(i mod seeds_per_graph))
  in
  shuffle (Random.State.make [| 0x9e1; seed |]) jobs;
  Array.mapi (fun i j -> { j with id = Printf.sprintf "%s%06d" tag i }) jobs

(* Poisson arrival offsets (seconds from the schedule's start) at
   [rate] jobs per second: independent users make an open loop *)
let arrivals ~seed ~rate count =
  let rng = Random.State.make [| 0xa771; seed |] in
  let t = ref 0.0 in
  Array.init count (fun _ ->
      t := !t -. (log (1.0 -. Random.State.float rng 1.0) /. rate);
      !t)

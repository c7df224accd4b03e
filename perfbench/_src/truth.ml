(* Independent ground truth for every job, computed without any of the
   program's code:

   - a graph the benchmark wrote itself is judged on its own edges:
     connectivity by BFS, bipartiteness by BFS 2-colouring, a perfect
     matching by exhaustive search (n <= 8 in the light mix);
   - a generated family has a known answer: a path, caterpillar or
     ladder of the program's generator has a known size and is
     connected, bipartite and triangle-free; a random pathwidth-k graph
     is connected by its generator's contract, and its edge count is
     only known to be at least n - 1;
   - a job the engine cannot build, or whose property it does not
     serve, is an input error.

   The prover certifies connected graphs only, so a property of a
   disconnected graph is declined. *)

open Jobs

type t = {
  verdict : string;  (** served | declined | input_error *)
  n : int;
  m : int;  (** -1: at least n - 1, not known exactly *)
}

let served = [ "connected"; "acyclic"; "bipartite"; "triangle_free"; "perfect_matching" ]

let adjacency g =
  let adj = Array.make g.gn [] in
  Array.iter
    (fun (u, v) ->
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v))
    g.edges;
  adj

(* BFS levels from vertex 0; -1 marks an unreached vertex *)
let levels g =
  let adj = adjacency g in
  let d = Array.make g.gn (-1) in
  let q = Queue.create () in
  d.(0) <- 0;
  Queue.push 0 q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun w ->
        if d.(w) < 0 then begin
          d.(w) <- d.(u) + 1;
          Queue.push w q
        end)
      adj.(u)
  done;
  d

let connected g = g.gn > 0 && Array.for_all (fun x -> x >= 0) (levels g)

(* BFS levels 2-colour a connected graph; it is bipartite iff no edge
   joins two vertices of the same parity *)
let bipartite g =
  let d = levels g in
  Array.for_all (fun (u, v) -> d.(u) land 1 <> d.(v) land 1) g.edges

(* match the lowest free vertex to each free neighbour in turn *)
let perfect_matching g =
  if g.gn > 20 then Util.die "no perfect_matching oracle for n = %d" g.gn;
  let adj = adjacency g in
  let rec go free =
    free = 0
    ||
    let u = ref 0 in
    while free land (1 lsl !u) = 0 do
      incr u
    done;
    let rest = free lxor (1 lsl !u) in
    List.exists (fun w -> rest land (1 lsl w) <> 0 && go (rest lxor (1 lsl w))) adj.(!u)
  in
  g.gn mod 2 = 0 && go ((1 lsl g.gn) - 1)

let triangle_free g =
  let adj = adjacency g in
  Array.for_all
    (fun (u, v) -> not (List.exists (fun w -> List.mem w adj.(v)) adj.(u)))
    g.edges

let holds property g =
  match property with
  | "connected" -> true
  | "acyclic" -> Array.length g.edges = g.gn - 1
  | "bipartite" -> bipartite g
  | "triangle_free" -> triangle_free g
  | "perfect_matching" -> perfect_matching g
  | p -> Util.die "no ground truth for property %s" p

(* a family's (n, m, properties that hold); the sizes follow the
   program's documented generator conventions *)
let family ~family ~n =
  let tree = [ "connected"; "acyclic"; "bipartite"; "triangle_free" ] in
  match family with
  | "path" -> Some (n, n - 1, if n mod 2 = 0 then "perfect_matching" :: tree else tree)
  | "caterpillar" ->
      let spine = max 1 (n / 3) in
      Some (3 * spine, (3 * spine) - 1, tree)
  | "ladder" ->
      let w = max 2 (n / 2) in
      Some (2 * w, (3 * w) - 2, [ "connected"; "bipartite"; "triangle_free"; "perfect_matching" ])
  | "random" -> Some (n, -1, [ "connected" ])
  | _ -> None

let error = { verdict = "input_error"; n = 0; m = 0 }

let compute j =
  if not (List.mem j.property served) then error
  else
    match j.source with
    | Bad _ -> error
    | File { g; _ } ->
        let ok = connected g && holds j.property g in
        { verdict = (if ok then "served" else "declined"); n = g.gn; m = Array.length g.edges }
    | Gen { family = f; n; _ } -> (
        match family ~family:f ~n with
        | None -> error
        | Some (n, m, props) ->
            if List.mem j.property props then { verdict = "served"; n; m }
            else if f = "random" then
              Util.die "%s: no known answer for %s on a random graph" j.id j.property
            else { verdict = "declined"; n; m })

(* the verdict a report's status stands for, as the canonical
   projection names it. served_degraded (the store lost its disk tier)
   stands for none: the benchmark measures the disk tier, so a run that
   lost it is wrong. *)
let verdict_of_status = function
  | "served_fresh" | "served_cached" | "served" -> "served"
  | s -> s

(* [check j ~status ~n ~m] is [None] when the outcome is right, or why
   it is wrong. Sizes are compared for built graphs only. *)
let check j ~status ~n ~m =
  let t = compute j in
  let v = verdict_of_status status in
  if v <> t.verdict then
    Some (Printf.sprintf "%s: status %s, expected %s" j.id status t.verdict)
  else if v = "input_error" then None
  else if n <> t.n || (t.m >= 0 && m <> t.m) || (t.m < 0 && m < n - 1) then
    Some (Printf.sprintf "%s: n=%d m=%d, expected n=%d m=%d" j.id n m t.n t.m)
  else None

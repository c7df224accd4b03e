(* Just enough JSON for the program's per-job lines (flat objects of
   strings, numbers, booleans and string arrays) and for the
   benchmark's own one-line result. *)

type v = Str of string | Num of float | Bool of bool | Arr of string list

exception Bad of string

let parse_flat (s : string) : (string * v) list =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t' || s.[!pos] = '\r') do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if peek () <> c then raise (Bad (Printf.sprintf "expected %c at %d" c !pos));
    incr pos
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise (Bad "unterminated string");
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          if !pos + 1 >= n then raise (Bad "dangling escape");
          (match s.[!pos + 1] with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'u' ->
              if !pos + 5 >= n then raise (Bad "short \\u escape");
              Buffer.add_char b
                (Char.chr (int_of_string ("0x" ^ String.sub s (!pos + 2) 4) land 0xff));
              pos := !pos + 4
          | c -> Buffer.add_char b c);
          pos := !pos + 2;
          go ()
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let value () =
    skip_ws ();
    match peek () with
    | '"' -> Str (str ())
    | '[' ->
        incr pos;
        skip_ws ();
        if peek () = ']' then begin
          incr pos;
          Arr []
        end
        else begin
          let rec items acc =
            let x = str () in
            skip_ws ();
            match peek () with
            | ',' ->
                incr pos;
                items (x :: acc)
            | ']' ->
                incr pos;
                List.rev (x :: acc)
            | _ -> raise (Bad "bad array")
          in
          Arr (items [])
        end
    | 't' when !pos + 4 <= n && String.sub s !pos 4 = "true" ->
        pos := !pos + 4;
        Bool true
    | 'f' when !pos + 5 <= n && String.sub s !pos 5 = "false" ->
        pos := !pos + 5;
        Bool false
    | _ ->
        let start = !pos in
        while
          !pos < n
          && match s.[!pos] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false
        do
          incr pos
        done;
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f -> Num f
        | None -> raise (Bad (Printf.sprintf "bad value at %d" start)))
  in
  expect '{';
  skip_ws ();
  if peek () = '}' then []
  else begin
    let rec fields acc =
      let k = str () in
      expect ':';
      let v = value () in
      skip_ws ();
      match peek () with
      | ',' ->
          incr pos;
          fields ((k, v) :: acc)
      | '}' -> List.rev ((k, v) :: acc)
      | _ -> raise (Bad "bad object")
    in
    fields []
  end

let get_str o k = match List.assoc_opt k o with Some (Str s) -> s | _ -> ""

let get_num o k = match List.assoc_opt k o with Some (Num f) -> f | _ -> 0.0

let get_int o k = int_of_float (get_num o k)

let get_arr o k = match List.assoc_opt k o with Some (Arr l) -> l | _ -> []

(* the integer following ["key":] anywhere in [s] (first occurrence);
   for the nested stats object, where only a few counters matter *)
let find_int s key =
  let pat = "\"" ^ key ^ "\":" in
  let lp = String.length pat and n = String.length s in
  let rec search i =
    if i + lp > n then None
    else if String.sub s i lp = pat then begin
      let j = ref (i + lp) in
      while !j < n && (match s.[!j] with '0' .. '9' | '-' -> true | _ -> false) do
        incr j
      done;
      int_of_string_opt (String.sub s (i + lp) (!j - i - lp))
    end
    else search (i + 1)
  in
  search 0

(* ---------------------------------------------------------------- *)
(* the result line                                                   *)

let number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let result ~correct ~attempted ~failed (metrics : (string * float * string) list)
    =
  let m =
    List.map
      (fun (name, value, unit) ->
        if not (Float.is_finite value) then
          Util.die "metric %s is not finite" name;
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number value)
          unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)

(* Process-global metrics registry.

   Everything funnels through one mutable flag: when metrics are
   disabled (the default) every instrumentation point is a single load
   and branch, so the hot numeric loops pay essentially nothing.  When
   enabled, counters/gauges/histograms accumulate into global tables
   and [Span.with_] adds wall-clock timing with nesting depth.

   Instruments register themselves at module-initialisation time
   (e.g. [let solves = Obs.Counter.make "cg.solves"]), so the report
   lists every known metric even when its value is still zero. *)

let enabled_flag = ref false
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

(* wall clock; close enough to monotonic for span timing and the only
   clock the stdlib + unix give us without C stubs *)
let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* registry                                                           *)
(* ------------------------------------------------------------------ *)

(* One lock guards the registry tables and every compound update
   (histograms, span aggregates, the trace buffer), so collection stays
   coherent when pool worker domains record concurrently.  Counters are
   atomics and skip the lock on the hot path; gauges are single-word
   stores, which the OCaml memory model already keeps tear-free. *)
let registry_mu = Mutex.create ()

let locked f =
  Mutex.lock registry_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mu) f

let counter_table : (string, int Atomic.t) Hashtbl.t = Hashtbl.create 64
let gauge_table : (string, float ref) Hashtbl.t = Hashtbl.create 16

type hist = {
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  buckets : (int, int ref) Hashtbl.t; (* log2 exponent of the upper bound -> count *)
}

let hist_table : (string, hist) Hashtbl.t = Hashtbl.create 16

type span_agg = { mutable calls : int; mutable total : float; mutable max_t : float }

let span_table : (string, span_agg) Hashtbl.t = Hashtbl.create 16

let sorted_bindings table =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

module Counter = struct
  type t = int Atomic.t

  let make name =
    locked @@ fun () ->
    match Hashtbl.find_opt counter_table name with
    | Some c -> c
    | None ->
        let c = Atomic.make 0 in
        Hashtbl.replace counter_table name c;
        c

  let incr c = if !enabled_flag then Atomic.incr c
  let add c n = if !enabled_flag then ignore (Atomic.fetch_and_add c n)
  let value c = Atomic.get c
end

module Gauge = struct
  type t = float ref

  let make name =
    locked @@ fun () ->
    match Hashtbl.find_opt gauge_table name with
    | Some g -> g
    | None ->
        let g = ref 0. in
        Hashtbl.replace gauge_table name g;
        g

  let set g v = if !enabled_flag then g := v
  let value g = !g
end

module Histogram = struct
  type t = hist

  let make name =
    locked @@ fun () ->
    match Hashtbl.find_opt hist_table name with
    | Some h -> h
    | None ->
        let h =
          { count = 0; sum = 0.; min_v = infinity; max_v = neg_infinity; buckets = Hashtbl.create 16 }
        in
        Hashtbl.replace hist_table name h;
        h

  (* bucket [e] holds values in (2^(e-1), 2^e]; non-positive values
     share a single underflow bucket whose upper bound is 0 *)
  let bucket_exponent v =
    if v <= 0. then min_int else int_of_float (Float.ceil (Float.log2 v -. 1e-12))

  let bucket_upper_bound ~value =
    let e = bucket_exponent value in
    if e = min_int then 0. else Float.pow 2. (float_of_int e)

  let observe h v =
    if !enabled_flag then
      locked @@ fun () ->
      h.count <- h.count + 1;
      h.sum <- h.sum +. v;
      if v < h.min_v then h.min_v <- v;
      if v > h.max_v then h.max_v <- v;
      let e = bucket_exponent v in
      match Hashtbl.find_opt h.buckets e with
      | Some c -> Stdlib.incr c
      | None -> Hashtbl.replace h.buckets e (ref 1)

  let count h = h.count
  let sum h = h.sum
  let mean h = if h.count = 0 then nan else h.sum /. float_of_int h.count
  let min_value h = if h.count = 0 then nan else h.min_v
  let max_value h = if h.count = 0 then nan else h.max_v

  let sorted_buckets h =
    Hashtbl.fold (fun e c acc -> (e, !c) :: acc) h.buckets []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

  (* quantile estimate: upper bound of the bucket where the cumulative
     count first reaches [q * count] — exact to within one bucket *)
  let quantile h q =
    if h.count = 0 then nan
    else if q < 0. || q > 1. then invalid_arg "Obs.Histogram.quantile: q outside [0, 1]"
    else begin
      let target = Float.max 1. (Float.ceil (q *. float_of_int h.count)) in
      let rec walk acc = function
        | [] -> h.max_v
        | (e, c) :: rest ->
            let acc = acc + c in
            if float_of_int acc >= target then
              if e = min_int then 0. else Float.min (Float.pow 2. (float_of_int e)) h.max_v
            else walk acc rest
      in
      walk 0 (sorted_buckets h)
    end
end

module Span = struct
  type event = { name : string; depth : int; start : float; duration : float }

  (* span nesting is a per-domain notion: each domain tracks its own
     stack depth while the aggregates stay process-global *)
  let depth_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)
  let trace_flag = ref false
  let trace_limit = 10_000
  let trace_buf : event Queue.t = Queue.create ()

  let set_trace b = trace_flag := b
  let trace_enabled () = !trace_flag
  let events () = locked (fun () -> List.of_seq (Queue.to_seq trace_buf))

  let agg name =
    match Hashtbl.find_opt span_table name with
    | Some a -> a
    | None ->
        let a = { calls = 0; total = 0.; max_t = 0. } in
        Hashtbl.replace span_table name a;
        a

  let record name depth start =
    let dur = now () -. start in
    locked @@ fun () ->
    let a = agg name in
    a.calls <- a.calls + 1;
    a.total <- a.total +. dur;
    if dur > a.max_t then a.max_t <- dur;
    if !trace_flag && Queue.length trace_buf < trace_limit then
      Queue.add { name; depth; start; duration = dur } trace_buf

  let with_ ~name f =
    if not !enabled_flag then f ()
    else begin
      let start = now () in
      let depth = Domain.DLS.get depth_key in
      let d = !depth in
      depth := d + 1;
      Fun.protect
        ~finally:(fun () ->
          depth := d;
          record name d start)
        f
    end

  let calls name =
    locked (fun () ->
        match Hashtbl.find_opt span_table name with Some a -> a.calls | None -> 0)

  let total_time name =
    locked (fun () ->
        match Hashtbl.find_opt span_table name with Some a -> a.total | None -> 0.)
end

let counters () =
  locked (fun () -> List.map (fun (n, c) -> (n, Atomic.get c)) (sorted_bindings counter_table))

let gauges () = locked (fun () -> List.map (fun (n, g) -> (n, !g)) (sorted_bindings gauge_table))

let reset () =
  locked (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c 0) counter_table;
      Hashtbl.iter (fun _ g -> g := 0.) gauge_table;
      Hashtbl.iter
        (fun _ h ->
          h.count <- 0;
          h.sum <- 0.;
          h.min_v <- infinity;
          h.max_v <- neg_infinity;
          Hashtbl.reset h.buckets)
        hist_table;
      Hashtbl.reset span_table;
      Queue.clear Span.trace_buf);
  Domain.DLS.get Span.depth_key := 0

(* ------------------------------------------------------------------ *)
(* JSON (hand-rolled: no external deps allowed)                       *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Number of float
    | String of string
    | Array of t list
    | Object of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let number_to_string v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v

  let rec to_string = function
    | Null -> "null"
    | Bool b -> if b then "true" else "false"
    | Number v ->
        if Float.is_nan v then "null"
        else if v = infinity then "1e999" (* out-of-range literal parses back as infinity *)
        else if v = neg_infinity then "-1e999"
        else number_to_string v
    | String s -> "\"" ^ escape s ^ "\""
    | Array xs -> "[" ^ String.concat "," (List.map to_string xs) ^ "]"
    | Object kvs ->
        "{"
        ^ String.concat ","
            (List.map (fun (k, v) -> "\"" ^ escape k ^ "\":" ^ to_string v) kvs)
        ^ "}"

  exception Parse_error of string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word value =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
        pos := !pos + String.length word;
        value
      end
      else fail "bad literal"
    in
    let parse_string_body () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | Some '"' -> advance (); Buffer.add_char buf '"'; go ()
            | Some '\\' -> advance (); Buffer.add_char buf '\\'; go ()
            | Some '/' -> advance (); Buffer.add_char buf '/'; go ()
            | Some 'n' -> advance (); Buffer.add_char buf '\n'; go ()
            | Some 't' -> advance (); Buffer.add_char buf '\t'; go ()
            | Some 'r' -> advance (); Buffer.add_char buf '\r'; go ()
            | Some 'b' -> advance (); Buffer.add_char buf '\b'; go ()
            | Some 'f' -> advance (); Buffer.add_char buf '\012'; go ()
            | Some 'u' ->
                advance ();
                if !pos + 4 > n then fail "short unicode escape";
                let hex = String.sub s !pos 4 in
                pos := !pos + 4;
                let code = int_of_string ("0x" ^ hex) in
                (* ASCII range only; anything above is replaced — the
                   exporter never emits non-ASCII *)
                Buffer.add_char buf (if code < 0x80 then Char.chr code else '?');
                go ()
            | _ -> fail "bad escape")
        | Some c ->
            advance ();
            Buffer.add_char buf c;
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let numeric c =
        match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      in
      while (match peek () with Some c when numeric c -> true | _ -> false) do
        advance ()
      done;
      if !pos = start then fail "expected number";
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some v -> v
      | None -> fail "malformed number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> String (parse_string_body ())
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin advance (); Object [] end
          else begin
            let rec members acc =
              skip_ws ();
              let key = parse_string_body () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((key, v) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((key, v) :: acc)
              | _ -> fail "expected ',' or '}'"
            in
            Object (members [])
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin advance (); Array [] end
          else begin
            let rec elements acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            Array (elements [])
          end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Number (parse_number ())
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse_error msg -> Error msg

  let member key = function
    | Object kvs -> List.assoc_opt key kvs
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* exporters                                                          *)
(* ------------------------------------------------------------------ *)

let fmt_ms t = Printf.sprintf "%.3f" (t *. 1e3)

let report () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "== metrics ==\n";
  let values = Reprolib.Table.create ~columns:[ "name"; "value" ] in
  List.iter (fun (n, v) -> Reprolib.Table.add_row values [ n; string_of_int v ]) (counters ());
  List.iter
    (fun (n, v) -> Reprolib.Table.add_row values [ n; Printf.sprintf "%g" v ])
    (gauges ());
  Buffer.add_string buf (Reprolib.Table.render values);
  let hists = locked (fun () -> sorted_bindings hist_table) in
  if List.exists (fun (_, h) -> h.count > 0) hists then begin
    Buffer.add_string buf "\n== histograms ==\n";
    let t =
      Reprolib.Table.create ~columns:[ "name"; "count"; "mean"; "min"; "max"; "p50"; "p95" ]
    in
    List.iter
      (fun (n, h) ->
        if h.count > 0 then
          Reprolib.Table.add_row t
            [
              n;
              string_of_int h.count;
              Printf.sprintf "%g" (Histogram.mean h);
              Printf.sprintf "%g" h.min_v;
              Printf.sprintf "%g" h.max_v;
              Printf.sprintf "%g" (Histogram.quantile h 0.5);
              Printf.sprintf "%g" (Histogram.quantile h 0.95);
            ])
      hists;
    Buffer.add_string buf (Reprolib.Table.render t)
  end;
  let spans = locked (fun () -> sorted_bindings span_table) in
  if spans <> [] then begin
    Buffer.add_string buf "\n== spans ==\n";
    let t = Reprolib.Table.create ~columns:[ "span"; "calls"; "total(ms)"; "mean(ms)"; "max(ms)" ] in
    List.iter
      (fun (n, a) ->
        Reprolib.Table.add_row t
          [
            n;
            string_of_int a.calls;
            fmt_ms a.total;
            fmt_ms (a.total /. float_of_int (Int.max 1 a.calls));
            fmt_ms a.max_t;
          ])
      spans;
    Buffer.add_string buf (Reprolib.Table.render t)
  end;
  Buffer.contents buf

let hist_json name h =
  let buckets =
    List.map
      (fun (e, c) ->
        let upper = if e = min_int then 0. else Float.pow 2. (float_of_int e) in
        Json.Array [ Json.Number upper; Json.Number (float_of_int c) ])
      (Histogram.sorted_buckets h)
  in
  Json.Object
    [
      ("type", Json.String "histogram");
      ("name", Json.String name);
      ("count", Json.Number (float_of_int h.count));
      ("sum", Json.Number h.sum);
      ("min", Json.Number (if h.count = 0 then 0. else h.min_v));
      ("max", Json.Number (if h.count = 0 then 0. else h.max_v));
      ("buckets", Json.Array buckets);
    ]

let to_json_lines () =
  let buf = Buffer.create 1024 in
  let line j =
    Buffer.add_string buf (Json.to_string j);
    Buffer.add_char buf '\n'
  in
  List.iter
    (fun (n, v) ->
      line
        (Json.Object
           [
             ("type", Json.String "counter");
             ("name", Json.String n);
             ("value", Json.Number (float_of_int v));
           ]))
    (counters ());
  List.iter
    (fun (n, v) ->
      line
        (Json.Object
           [ ("type", Json.String "gauge"); ("name", Json.String n); ("value", Json.Number v) ]))
    (gauges ());
  List.iter (fun (n, h) -> line (hist_json n h)) (locked (fun () -> sorted_bindings hist_table));
  List.iter
    (fun (n, a) ->
      line
        (Json.Object
           [
             ("type", Json.String "span");
             ("name", Json.String n);
             ("count", Json.Number (float_of_int a.calls));
             ("total_s", Json.Number a.total);
             ("max_s", Json.Number a.max_t);
           ]))
    (locked (fun () -> sorted_bindings span_table));
  Buffer.contents buf

let write_json_lines path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_json_lines ()))

let trace_report () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "== span trace ==\n";
  let events = Span.events () in
  let t0 =
    List.fold_left (fun acc (ev : Span.event) -> Float.min acc ev.start) infinity events
  in
  List.iter
    (fun (ev : Span.event) ->
      Buffer.add_string buf
        (Printf.sprintf "%s%-24s +%.3fms %.3fms\n"
           (String.make (2 * ev.depth) ' ')
           ev.name
           ((ev.start -. t0) *. 1e3)
           (ev.duration *. 1e3)))
    events;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* RCDELAY_METRICS env fallback                                       *)
(* ------------------------------------------------------------------ *)

(* RCDELAY_METRICS=1 (or any non-path value) prints the report to
   stderr at exit; RCDELAY_METRICS=/path/to/file.jsonl dumps JSON
   lines there instead.  This lets scripts and tests turn
   metrics on without plumbing flags through every entry point. *)
let env_value = Sys.getenv_opt "RCDELAY_METRICS"

let () =
  match env_value with
  | None | Some "" -> ()
  | Some v ->
      enabled_flag := true;
      at_exit (fun () ->
          if String.contains v '/' || Filename.check_suffix v ".jsonl" || Filename.check_suffix v ".json"
          then
            try write_json_lines v
            with Sys_error msg -> Printf.eprintf "obs: cannot write metrics: %s\n" msg
          else prerr_string (report ()))

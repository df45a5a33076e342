type node_id = int

type flat = { parents : int array; resistance : float array; capacitance : float array }

(* A tree is a set of flat arrays indexed by node id.  Ids are assigned
   parent-first, the input is node 0.  Per node:
   - [flat]: parent (-1 at the input), series resistance of the edge
     above (0 at the input) and lumped capacitance;
   - [kinds]: the kind of that edge, one byte: 'I' input, 'R' resistor,
     'U' distributed line;
   - [line_c]: the line's capacitance ('U' edges), 0 otherwise;
   - [names]: the explicit name, or [unnamed] for the default "n<id>".
   Both are [[||]] in a tree without lines or explicit names.
   The first [children] call indexes the children in CSR form [(start, ids)]:
   those of [i] are [ids.(start.(i)) .. ids.(start.(i + 1) - 1)], in insertion order. *)
type t = {
  name : string;
  flat : flat;
  kinds : string;
  line_c : float array;
  names : string array;
  children_index : (int array * int array) option Atomic.t;
      (* not a [Lazy.t], which raises if two domains force it at once *)
  outputs : (string * node_id) list;
}

let m_children_indexes = Obs.Counter.make "rctree.children_indexes"

(* the placeholder of a node without an explicit name, told apart from
   any caller's string (even an empty one) by physical equality *)
let unnamed = String.make 0 ' '

let default_name id = "n" ^ string_of_int id

let name_in names id =
  if Array.length names > 0 && names.(id) != unnamed then names.(id)
  else if id = 0 then "in"
  else default_name id

module Builder = struct
  type t = {
    tree_name : string;
    mutable parents : int array;
    mutable kinds : Bytes.t;
    mutable r : float array;
    mutable line_c : float array;
    mutable caps : float array;
    mutable names : string array;
    mutable count : int;
    mutable outs : (string * node_id) list; (* reverse marking order *)
    mutable seen : (string * node_id, unit) Hashtbl.t option;
        (* the pairs in [outs], once there are more than [scan_limit] *)
  }

  let scan_limit = 16

  let create ?(name = "rc-tree") () =
    let size = 8 in
    {
      tree_name = name;
      parents = Array.make size (-1);
      kinds = Bytes.make size 'I';
      r = Array.make size 0.;
      line_c = [||];
      caps = Array.make size 0.;
      names = [||];
      count = 1;
      outs = [];
      seen = None;
    }

  let input (_ : t) = 0

  let check_node b id op =
    if id < 0 || id >= b.count then
      invalid_arg (Printf.sprintf "Tree.Builder.%s: unknown node %d" op id)

  let grow b =
    if b.count = Array.length b.parents then begin
      let extend a fill =
        let bigger = Array.make (2 * b.count) fill in
        Array.blit a 0 bigger 0 b.count;
        bigger
      in
      b.parents <- extend b.parents (-1);
      b.kinds <- Bytes.extend b.kinds 0 b.count;
      b.r <- extend b.r 0.;
      if Array.length b.line_c > 0 then b.line_c <- extend b.line_c 0.;
      b.caps <- extend b.caps 0.;
      if Array.length b.names > 0 then b.names <- extend b.names unnamed
    end

  (* [names] and [line_c] are made on first use, at the builder's capacity *)
  let named b =
    if Array.length b.names = 0 then
      b.names <- Array.init (Array.length b.parents) (fun i -> if i = 0 then "in" else unnamed);
    b.names

  let add_edge b ~parent ~name kind r =
    grow b;
    let id = b.count in
    b.parents.(id) <- parent;
    Bytes.set b.kinds id kind;
    b.r.(id) <- r;
    (match name with Some n -> (named b).(id) <- n | None -> ());
    b.count <- id + 1;
    id

  let add_node b ~parent ?name element =
    check_node b parent "add_node";
    match element with
    | Element.Capacitor _ ->
        invalid_arg "Tree.Builder.add_node: capacitance belongs to nodes, use add_capacitance"
    | Element.Resistor r -> add_edge b ~parent ~name 'R' r
    | Element.Line { resistance; capacitance } ->
        let id = add_edge b ~parent ~name 'U' resistance in
        if Array.length b.line_c = 0 then b.line_c <- Array.make (Array.length b.parents) 0.;
        b.line_c.(id) <- capacitance;
        id

  (* [Element.resistor]'s check and message, without boxing the value *)
  let add_resistor b ~parent ?name r =
    if r < 0. || not (Float.is_finite r) then
      invalid_arg "Element.resistor: value must be finite and non-negative";
    check_node b parent "add_node";
    add_edge b ~parent ~name 'R' r

  let add_capacitance b id c =
    check_node b id "add_capacitance";
    if c < 0. || not (Float.is_finite c) then
      invalid_arg "Tree.Builder.add_capacitance: capacitance must be finite and non-negative";
    b.caps.(id) <- b.caps.(id) +. c

  let add_line b ~parent ?name resistance capacitance =
    check_node b parent "add_line";
    match Element.line ~resistance ~capacitance with
    | Element.Capacitor c ->
        add_capacitance b parent c;
        parent
    | (Element.Resistor _ | Element.Line _) as e -> add_node b ~parent ?name e

  let mark_output b ?label id =
    check_node b id "mark_output";
    let label = match label with Some l -> l | None -> name_in b.names id in
    let key = (label, id) in
    let marked =
      match b.seen with
      | Some seen -> Hashtbl.mem seen key
      | None -> List.exists (fun (l, n) -> n = id && String.equal l label) b.outs
    in
    if not marked then begin
      b.outs <- key :: b.outs;
      match b.seen with
      | Some seen -> Hashtbl.add seen key ()
      | None when List.compare_length_with b.outs scan_limit > 0 ->
          let seen = Hashtbl.create (4 * scan_limit) in
          List.iter (fun k -> Hashtbl.add seen k ()) b.outs;
          b.seen <- Some seen
      | None -> ()
    end

  (* copies, so the builder stays usable *)
  let finish b =
    let sub a = Array.sub a 0 b.count in
    let used a = if Array.length a = 0 then [||] else sub a in
    {
      name = b.tree_name;
      flat = { parents = sub b.parents; resistance = sub b.r; capacitance = sub b.caps };
      kinds = Bytes.sub_string b.kinds 0 b.count;
      line_c = used b.line_c;
      names = used b.names;
      children_index = Atomic.make None;
      outputs = List.rev b.outs;
    }
end

let name t = t.name
let node_count t = Array.length t.flat.parents
let input (_ : t) = 0
let flat t = t.flat

let check t id op =
  if id < 0 || id >= node_count t then invalid_arg (Printf.sprintf "Tree.%s: unknown node %d" op id)

let parent t id =
  check t id "parent";
  if id = 0 then None else Some t.flat.parents.(id)

let element t id =
  check t id "element";
  match t.kinds.[id] with
  | 'R' -> Some (Element.Resistor t.flat.resistance.(id))
  | 'U' -> Some (Element.Line { resistance = t.flat.resistance.(id); capacitance = t.line_c.(id) })
  | _ -> None

let capacitance t id =
  check t id "capacitance";
  t.flat.capacitance.(id)

(* one counting pass in ascending id; a race builds it twice, harmlessly *)
let children_index t =
  match Atomic.get t.children_index with
  | Some csr -> csr
  | None ->
      Obs.Counter.incr m_children_indexes;
      let parents = t.flat.parents in
      let n = Array.length parents in
      let start = Array.make (n + 1) 0 in
      for id = 1 to n - 1 do
        let slot = parents.(id) + 1 in
        start.(slot) <- start.(slot) + 1
      done;
      for i = 1 to n do
        start.(i) <- start.(i) + start.(i - 1)
      done;
      let next = Array.sub start 0 n in
      let ids = Array.make (n - 1) 0 in
      for id = 1 to n - 1 do
        let p = parents.(id) in
        ids.(next.(p)) <- id;
        next.(p) <- next.(p) + 1
      done;
      Atomic.set t.children_index (Some (start, ids));
      (start, ids)

let children t id =
  check t id "children";
  let start, ids = children_index t in
  let first = start.(id) in
  let rec collect i acc = if i < first then acc else collect (i - 1) (ids.(i) :: acc) in
  collect (start.(id + 1) - 1) []

let node_name t id =
  check t id "node_name";
  name_in t.names id

let find_node t n =
  (* the id whose default name is [n], if any: parsed once, so the scan
     compares strings without making a name per node *)
  let default_id =
    let len = String.length n in
    if String.equal n "in" then 0
    else if len < 2 || n.[0] <> 'n' then -1
    else
      match int_of_string_opt (String.sub n 1 (len - 1)) with
      | Some k when k > 0 && String.equal (default_name k) n -> k
      | Some _ | None -> -1
  in
  let rec scan i =
    if i >= node_count t then None
    else
      let s = t.names.(i) in
      if (if s == unnamed then i = default_id else String.equal s n) then Some i else scan (i + 1)
  in
  if Array.length t.names > 0 then scan 0
  else if default_id >= 0 && default_id < node_count t then Some default_id
  else None

let outputs t = t.outputs
let output_named t label = List.assoc label t.outputs
let is_output t id = List.exists (fun (_, n) -> n = id) t.outputs

let depth t id =
  check t id "depth";
  let rec up id acc = if id = 0 then acc else up t.flat.parents.(id) (acc + 1) in
  up id 0

let total_capacitance t =
  let acc = ref 0. in
  for i = 0 to node_count t - 1 do
    let line = if Array.length t.line_c = 0 then 0. else t.line_c.(i) in
    acc := !acc +. t.flat.capacitance.(i) +. line
  done;
  !acc

let total_resistance t =
  let acc = ref 0. in
  for i = 0 to node_count t - 1 do
    acc := !acc +. t.flat.resistance.(i)
  done;
  !acc

let has_distributed_lines t = String.contains t.kinds 'U'

(* node ids are assigned parent-first by the builder, so index order is
   already a valid top-down order *)
let fold_nodes t ~init ~f =
  let acc = ref init in
  for i = 0 to node_count t - 1 do
    acc := f !acc i
  done;
  !acc

let iter_nodes t ~f =
  for i = 0 to node_count t - 1 do
    f i
  done

(* Indentation grows two spaces a level down to [pp_indent_levels];
   deeper lines keep that indentation and state their depth, so a deep
   chain prints in time and width linear in its nodes. *)
let pp_indent_levels = 32

(* [Units.format_si], remembering the last value: a chain of equal
   sections formats its values once *)
let format_si_memo () =
  let last = ref None in
  fun x ->
    match !last with
    | Some (y, s) when Float.equal x y -> s
    | _ ->
        let s = Units.format_si x in
        last := Some (x, s);
        s

let pp fmt t =
  let n = node_count t in
  let is_out = Array.make n false in
  List.iter (fun (_, id) -> is_out.(id) <- true) t.outputs;
  let start, ids = children_index t in
  let indents = Array.init (pp_indent_levels + 1) (fun d -> String.make (2 * max 1 d) ' ') in
  let si_r = format_si_memo () and si_line = format_si_memo () and si_c = format_si_memo () in
  let line = Buffer.create 128 in
  let add = Buffer.add_string line in
  (* decimal digits without a string per number, as string_of_int
     spells a non-negative int *)
  let rec add_int k =
    if k >= 10 then add_int (k / 10);
    Buffer.add_char line (Char.unsafe_chr (Char.code '0' + (k mod 10)))
  in
  (* preorder by an explicit stack, each node's children pushed last
     first so they pop in insertion order *)
  let stack = Array.make n 0 and depth = Array.make n 0 and top = ref 1 in
  Format.fprintf fmt "@[<v>tree %s@," t.name;
  while !top > 0 do
    decr top;
    let id = stack.(!top) and d = depth.(!top) in
    Buffer.clear line;
    if d < pp_indent_levels then add indents.(d + 1)
    else begin
      add indents.(pp_indent_levels);
      add "[depth ";
      add_int d;
      add "] "
    end;
    if id = 0 || (Array.length t.names > 0 && t.names.(id) != unnamed) then add (name_in t.names id)
    else begin
      (* [default_name], spelled into the line *)
      Buffer.add_char line 'n';
      add_int id
    end;
    add ": ";
    (* each element as Element.pp prints it *)
    (match element t id with
    | None -> add "input"
    | Some (Element.Resistor r) ->
        add "R(";
        add (si_r r);
        add ")"
    | Some (Element.Capacitor c) ->
        add "C(";
        add (si_line c);
        add ")"
    | Some (Element.Line { resistance; capacitance }) ->
        add "URC(";
        add (si_r resistance);
        add ",";
        add (si_line capacitance);
        add ")");
    let c = t.flat.capacitance.(id) in
    if c > 0. then begin
      add " C=";
      add (si_c c)
    end;
    if is_out.(id) then add " [output]";
    Format.pp_print_string fmt (Buffer.contents line);
    Format.pp_print_cut fmt ();
    for i = start.(id + 1) - 1 downto start.(id) do
      stack.(!top) <- ids.(i);
      depth.(!top) <- d + 1;
      incr top
    done
  done;
  Format.fprintf fmt "@]"

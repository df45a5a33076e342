type step = L | R | B
type path = step list

(* the memoized view: Expr.t shape, every node carrying the evaluated
   five-tuple of its subtree plus leaf-count and height for addressing
   and accounting.  Nodes are immutable, so an edit shares every
   untouched subtree with the previous handle — the "memo table" is the
   structure itself, and domains read it concurrently with no locks. *)
type node =
  | Leaf of { resistance : float; capacitance : float; tuple : Twoport.t }
  | Branch of { child : node; tuple : Twoport.t; leaves : int; height : int }
  | Cascade of { left : node; right : node; tuple : Twoport.t; leaves : int; height : int }

type t = node

type edit =
  | Replace_leaf of { path : path; resistance : float; capacitance : float }
  | Scale_r of { path : path; factor : float }
  | Scale_c of { path : path; factor : float }
  | Insert_buffer of { path : path; resistance : float; capacitance : float }
  | Graft of { path : path; expr : Expr.t }
  | Prune of { path : path }

let m_handles = Obs.Counter.make "incr.handles"
let m_edits = Obs.Counter.make "incr.edits"
let m_reeval = Obs.Counter.make "incr.nodes_reeval"
let m_hits = Obs.Counter.make "incr.cache_hits"
let m_sweeps = Obs.Counter.make "incr.sweeps"
let m_spine = Obs.Histogram.make "incr.spine_depth"

let tuple = function Leaf l -> l.tuple | Branch b -> b.tuple | Cascade c -> c.tuple
let leaf_count = function Leaf _ -> 1 | Branch b -> b.leaves | Cascade c -> c.leaves
let height = function Leaf _ -> 1 | Branch b -> b.height | Cascade c -> c.height

(* the smart constructors call exactly the Twoport operations that
   Expr.eval calls, in the same association, so a tuple memoized here
   is bit-identical to the one a from-scratch evaluation computes *)
let leaf ~resistance ~capacitance =
  Leaf { resistance; capacitance; tuple = Twoport.urc ~resistance ~capacitance }

let branch child =
  Branch
    {
      child;
      tuple = Twoport.branch (tuple child);
      leaves = leaf_count child;
      height = 1 + height child;
    }

let cascade left right =
  Cascade
    {
      left;
      right;
      tuple = Twoport.cascade (tuple left) (tuple right);
      leaves = leaf_count left + leaf_count right;
      height = 1 + Int.max (height left) (height right);
    }

let rec of_node = function
  | Expr.Urc { resistance; capacitance } -> leaf ~resistance ~capacitance
  | Expr.Branch e -> branch (of_node e)
  | Expr.Cascade (a, b) -> cascade (of_node a) (of_node b)

let of_expr e =
  if Obs.enabled () then Obs.Counter.incr m_handles;
  of_node e

let rec to_expr = function
  | Leaf { resistance; capacitance; _ } -> Expr.urc resistance capacitance
  | Branch b -> Expr.wb (to_expr b.child)
  | Cascade c -> Expr.wc (to_expr c.left) (to_expr c.right)

let times h = Twoport.times (tuple h)
let size = leaf_count
let depth = height

let times_scaled h ~resistance_factor ~capacitance_factor =
  Twoport.times (Twoport.scale ~resistance_factor ~capacitance_factor (tuple h))

(* ---------------------------------------------------------------- *)
(* paths                                                            *)
(* ---------------------------------------------------------------- *)

let step_to_char = function L -> 'l' | R -> 'r' | B -> 'b'

let path_to_string = function
  | [] -> "root"
  | p -> String.init (List.length p) (fun i -> step_to_char (List.nth p i))

let path_of_string s =
  if s = "root" || s = "" then Ok []
  else
    let rec go i acc =
      if i = String.length s then Ok (List.rev acc)
      else
        match s.[i] with
        | 'l' | 'L' -> go (i + 1) (L :: acc)
        | 'r' | 'R' -> go (i + 1) (R :: acc)
        | 'b' | 'B' -> go (i + 1) (B :: acc)
        | c -> Error (Printf.sprintf "bad path step %C (expected l, r or b)" c)
    in
    go 0 []

let leaf_path h n =
  if n < 0 || n >= leaf_count h then
    invalid_arg
      (Printf.sprintf "Incremental.leaf_path: leaf %d outside [0, %d)" n (leaf_count h));
  let rec go node n acc =
    match node with
    | Leaf _ -> List.rev acc
    | Branch b -> go b.child n (B :: acc)
    | Cascade c ->
        let nl = leaf_count c.left in
        if n < nl then go c.left n (L :: acc) else go c.right (n - nl) (R :: acc)
  in
  go h n []

let leaf_value h path =
  let rec go node = function
    | [] -> (
        match node with
        | Leaf { resistance; capacitance; _ } -> (resistance, capacitance)
        | Branch _ | Cascade _ -> invalid_arg "Incremental.leaf_value: path is not a leaf")
    | L :: rest -> (
        match node with
        | Cascade c -> go c.left rest
        | _ -> invalid_arg "Incremental.leaf_value: path mismatch")
    | R :: rest -> (
        match node with
        | Cascade c -> go c.right rest
        | _ -> invalid_arg "Incremental.leaf_value: path mismatch")
    | B :: rest -> (
        match node with
        | Branch b -> go b.child rest
        | _ -> invalid_arg "Incremental.leaf_value: path mismatch")
  in
  go h path

(* ---------------------------------------------------------------- *)
(* edits                                                            *)
(* ---------------------------------------------------------------- *)

(* one-hole context: what surrounds the focused subtree, innermost
   frame first.  Rebuilding from a context re-evaluates exactly the
   spine — one Twoport op per frame, reusing the sibling's memoized
   tuple at every Cascade frame. *)
type frame =
  | F_left of node (* focus is the left child; node is the right sibling *)
  | F_right of node (* focus is the right child; node is the left sibling *)
  | F_branch

let descend h path =
  let rec go node path ctx =
    match path with
    | [] -> (node, ctx)
    | L :: rest -> (
        match node with
        | Cascade c -> go c.left rest (F_left c.right :: ctx)
        | Leaf _ | Branch _ -> invalid_arg "Incremental: path step 'l' off a non-cascade node")
    | R :: rest -> (
        match node with
        | Cascade c -> go c.right rest (F_right c.left :: ctx)
        | Leaf _ | Branch _ -> invalid_arg "Incremental: path step 'r' off a non-cascade node")
    | B :: rest -> (
        match node with
        | Branch b -> go b.child rest (F_branch :: ctx)
        | Leaf _ | Cascade _ -> invalid_arg "Incremental: path step 'b' off a non-branch node")
  in
  go h path []

(* rebuild the spine; [reeval]/[hits] account the work for Obs *)
let plug ~reeval ~hits focus ctx =
  List.fold_left
    (fun node frame ->
      incr reeval;
      match frame with
      | F_left sibling ->
          incr hits;
          cascade node sibling
      | F_right sibling ->
          incr hits;
          cascade sibling node
      | F_branch -> branch node)
    focus ctx

let check_factor name factor =
  if not (Float.is_finite factor && factor >= 0.) then
    invalid_arg (Printf.sprintf "Incremental.%s: factor must be finite and non-negative" name)

(* subtree-wide scaling re-evaluates the whole focused subtree from
   scaled leaves — exactly what a from-scratch evaluation of the edited
   expression does, so bit-identity is preserved (unlike Twoport.scale,
   which is exact algebra but rounds differently) *)
let rec rescale ~rf ~cf ~reeval = function
  | Leaf { resistance; capacitance; _ } ->
      incr reeval;
      leaf ~resistance:(resistance *. rf) ~capacitance:(capacitance *. cf)
  | Branch b ->
      let child = rescale ~rf ~cf ~reeval b.child in
      incr reeval;
      branch child
  | Cascade c ->
      let left = rescale ~rf ~cf ~reeval c.left in
      let right = rescale ~rf ~cf ~reeval c.right in
      incr reeval;
      cascade left right

let rec eval_counted ~reeval = function
  | Expr.Urc { resistance; capacitance } ->
      incr reeval;
      leaf ~resistance ~capacitance
  | Expr.Branch e ->
      let child = eval_counted ~reeval e in
      incr reeval;
      branch child
  | Expr.Cascade (a, b) ->
      let left = eval_counted ~reeval a in
      let right = eval_counted ~reeval b in
      incr reeval;
      cascade left right

let apply h edit =
  let reeval = ref 0 and hits = ref 0 in
  let result =
    match edit with
    | Replace_leaf { path; resistance; capacitance } ->
        let focus, ctx = descend h path in
        (match focus with
        | Leaf _ -> ()
        | Branch _ | Cascade _ ->
            invalid_arg "Incremental.apply: Replace_leaf path addresses an interior node");
        incr reeval;
        plug ~reeval ~hits (leaf ~resistance ~capacitance) ctx
    | Scale_r { path; factor } ->
        check_factor "Scale_r" factor;
        let focus, ctx = descend h path in
        plug ~reeval ~hits (rescale ~rf:factor ~cf:1. ~reeval focus) ctx
    | Scale_c { path; factor } ->
        check_factor "Scale_c" factor;
        let focus, ctx = descend h path in
        plug ~reeval ~hits (rescale ~rf:1. ~cf:factor ~reeval focus) ctx
    | Insert_buffer { path; resistance; capacitance } ->
        let focus, ctx = descend h path in
        let buffer = cascade (leaf ~resistance ~capacitance:0.) (leaf ~resistance:0. ~capacitance) in
        reeval := !reeval + 4;
        incr hits (* the focused subtree's tuple is reused unchanged *);
        plug ~reeval ~hits (cascade buffer focus) ctx
    | Graft { path; expr } ->
        let focus, ctx = descend h path in
        let grafted = eval_counted ~reeval expr in
        incr reeval;
        incr hits;
        plug ~reeval ~hits (cascade focus grafted) ctx
    | Prune { path } -> (
        let _, ctx = descend h path in
        match ctx with
        | F_left sibling :: up | F_right sibling :: up ->
            incr hits;
            plug ~reeval ~hits sibling up
        | F_branch :: _ ->
            invalid_arg "Incremental.apply: cannot prune the only child of a WB branch"
        | [] -> invalid_arg "Incremental.apply: cannot prune the root")
  in
  if Obs.enabled () then begin
    Obs.Counter.incr m_edits;
    Obs.Counter.add m_reeval !reeval;
    Obs.Counter.add m_hits !hits;
    Obs.Histogram.observe m_spine
      (float_of_int
         (match edit with
         | Replace_leaf { path; _ }
         | Scale_r { path; _ }
         | Scale_c { path; _ }
         | Insert_buffer { path; _ }
         | Graft { path; _ }
         | Prune { path } ->
             List.length path))
  end;
  result

let apply_all h edits = List.fold_left apply h edits

(* ---------------------------------------------------------------- *)
(* the from-scratch reference semantics (for tests and callers that  *)
(* want the plain expression of an edited network)                   *)
(* ---------------------------------------------------------------- *)

let edit_expr e edit =
  let rec at e path f =
    match (path, e) with
    | [], _ -> f e
    | L :: rest, Expr.Cascade (a, b) -> Expr.wc (at a rest f) b
    | R :: rest, Expr.Cascade (a, b) -> Expr.wc a (at b rest f)
    | B :: rest, Expr.Branch sub -> Expr.wb (at sub rest f)
    | _ :: _, (Expr.Urc _ | Expr.Branch _ | Expr.Cascade _) ->
        invalid_arg "Incremental.edit_expr: path does not match the expression shape"
  in
  let rec scale_leaves ~rf ~cf = function
    | Expr.Urc { resistance; capacitance } ->
        Expr.urc (resistance *. rf) (capacitance *. cf)
    | Expr.Branch sub -> Expr.wb (scale_leaves ~rf ~cf sub)
    | Expr.Cascade (a, b) -> Expr.wc (scale_leaves ~rf ~cf a) (scale_leaves ~rf ~cf b)
  in
  match edit with
  | Replace_leaf { path; resistance; capacitance } ->
      at e path (function
        | Expr.Urc _ -> Expr.urc resistance capacitance
        | Expr.Branch _ | Expr.Cascade _ ->
            invalid_arg "Incremental.edit_expr: Replace_leaf path addresses an interior node")
  | Scale_r { path; factor } ->
      check_factor "Scale_r" factor;
      at e path (scale_leaves ~rf:factor ~cf:1.)
  | Scale_c { path; factor } ->
      check_factor "Scale_c" factor;
      at e path (scale_leaves ~rf:1. ~cf:factor)
  | Insert_buffer { path; resistance; capacitance } ->
      at e path (fun sub ->
          Expr.wc (Expr.wc (Expr.urc resistance 0.) (Expr.urc 0. capacitance)) sub)
  | Graft { path; expr } -> at e path (fun sub -> Expr.wc sub expr)
  | Prune { path } ->
      let rec prune e path =
        match (path, e) with
        | [ L ], Expr.Cascade (_, b) -> b
        | [ R ], Expr.Cascade (a, _) -> a
        | [ B ], Expr.Branch _ ->
            invalid_arg "Incremental.edit_expr: cannot prune the only child of a WB branch"
        | [], _ -> invalid_arg "Incremental.edit_expr: cannot prune the root"
        | L :: rest, Expr.Cascade (a, b) -> Expr.wc (prune a rest) b
        | R :: rest, Expr.Cascade (a, b) -> Expr.wc a (prune b rest)
        | B :: rest, Expr.Branch sub -> Expr.wb (prune sub rest)
        | _ :: _, (Expr.Urc _ | Expr.Branch _ | Expr.Cascade _) ->
            invalid_arg "Incremental.edit_expr: path does not match the expression shape"
      in
      prune e path

(* ---------------------------------------------------------------- *)
(* batch sweeps                                                     *)
(* ---------------------------------------------------------------- *)

(* serial: a query is an O(depth) spine re-evaluation, far cheaper
   than spawning a domain for it *)
let sweep h queries =
  if Obs.enabled () then Obs.Counter.incr m_sweeps;
  Obs.Span.with_ ~name:"incr.sweep" @@ fun () ->
  Array.map (fun edits -> times (apply_all h edits)) queries

let sweep_list h queries = Array.to_list (sweep h (Array.of_list queries))

let sweep_gen h ~n f =
  if n < 0 then invalid_arg "Incremental.sweep_gen: negative query count";
  sweep h (Array.init n f)

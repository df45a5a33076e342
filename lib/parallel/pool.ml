(* Work-chunking domain pool.

   One job at a time: the submitter splits [0, n) into chunks, spawns
   the job's worker domains, drains the job alongside them and joins
   them.  No worker outlives its job, so between jobs no parked domain
   has to be woken for every stop-the-world collection.  Chunks are
   handed out through an atomic cursor, so a domain that finishes early
   simply grabs the next chunk — cheap dynamic load balancing with no
   per-item locking.  Results are index-addressed by the caller's [run]
   function, which is what makes every combinator deterministic:
   execution order varies, the index→slot mapping never does. *)

let m_jobs = Obs.Counter.make "pool.jobs"
let m_chunks = Obs.Counter.make "pool.chunks"
let m_tasks = Obs.Counter.make "pool.tasks"
let m_worker_chunks = Obs.Counter.make "pool.worker_chunks"
let m_spawned = Obs.Counter.make "pool.workers_spawned"
let m_busy = Obs.Histogram.make "pool.domain_busy_ms"

type job = {
  run : int -> int -> unit; (* execute indices [lo, hi) *)
  n : int;
  chunk_size : int;
  cursor : int Atomic.t; (* next unclaimed index *)
  mutable failed : (int * exn * Printexc.raw_backtrace) option;
      (* lowest-index failing chunk; guarded by [jm] *)
  jm : Mutex.t;
}

type t = {
  size : int;
  stop : bool Atomic.t;
  submit_mu : Mutex.t; (* serializes concurrent submitters *)
}

let domains pool = pool.size

(* marks "this domain is currently running pool tasks"; nested
   combinator calls then fall back to the serial path instead of
   deadlocking on [submit_mu] *)
let in_task : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let execute job ~submitter =
  let t0 = Unix.gettimeofday () in
  let flag = Domain.DLS.get in_task in
  let was = !flag in
  flag := true;
  let rec drain () =
    let lo = Atomic.fetch_and_add job.cursor job.chunk_size in
    if lo < job.n then begin
      let hi = Int.min job.n (lo + job.chunk_size) in
      (match job.run lo hi with
      | () -> ()
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Mutex.lock job.jm;
          (match job.failed with
          | Some (lo0, _, _) when lo0 <= lo -> ()
          | Some _ | None -> job.failed <- Some (lo, e, bt));
          Mutex.unlock job.jm);
      Obs.Counter.incr m_chunks;
      if not submitter then Obs.Counter.incr m_worker_chunks;
      Obs.Counter.add m_tasks (hi - lo);
      drain ()
    end
  in
  drain ();
  flag := was;
  Obs.Histogram.observe m_busy ((Unix.gettimeofday () -. t0) *. 1e3)

let env_jobs =
  match Sys.getenv_opt "RCDELAY_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with Some j when j >= 1 -> Some j | _ -> None)

let default_size =
  ref (match env_jobs with Some j -> j | None -> Int.max 1 (Domain.recommended_domain_count ()))

let default_domains () = !default_size

let create ?domains () =
  let size = match domains with Some d -> d | None -> default_domains () in
  if size < 1 then invalid_arg "Pool.create: domains must be >= 1";
  { size; stop = Atomic.make false; submit_mu = Mutex.create () }

let shutdown pool = Atomic.set pool.stop true

let with_pool ?domains f =
  let pool = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let shared : t option ref = ref None
let shared_mu = Mutex.create ()

let get () =
  Mutex.lock shared_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock shared_mu) @@ fun () ->
  match !shared with
  | Some p when p.size = !default_size && not (Atomic.get p.stop) -> p
  | prev ->
      Option.iter shutdown prev;
      let p = create ~domains:!default_size () in
      shared := Some p;
      p

let set_default_domains j =
  if j < 1 then invalid_arg "Pool.set_default_domains: jobs must be >= 1";
  default_size := j

(* a handful of chunks per domain balances uneven item costs without
   drowning small batches in cursor traffic *)
let default_chunk_size n size = Int.max 1 (1 + ((n - 1) / (size * 4)))

(* Up to [k] workers draining [job].  The runtime caps live domains, so
   a spawn can fail: the workers spawned so far and the submitter then
   drain the job without the rest. *)
let spawn_workers job k =
  let rec go k acc =
    if k = 0 then acc
    else
      match Domain.spawn (fun () -> execute job ~submitter:false) with
      | d ->
          Obs.Counter.incr m_spawned;
          go (k - 1) (d :: acc)
      | exception _ -> acc
  in
  go k []

let run ?pool ?chunk ~n body =
  if n > 0 then begin
    let pool = match pool with Some p -> p | None -> get () in
    Obs.Counter.incr m_jobs;
    if pool.size = 1 || !(Domain.DLS.get in_task) then begin
      Obs.Counter.incr m_chunks;
      Obs.Counter.add m_tasks n;
      body 0 n
    end
    else begin
      let chunk_size =
        match chunk with
        | Some c when c >= 1 -> c
        | Some _ | None -> default_chunk_size n pool.size
      in
      let job =
        { run = body; n; chunk_size; cursor = Atomic.make 0; failed = None; jm = Mutex.create () }
      in
      Mutex.lock pool.submit_mu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock pool.submit_mu)
        (fun () ->
          if Atomic.get pool.stop then invalid_arg "Pool: pool already shut down";
          let chunks = 1 + ((n - 1) / chunk_size) in
          let workers = spawn_workers job (Int.min (pool.size - 1) (chunks - 1)) in
          (* joining every worker is the completion barrier: no worker
             can still write a result once [run] returns *)
          Fun.protect
            ~finally:(fun () -> List.iter Domain.join workers)
            (fun () -> execute job ~submitter:true));
      match job.failed with
      | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

let parallel_for ?pool ?chunk ~n f =
  run ?pool ?chunk ~n (fun lo hi ->
      for i = lo to hi - 1 do
        f i
      done)

let map ?pool ?chunk f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    (* index 0 runs in the submitter to seed the result array — the
       same element a serial [Array.map] would evaluate first *)
    let out = Array.make n (f xs.(0)) in
    run ?pool ?chunk ~n:(n - 1) (fun lo hi ->
        for i = lo + 1 to hi do
          out.(i) <- f xs.(i)
        done);
    out
  end

let map_list ?pool ?chunk f xs = Array.to_list (map ?pool ?chunk f (Array.of_list xs))

let map_reduce ?pool ?chunk ~map:fm ~combine ~init xs =
  (* materialize, then fold in index order: the combine sequence is
     fixed whatever the execution interleaving *)
  Array.fold_left combine init (map ?pool ?chunk fm xs)

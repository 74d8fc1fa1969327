(* Persistent domain team: see team.mli for the contract.

   Synchronization is one mutex + two condition variables. Workers park
   in [Condition.wait] between rounds (no spinning — a sharded net on a
   host with fewer cores than shards must degrade, not melt) and wake
   when [run] publishes a new shard cursor. All cursor/bookkeeping
   writes happen with the mutex held, which is also what gives the
   caller its happens-before edge over every shard body's writes. *)

type t = {
  width : int;
  mu : Mutex.t;
  work : Condition.t;  (* workers: new shards published, or stop *)
  finished : Condition.t;  (* caller: all shards of this run done *)
  mutable stop : bool;
  mutable fn : int -> unit;  (* current shard body *)
  mutable next_shard : int;  (* claim cursor *)
  mutable total_shards : int;
  mutable active : int;  (* claimed but unfinished shards *)
  mutable failures : (int * exn) list;  (* (shard, exn), unordered *)
  mutable workers : unit Domain.t list;
  mutable joined : bool;
}

let width t = t.width
let nop (_ : int) = ()

(* Claim and execute shards until the cursor is exhausted. Called with
   [mu] held; returns with [mu] held. Runs on workers and on the caller
   alike. *)
let rec drain t =
  if t.next_shard < t.total_shards then begin
    let k = t.next_shard in
    (* cursor and failure bookkeeping happen with [mu] held (the Mutex
       is the happens-before edge). Which domain claims which shard k
       is scheduling-dependent, but shard bodies write only
       shard-k-owned slots and the caller merges per-shard results in
       shard-index order — the shard-merge determinism boundary
       (DESIGN.md §15) that keeps results independent of scheduling. *)
    t.next_shard <- k + 1;
    t.active <- t.active + 1;
    Mutex.unlock t.mu;
    let failure = match t.fn k with () -> None | exception e -> Some (k, e) in
    Mutex.lock t.mu;
    (match failure with Some f -> t.failures <- f :: t.failures | None -> ());
    t.active <- t.active - 1;
    if t.next_shard >= t.total_shards && t.active = 0 then
      Condition.broadcast t.finished;
    drain t
  end

let worker t =
  Par.with_worker @@ fun () ->
  Mutex.lock t.mu;
  let rec loop () =
    if t.stop then Mutex.unlock t.mu
    else if t.next_shard < t.total_shards then begin
      drain t;
      loop ()
    end
    else begin
      Condition.wait t.work t.mu;
      loop ()
    end
  in
  loop ()

(* Process-lifetime registry of teams, so [at_exit] can join any worker
   domains the program forgot to shut down — a domain left running at
   exit is a runtime error, and parked workers hold no state worth
   keeping.
   lint: allow global-mutable-state — exit-time cleanup registry only:
   appended on team creation, drained at exit; never read by protocol
   code, so it cannot carry state between nodes or rounds. *)
let live : t list Atomic.t = Atomic.make []

let rec register t =
  let cur = Atomic.get live in
  if not (Atomic.compare_and_set live cur (t :: cur)) then register t

let shutdown t =
  if not t.joined then begin
    t.joined <- true;
    Mutex.lock t.mu;
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.mu;
    List.iter Domain.join t.workers;
    t.workers <- []
  end

let shutdown_all () = List.iter shutdown (Atomic.exchange live [])

let () = at_exit shutdown_all

let create ~width =
  let width = max 1 width in
  let t =
    {
      width;
      mu = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      stop = false;
      fn = nop;
      next_shard = 0;
      total_shards = 0;
      active = 0;
      failures = [];
      workers = [];
      joined = width <= 1;
    }
  in
  if width > 1 then begin
    (* lint: allow domain-spawn — the sharded round engine's one spawn
       site (persistent team, spawned once per net, parked between
       rounds). Everything the spawned workers touch is behind the
       shard-merge determinism boundary: shard bodies write only
       shard-owned slots, merges happen in shard-index order on the
       caller, so domains=N stays byte-identical to domains=1. *)
    t.workers <-
      List.init (width - 1) (fun _ -> Domain.spawn (fun () -> worker t));
    register t
  end;
  t

let run t ~shards fn =
  if shards < 0 then invalid_arg "Congest.Team.run: negative shard count";
  if t.joined && t.width > 1 then
    invalid_arg "Congest.Team.run: team is shut down";
  if t.width = 1 || shards <= 1 then begin
    for k = 0 to shards - 1 do
      fn k
    done
  end
  else begin
    Mutex.lock t.mu;
    t.fn <- fn;
    t.failures <- [];
    t.total_shards <- shards;
    t.next_shard <- 0;
    Condition.broadcast t.work;
    drain t;
    while not (t.next_shard >= t.total_shards && t.active = 0) do
      Condition.wait t.finished t.mu
    done;
    let failures = t.failures in
    t.fn <- nop;
    Mutex.unlock t.mu;
    match List.sort (fun (a, _) (b, _) -> Int.compare a b) failures with
    | [] -> ()
    | (_, e) :: _ -> raise e
  end

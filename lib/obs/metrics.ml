(* Fixed-log-bucket scheme: buckets 0..7 are exact, then each octave
   [2^o, 2^(o+1)) splits into 8 sub-buckets. Boundaries depend only on
   these constants, so histograms recorded in different domains or
   processes compare bucket-for-bucket. *)

let subs = 8
let sub_shift = 3 (* log2 subs *)
let bucket_count = 512

let rec log2i v = if v <= 1 then 0 else 1 + log2i (v lsr 1)

let bucket_of v =
  if v <= 0 then 0
  else if v < subs then v
  else begin
    let o = log2i v in
    let idx = subs + ((o - sub_shift) * subs) + ((v lsr (o - sub_shift)) - subs) in
    min idx (bucket_count - 1)
  end

let upper_bound i =
  if i < subs then i
  else begin
    let o = sub_shift + ((i - subs) / subs) in
    let sub = (i - subs) mod subs in
    ((sub + subs + 1) lsl (o - sub_shift)) - 1
  end

type counter = int Atomic.t
type gauge = int Atomic.t

type histogram = {
  hb : int Atomic.t array;
  hsum : int Atomic.t;
  hcount : int Atomic.t;
}

type t = {
  lock : Mutex.t;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  hists : (string, histogram) Hashtbl.t;
}

let create () =
  {
    lock = Mutex.create ();
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    hists = Hashtbl.create 16;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let kind_clash t name =
  (* a name owns exactly one instrument kind, else exports would emit
     the same series twice with different types *)
  if
    Hashtbl.mem t.counters name || Hashtbl.mem t.gauges name
    || Hashtbl.mem t.hists name
  then invalid_arg (Printf.sprintf "Obs.Metrics: %S already registered" name)

let counter t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.counters name with
      | Some c -> c
      | None ->
        kind_clash t name;
        let c = Atomic.make 0 in
        Hashtbl.add t.counters name c;
        c)

let incr c = Atomic.incr c
let add c n = ignore (Atomic.fetch_and_add c n)
let counter_value c = Atomic.get c

let gauge t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.gauges name with
      | Some g -> g
      | None ->
        kind_clash t name;
        let g = Atomic.make 0 in
        Hashtbl.add t.gauges name g;
        g)

let set g v = Atomic.set g v
let gauge_value g = Atomic.get g

let histogram t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.hists name with
      | Some h -> h
      | None ->
        kind_clash t name;
        let h =
          {
            hb = Array.init bucket_count (fun _ -> Atomic.make 0);
            hsum = Atomic.make 0;
            hcount = Atomic.make 0;
          }
        in
        Hashtbl.add t.hists name h;
        h)

let observe h v =
  let v = if v < 0 then 0 else v in
  Atomic.incr h.hb.(bucket_of v);
  ignore (Atomic.fetch_and_add h.hsum v);
  Atomic.incr h.hcount

let labeled name pairs =
  let pairs = List.sort (fun (a, _) (b, _) -> String.compare a b) pairs in
  let b = Buffer.create (String.length name + 16) in
  Buffer.add_string b name;
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b k;
      Buffer.add_string b "=\"";
      String.iter
        (fun c ->
          match c with
          | '"' | '\\' ->
            Buffer.add_char b '\\';
            Buffer.add_char b c
          | '\n' -> Buffer.add_string b "\\n"
          | c -> Buffer.add_char b c)
        v;
      Buffer.add_char b '"')
    pairs;
  Buffer.add_char b '}';
  Buffer.contents b

(* ---- snapshots ---- *)

type hist = { h_count : int; h_sum : int; h_buckets : (int * int) list }

type snapshot = {
  s_counters : (string * int) list;
  s_gauges : (string * int) list;
  s_hists : (string * hist) list;
}

let sorted_bindings tbl read =
  Hashtbl.fold (fun k v acc -> (k, read v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let hist_read h =
  let buckets = ref [] in
  for i = bucket_count - 1 downto 0 do
    let c = Atomic.get h.hb.(i) in
    if c > 0 then buckets := (i, c) :: !buckets
  done;
  { h_count = Atomic.get h.hcount; h_sum = Atomic.get h.hsum; h_buckets = !buckets }

let snapshot t =
  with_lock t (fun () ->
      {
        s_counters = sorted_bindings t.counters Atomic.get;
        s_gauges = sorted_bindings t.gauges Atomic.get;
        s_hists = sorted_bindings t.hists hist_read;
      })

let quantile h q =
  if h.h_count = 0 then 0
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let rank = int_of_float (ceil (q *. float_of_int h.h_count)) in
    let rank = if rank < 1 then 1 else rank in
    let rec walk acc = function
      | [] -> upper_bound (bucket_count - 1)
      | (i, c) :: rest ->
        if acc + c >= rank then upper_bound i else walk (acc + c) rest
    in
    walk 0 h.h_buckets
  end

let find_counter s name = List.assoc_opt name s.s_counters
let find_hist s name = List.assoc_opt name s.s_hists

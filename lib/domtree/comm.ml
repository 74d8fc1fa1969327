module Graph = Graphs.Graph
module Net = Congest.Net

type side = Central of Graph.t | Distributed of Net.t

let graph = function Central g -> g | Distributed net -> Net.graph net
let rounds = function Central _ -> 0 | Distributed net -> Net.rounds net

let failure_flood = function
  | Central _ -> ignore
  | Distributed net ->
    let tree = Congest.Primitives.bfs_tree net ~root:0 in
    let rounds = max 1 (2 * tree.Congest.Primitives.height) in
    fun raised ->
      let value r = if raised && r = 0 then 0 else max_int in
      ignore (Congest.Primitives.flood_min net ~value ~rounds)

type t = {
  round :
    (int -> Net.msg option) ->
    listen:(int -> bool) ->
    (int -> int -> Net.msg -> unit) ->
    unit;
  sweep :
    Multiflood.slots ->
    payload:(int -> int -> int array) ->
    listen:(int -> int -> bool) ->
    ordered:bool ->
    recv:(int -> int -> int -> Net.msg -> unit) ->
    unit;
  component_min :
    unit -> Multiflood.slots -> init:(int -> int -> int) -> int array;
  component_min_on_change :
    Multiflood.slots -> init:(int -> int -> int) -> int array;
}

let distributed net ~max_slots ~classes =
  {
    round =
      (fun send ~listen recv ->
        Net.broadcast_round net send;
        Net.iter_deliveries net (fun r u _ m -> if listen r then recv r u m));
    sweep =
      (fun sl ~payload ~listen:_ ~ordered:_ ~recv ->
        Multiflood.membership_sweep net sl ~payload ~recv);
    component_min =
      (fun () ->
        let buffers = Multiflood.buffers ~slots:max_slots ~classes in
        fun sl ~init -> Multiflood.flood_min ~buffers net sl ~init);
    component_min_on_change = Multiflood.flood_min_on_change net;
  }

(* Sweep payloads live in a flat staging area, one record of [width]
   words per slot (the payload's length, -1 until it is staged, then its
   words), and a delivery hands [recv] a scratch copy of the message of
   the right length: nothing a round or sweep sends outlives it, so
   nothing is promoted. *)
let width = 3

(* [slots sl] is the slot table ({!fill_slots}) of layout [sl] and
   [component sl] the names of its class-components, both read only
   here. *)
let central g ~component ~slots ~classes ~max_slots =
  let n = Graph.n g in
  let csr_off = Graph.csr_offsets g and csr_adj = Graph.csr_neighbors g in
  let words = Array.make (width * max_slots) 0 in
  let scratch = Array.init (width + 1) (fun l -> Array.make l 0) in
  (* slot [s] of node [u]: its message, the class [cls.(s)] and then
     [payload u s], staged at its first delivery. Word loops rather than
     [Array.blit], which writes through [caml_modify] once the arrays
     are in the major heap. *)
  let message payload (cls : int array) u s =
    let x = s * width in
    if words.(x) < 0 then begin
      let p = payload u s in
      let l = Array.length p in
      if l >= width then invalid_arg "Comm: message too long";
      for j = 0 to l - 1 do
        words.(x + 1 + j) <- p.(j)
      done;
      words.(x) <- l
    end;
    let m = scratch.(words.(x) + 1) in
    m.(0) <- cls.(s);
    for j = 1 to Array.length m - 1 do
      m.(j) <- words.(x + j)
    done;
    m
  in
  (* one receiver's deliveries of one class, bucketed by meta-round k:
     the slots [from.(k * max_degree + j)] of the senders
     [sender.(k * max_degree + j)] for [j < count.(k)], in sender order;
     [count] is all zero between walks *)
  let max_degree = ref 0 in
  for r = 0 to n - 1 do
    max_degree := max !max_degree (csr_off.(r + 1) - csr_off.(r))
  done;
  let max_degree = !max_degree in
  let count = Array.make classes 0 in
  let from = Array.make (classes * max_degree) 0 in
  let sender = Array.make (classes * max_degree) 0 in
  let listening = Array.make n false in
  let best = Array.make (classes * n) 0 in
  let component_min () =
    let value = Array.make max_slots 0 in
    fun (sl : Multiflood.slots) ~init ->
      let component = component sl in
      let off = sl.off and cls = sl.cls in
      (* [value.(s)] is first the component of slot [s]'s pair *)
      for r = 0 to n - 1 do
        for s = off.(r) to off.(r + 1) - 1 do
          let k = component ((cls.(s) * n) + r) in
          value.(s) <- k;
          best.(k) <- Multiflood.neutral
        done
      done;
      for r = 0 to n - 1 do
        for s = off.(r) to off.(r + 1) - 1 do
          let k = value.(s) and v = init r s in
          if v < best.(k) then best.(k) <- v
        done
      done;
      for s = 0 to Array.length cls - 1 do
        value.(s) <- best.(value.(s))
      done;
      value
  in
  {
    round =
      (fun send ~listen recv ->
        for r = 0 to n - 1 do
          listening.(r) <- listen r
        done;
        (* sender by sender: each receiver still hears its senders in
           ascending order *)
        for u = 0 to n - 1 do
          match send u with
          | None -> ()
          | Some m ->
            for e = csr_off.(u) to csr_off.(u + 1) - 1 do
              let r = csr_adj.(e) in
              if listening.(r) then recv r u m
            done
        done);
    sweep =
      (fun sl ~payload ~listen ~ordered ~recv ->
        let slot_of = slots sl in
        let off = sl.off and cls = sl.cls in
        for s = 0 to Array.length cls - 1 do
          words.(s * width) <- -1
        done;
        for r = 0 to n - 1 do
          for i = 0 to classes - 1 do
            let row = i * n in
            if not (listen r i) then ()
            else if not ordered then
              for e = csr_off.(r) to csr_off.(r + 1) - 1 do
                let s = slot_of.(row + csr_adj.(e)) in
                if s >= 0 then
                  recv r csr_adj.(e) i (message payload cls csr_adj.(e) s)
              done
            else begin
              let lo = ref max_int and hi = ref (-1) in
              for e = csr_off.(r) to csr_off.(r + 1) - 1 do
                let s = slot_of.(row + csr_adj.(e)) in
                if s >= 0 then begin
                  let k = s - off.(csr_adj.(e)) in
                  from.((k * max_degree) + count.(k)) <- s;
                  sender.((k * max_degree) + count.(k)) <- csr_adj.(e);
                  count.(k) <- count.(k) + 1;
                  if k < !lo then lo := k;
                  if k > !hi then hi := k
                end
              done;
              for k = !lo to !hi do
                for j = k * max_degree to (k * max_degree) + count.(k) - 1 do
                  let u = sender.(j) in
                  recv r u i (message payload cls u from.(j))
                done;
                count.(k) <- 0
              done
            end
          done
        done);
    component_min;
    component_min_on_change = (fun sl ~init -> component_min () sl ~init);
  }

let make side ~component ~slot_of ~classes ~max_slots =
  match side with
  | Central g ->
    central g
      ~component:(fun _ -> component)
      ~slots:(fun _ -> slot_of)
      ~classes ~max_slots
  | Distributed net -> distributed net ~max_slots ~classes

let fill_slots slot_of ~n (sl : Multiflood.slots) =
  Array.fill slot_of 0 (Array.length slot_of) (-1);
  for r = 0 to n - 1 do
    for s = sl.off.(r + 1) - 1 downto sl.off.(r) do
      slot_of.((sl.cls.(s) * n) + r) <- s
    done
  done

(* [label.(i * n + r)] := the pair [i * n + r0] of the least node [r0]
   of [r]'s class-component of [i] in [sl], or [-1] *)
let label_components g ~slot_of (sl : Multiflood.slots) label =
  let n = Graph.n g in
  let csr_off = Graph.csr_offsets g and csr_adj = Graph.csr_neighbors g in
  Array.fill label 0 (Array.length label) (-1);
  let queue = Array.make n 0 in
  for r = 0 to n - 1 do
    for s = sl.off.(r) to sl.off.(r + 1) - 1 do
      let row = sl.cls.(s) * n in
      (* a breadth-first search from each class-component's least node *)
      if label.(row + r) < 0 then begin
        label.(row + r) <- row + r;
        queue.(0) <- r;
        let head = ref 0 and tail = ref 1 in
        while !head < !tail do
          let u = queue.(!head) in
          incr head;
          for e = csr_off.(u) to csr_off.(u + 1) - 1 do
            let v = csr_adj.(e) in
            if slot_of.(row + v) >= 0 && label.(row + v) < 0 then begin
              label.(row + v) <- row + r;
              queue.(!tail) <- v;
              incr tail
            end
          done
        done
      end
    done
  done

let make_labelled side ~classes ~max_slots =
  match side with
  | Distributed net -> distributed net ~max_slots ~classes
  | Central g ->
    let n = Graph.n g in
    let slot_of = Array.make (classes * n) (-1) in
    let label = Array.make (classes * n) (-1) in
    let slots sl =
      fill_slots slot_of ~n sl;
      slot_of
    in
    let component sl =
      label_components g ~slot_of:(slots sl) sl label;
      Array.get label
    in
    central g ~component ~slots ~classes ~max_slots

let write_atomic ~path content =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Domain.self () :> int) in
  let oc = open_out_bin tmp in
  (try
     output_string oc content;
     close_out oc;
     Sys.rename tmp path
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e)

let write ~path content = write_atomic ~path content

let with_file ~path f =
  let b = Buffer.create 4096 in
  let result =
    f (fun line ->
        Buffer.add_string b line;
        Buffer.add_char b '\n')
  in
  (* buffered until success: an exception above leaves no artifact *)
  write_atomic ~path (Buffer.contents b);
  (* announce on stderr: stdout is the sweep's document *)
  Format.eprintf "csv artifact: %s@." path;
  result

let with_csv ~path ~header f =
  with_file ~path (fun emit ->
      emit header;
      f emit)

(* ------------------------------------------------------------------ *)
(* JSON *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec render b indent j =
  let pad n = String.make n ' ' in
  match j with
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int v -> Buffer.add_string b (string_of_int v)
  | Float v ->
    (* JSON has no nan/inf literals *)
    if not (Float.is_finite v) then Buffer.add_string b "null"
    else Buffer.add_string b (Printf.sprintf "%.6g" v)
  | String s ->
    Buffer.add_char b '"';
    Buffer.add_string b (escape s);
    Buffer.add_char b '"'
  | List [] -> Buffer.add_string b "[]"
  | List items ->
    Buffer.add_string b "[";
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string b ", ";
        render b indent item)
      items;
    Buffer.add_string b "]"
  | Obj [] -> Buffer.add_string b "{}"
  | Obj fields ->
    Buffer.add_string b "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ",\n";
        Buffer.add_string b (pad (indent + 2));
        Buffer.add_char b '"';
        Buffer.add_string b (escape k);
        Buffer.add_string b "\": ";
        render b (indent + 2) v)
      fields;
    Buffer.add_char b '\n';
    Buffer.add_string b (pad indent);
    Buffer.add_char b '}'

let json_to_string j =
  let b = Buffer.create 512 in
  render b 0 j;
  Buffer.add_char b '\n';
  Buffer.contents b

(* Trajectory mirror: BENCH_*.json run reports are gitignored (they
   are machine-local measurements), but the repo tracks one snapshot of
   each under bench/trajectory/ so perf history survives in git. Any
   sweep run from the repo root refreshes its snapshot as a side
   effect; from any other cwd the directory is absent and the mirror
   is skipped. *)
let trajectory_dir = Filename.concat "bench" "trajectory"

let mirror_trajectory ~path content =
  let base = Filename.basename path in
  if
    String.length base > 6
    && String.sub base 0 6 = "BENCH_"
    && Filename.check_suffix base ".json"
    && (try Sys.is_directory trajectory_dir with Sys_error _ -> false)
  then begin
    let snap = Filename.concat trajectory_dir base in
    write_atomic ~path:snap content;
    Format.eprintf "trajectory snapshot: %s@." snap
  end

let write_json ~path j =
  let content = json_to_string j in
  write_atomic ~path content;
  Format.eprintf "bench artifact: %s@." path;
  mirror_trajectory ~path content

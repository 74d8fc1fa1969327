(* v2: Stats request/response opcodes and the journal fields on
   Health_report — a v1 peer would mis-decode both, so the frame
   version gates them out. v3: the CRC covers the length field as well
   as the payload, so a v2 peer would reject every frame. *)
let version = 3
let default_max_len = 4 * 1024 * 1024
let overhead = 1 + 4 + 4

(* CRC-32 (IEEE, reflected): the table is computed once at module init
   and never written again. *)
let crc_table =
  let t = Array.make 256 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  t

let crc_step c byte = crc_table.((c lxor byte) land 0xff) lxor (c lsr 8)

let crc_string c s =
  let c = ref c in
  String.iter (fun ch -> c := crc_step !c (Char.code ch)) s;
  !c

let crc32 s = crc_string 0xFFFFFFFF s lxor 0xFFFFFFFF

(* A frame's CRC runs over its big-endian length field and then its
   payload. Over the payload alone, [crc32 "" = 0] would make the nine
   bytes [version; 0 x 8] a valid empty frame, which a zeroed or forged
   header produces. *)
let frame_crc n payload =
  let c = ref 0xFFFFFFFF in
  for k = 3 downto 0 do
    c := crc_step !c ((n lsr (8 * k)) land 0xff)
  done;
  crc_string !c payload lxor 0xFFFFFFFF

let encode payload =
  let n = String.length payload in
  let b = Buffer.create (n + overhead) in
  Buffer.add_char b (Char.chr version);
  Buffer.add_int32_be b (Int32.of_int n);
  Buffer.add_string b payload;
  Buffer.add_int32_be b (Int32.of_int (frame_crc n payload));
  Buffer.contents b

let try_decode ?(max_len = default_max_len) ?(pos = 0) buf ~len =
  let avail = len - pos in
  if avail < 1 then `Need_more
  else begin
    let v = Char.code (Bytes.get buf pos) in
    if v <> version then
      `Error (Printf.sprintf "bad frame version %d (want %d)" v version)
    else if avail < 5 then `Need_more
    else begin
      let n = Int32.to_int (Bytes.get_int32_be buf (pos + 1)) land 0xFFFFFFFF in
      if n > max_len then
        `Error (Printf.sprintf "frame length %d exceeds cap %d" n max_len)
      else if avail < overhead + n then `Need_more
      else begin
        let payload = Bytes.sub_string buf (pos + 5) n in
        let crc =
          Int32.to_int (Bytes.get_int32_be buf (pos + 5 + n)) land 0xFFFFFFFF
        in
        if crc <> frame_crc n payload then `Error "frame CRC mismatch"
        else `Frame (payload, overhead + n)
      end
    end
  end

let write_frame fd payload =
  let frame = Bytes.of_string (encode payload) in
  let total = Bytes.length frame in
  let off = ref 0 in
  while !off < total do
    off := !off + Unix.write fd frame !off (total - !off)
  done


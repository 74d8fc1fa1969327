(** Length-prefixed binary framing with a version byte and a per-frame
    CRC.

    Frame layout (all integers big-endian):

    {v
      +---------+-----------+------------------+--------------+
      | version | length u32| payload (length) | crc32 u32    |
      |   u8    |           |                  | (of length   |
      |         |           |                  |  and payload)|
      +---------+-----------+------------------+--------------+
    v}

    The decoder is incremental — it is fed a connection's receive
    buffer and either produces one complete frame (plus how many bytes
    it consumed), asks for more bytes, or reports a malformation. A
    malformed stream (wrong version, oversized length, CRC mismatch)
    cannot be resynchronized, so the daemon answers one structured
    error frame and closes that connection; other connections are
    unaffected. *)

(** Protocol version carried by every frame. *)
val version : int

(** Default cap on a frame's payload size (4 MiB). A forged length
    field beyond the cap is rejected before any allocation. *)
val default_max_len : int

(** Bytes of framing overhead around a payload (version + length +
    CRC). *)
val overhead : int

(** CRC-32 (IEEE 802.3, reflected, as in zlib) of a string — exposed
    for tests; [crc32 "123456789" = 0xCBF43926]. *)
val crc32 : string -> int

(** [encode payload] wraps [payload] in a complete frame. *)
val encode : string -> string

(** [try_decode ?max_len ?pos buf ~len] inspects bytes [pos..len-1] of
    [buf] ([pos] defaults to [0]): [`Frame (payload, consumed)] on a
    complete, CRC-valid frame starting at [pos]; [`Need_more] when the
    buffer holds a valid prefix; [`Error _] when the stream is
    malformed beyond recovery. [pos] lets a reader walk a whole file of
    concatenated frames — the {!Journal} replays its segments this way
    — without shifting the buffer after every frame. *)
val try_decode :
  ?max_len:int ->
  ?pos:int ->
  bytes ->
  len:int ->
  [ `Frame of string * int | `Need_more | `Error of string ]

(** [write_frame fd payload] writes one complete frame (blocking).
    There is deliberately no blocking [read_frame] dual: a single
    kernel read may return several pipelined frames, so every reader —
    server and client alike — must keep a persistent buffer and drain
    it through {!try_decode}, or bytes past the first frame would be
    silently dropped. *)
val write_frame : Unix.file_descr -> string -> unit

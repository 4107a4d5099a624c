(** The canonical encoding of SSMFP configurations: model-checker keys
    and snapshot-cut fingerprints come from this one writer.

    A value of type {!t} is a reusable scratch encoder. The explorer
    ({!Par}) resets it and lets the model write a (configuration,
    monitor) key with the [add_*] primitives; the snapshot layer resets
    it per captured piece (one process view, one channel) and folds the
    piece hashes into a cut fingerprint with {!combine}. {!encode} is
    SSMFP's key: it serializes the canonical abstraction (ghost
    identities and the [rr] cursor absent, message occurrences reduced
    to the visible (info, last, color) triple plus validity, the
    delivery counter clamped at 2) into a growable [Bytes] buffer with
    varint fields, maintaining a 64-bit FNV-1a hash incrementally as
    bytes are written. Between two {!encode} calls nothing is allocated
    once the buffer has grown to the size of the largest configuration,
    so keying a successor costs only the serialization walk.

    Every field is a tagged byte or length-prefixed, and the state and
    slot counts are fixed by the network, so the encoding is injective:
    two configurations produce equal key bytes iff they are equal under
    the canonical abstraction. The equivalence classes coincide with
    those of {!string_key} (pinned by the differential test in
    [test_mc_core.ml]). *)

type t
(** A scratch encoder. Not thread-safe: use one per domain. *)

val create : unit -> t
(** A fresh encoder with a 256-byte buffer. *)

val reset : t -> unit
(** Empty the encoder (keeps the buffer). {!encode} calls this itself. *)

val encode : t -> Ssmfp.State.t array -> delivered:int -> unit
(** Serialize a configuration and its (clamped) valid-delivery counter,
    replacing the encoder's previous contents. *)

val length : t -> int
(** Bytes written since the last {!reset}. *)

val raw : t -> Bytes.t
(** The scratch buffer; only the first {!length} bytes are meaningful,
    and the next {!encode} invalidates them. *)

val key : t -> string
(** An immutable copy of the encoded key (allocates). *)

val hash : t -> int
(** The incremental FNV-1a hash of the encoded bytes. Equal keys have
    equal hashes; the converse holds modulo 63-bit collisions, so stores
    must compare keys after matching hashes. *)

val add_byte : t -> int -> unit
(** Append one byte (low 8 bits). *)

val add_int : t -> int -> unit
(** Append a native int as unsigned LEB128 (a bijection on ints;
    negative values take the maximal 9 bytes). *)

val add_string : t -> string -> unit
(** Append a length-prefixed string (how the PIF model writes its
    canonical phase strings). *)

val add_bool : t -> bool -> unit
(** Append one byte, 1 or 0. *)

val add_msg : t -> Ssmfp.Message.t option -> unit
(** Tag 0 = empty, 1 = invalid, 2 = valid; then the visible triplet.
    Ghost ids are deliberately excluded. *)

val add_core : t -> Ssmfp.State.t -> unit
(** One SSMFP state: request flag, routing entries, outbox length, per
    slot the two buffers and the fairness queue. {!encode} writes one
    per processor. *)

val fnv_offset : int
(** The FNV-1a offset basis: the hash of no bytes, and the seed of a
    {!combine} fold. *)

val combine : int -> int -> int
(** [combine h v] folds the 8 little-endian bytes of [v] into the
    running FNV-1a hash [h]. *)

val string_key : Ssmfp.State.t array -> delivered:int -> string
(** A human-readable rendering of the same canonical abstraction —
    manual buffer writes, no [Printf] — kept as the tests' reference for
    the codec: the key differential searches with a model whose encoder
    writes these bytes. *)

val hash_string : string -> int
(** FNV-1a over a string: equals {!hash} after writing the same bytes
    with {!add_byte}. *)

val key_order :
  hash_a:int -> key_a:string -> hash_b:int -> key_b:string -> int
(** Total canonical order on keyed configurations: fingerprint first,
    key bytes on ties. A pure function of the key — electing minima
    under it makes witness choice independent of traversal order. *)

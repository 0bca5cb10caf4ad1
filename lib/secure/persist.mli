(** Persistence of a hosted system.

    Saves everything expensive to rebuild — ciphertext blocks, the DSI
    index table, the encryption block table, the value B-tree entries
    and the OPESS catalogs — in a small versioned binary format, so a
    hosted database can be created once and queried across process
    lifetimes (the sxq CLI's [host -o] / [query --hosted]).

    The master secret is {e never} written: {!load} takes it again and
    re-derives every key.  Loading re-runs only the cheap parts
    (skeleton indexing, server hash tables).  The DSI assignment is
    stored, not recomputed — incremental deltas patch intervals in
    place with gap draws no key can reproduce.

    Incremental updates extend a bundle with an {e append-only delta
    log} ([path ^ ".log"]): each {!System.apply_delta} appends one
    MAC'd record (sequence number, the edit, a keyed digest of the
    post-edit document) instead of rewriting the whole bundle; see
    {!journal_open}.  Crash recovery replays pending records in memory
    and validates every digest before the system is served.

    The on-disk frame is [magic | body length | body | HMAC-SHA-256],
    the MAC keyed from the master secret.  The explicit body length
    lets {!load} and {!verify} distinguish a {e torn write} (the file
    stops before its declared end — a crash, not an attack) from
    {e tampering} (right length, wrong MAC).  {!save} is crash-safe:
    it writes a [.tmp] sibling, fsyncs, and atomically renames, so an
    interruption at any byte offset leaves the previous bundle
    loadable. *)

exception Corrupt of string
(** Raised by {!load} on bad magic, torn writes, truncation or MAC
    failure; the message distinguishes torn from tampered. *)

val save : ?applied_seq:int -> System.t -> string -> unit
(** [save system path] writes the hosted bundle atomically
    (tmp + fsync + rename).  [applied_seq] (default 0) stamps the last
    delta-log sequence number this bundle already incorporates; replay
    skips records at or below it. *)

val load : master:string -> string -> System.t
(** [load ~master path] restores the system (the bundle only — pending
    delta-log records are NOT replayed; use {!journal_open} for that).
    @raise Corrupt on any integrity problem (including a wrong
    master). *)

val load_seq : master:string -> string -> System.t * int
(** Like {!load}, also returning the bundle's applied sequence
    number. *)

val to_string : ?applied_seq:int -> System.t -> string
(** In-memory encoding (what {!save} writes). *)

val of_string : master:string -> string -> System.t
(** In-memory decoding (what {!load} reads). *)

(** {2 Verification (fsck for hosted bundles)} *)

type verdict =
  | Intact
  | Torn of { expected_bytes : int; actual_bytes : int }
      (** the file stops before its declared end: an interrupted write *)
  | Tampered
      (** framing complete but the HMAC trailer does not verify *)
  | Malformed of string
      (** structurally undecodable despite correct framing *)

val verdict_to_string : verdict -> string

type section_status = Section_ok | Section_failed of string | Section_unreached

type report = {
  file_bytes : int;
  verdict : verdict;
  sections : (string * section_status) list;
      (** per body section, in on-disk order; decoding stops at the
          first failure, localising a tear or flip to one section *)
  blocks_total : int;
  blocks_bad : (int * string) list;
      (** blocks whose authentication tag or decryption fails *)
}

val verify : master:string -> string -> report
(** Never raises: every defect is reported in the verdict/sections.
    Section decoding is attempted even on torn or tampered files to
    localise the damage. *)

val verify_file : master:string -> string -> report

val section_offsets : System.t -> (string * int) list
(** Byte offset (within the full file) at which each body section of
    [system]'s encoding ends — the section boundaries a torn write can
    land on.  Used by the truncation tests and {!verify}
    diagnostics. *)

(** {2 Append-only delta log}

    [path ^ ".log"] holds one MAC'd record per incremental update:
    [magic | record*] with each record
    [i64 payload length | payload | HMAC-SHA-256 over length+payload].
    Appends are fsynced whole, so a crash can only truncate — a
    {e torn} tail whose complete prefix stays recoverable — while any
    bit flip inside a complete record fails its MAC: {e tampered}, a
    hard error.  Compaction ({!journal_compact}, automatic past the
    journal's size threshold) folds the log into a freshly saved
    bundle and removes it. *)

type log_record = {
  seq : int;             (** 1-based, strictly consecutive *)
  edit : Update.edit;
  digest : string;       (** keyed digest of the post-edit document *)
}

type log_tail =
  | Log_clean
  | Log_torn of { clean_bytes : int; dropped_bytes : int }
      (** the file ends mid-record: a crash artifact, recoverable by
          dropping [dropped_bytes] *)

val log_path : string -> string
(** The log sibling of a bundle path ([path ^ ".log"]). *)

val doc_digest : master:string -> Xmlcore.Doc.t -> string
(** The keyed document digest stored in (and validated against) log
    records. *)

val append_record : master:string -> string -> log_record -> unit
(** [append_record ~master bundle_path record] appends one record to
    the bundle's log (creating it with its magic header on first use)
    and fsyncs before returning. *)

val read_log : master:string -> string -> log_record list * log_tail
(** Decode a log file's contents: the complete, authenticated records
    plus the tail classification.
    @raise Corrupt on tampering (MAC mismatch, undecodable payload,
    bad magic) — never on a torn tail. *)

(** {2 Journal: bundle + log as one recoverable unit} *)

type journal

val journal_open :
  ?compact_threshold:int -> master:string -> string -> journal
(** Open a saved bundle together with its delta log: load the bundle,
    drop (and truncate away) a torn log tail, then replay every record
    newer than the bundle's applied sequence number in memory —
    validating consecutive numbering and every post-edit digest — so a
    half-applied or divergent delta is never served.
    [compact_threshold] (default 1 MiB) bounds the log: an update that
    grows it past the threshold triggers {!journal_compact}.
    @raise Corrupt on a tampered log, a sequence gap or a digest
    divergence (the on-disk state is left untouched). *)

val journal_system : journal -> System.t
(** The live system, all pending deltas applied. *)

val journal_seq : journal -> int
(** Sequence number of the last applied update. *)

val journal_update : journal -> Update.edit -> System.delta_cost
(** Plan the edit once ({!Update.delta}), append its log record
    (fsynced) with the digest of the planned document, then apply the
    plan incrementally ({!System.apply_plan}), and compact if the log
    outgrew the threshold.  An edit that fails to append — an impossible edit
    ([Invalid_argument] from {!Update.delta}, raised before anything is
    appended) or an I/O error ([Sys_error]) — leaves {!journal_system}
    and {!journal_seq} unchanged, so the next update continues the log
    without a gap.  A
    crash after the append keeps the edit: {!journal_open} replays
    it.  With the hosting's tracer enabled, the digest and the append
    are the [persist.digest] and [persist.append] spans, followed by
    {!System.apply_plan}'s [delta.apply]. *)

val journal_compact : journal -> unit
(** Fold the log into the bundle: {!save} with the current applied
    sequence number, then remove the log. *)

(** {2 Log fsck} *)

type log_fsck = {
  log_bytes : int;
  log_records : int;        (** complete, authenticated records *)
  log_pending : int;        (** records newer than the bundle's applied-seq *)
  log_dropped_bytes : int;  (** torn-tail bytes (0 when clean) *)
  log_fatal : string option;
      (** tampering or malformed framing — a hard error *)
  log_replay : string option;
      (** replay-validation failure; [None] when replay succeeded or
          the bundle itself is unusable (its own verdict tells that
          story) *)
}

val fsck_log : master:string -> string -> log_fsck option
(** [fsck_log ~master bundle_path] checks the bundle's delta log,
    replaying pending records in memory to validate them; [None] when
    no log exists.  Never raises. *)

(** End-to-end hosted database system — Figure 1's architecture in one
    process, with per-phase cost accounting.

    {!setup} plays the data owner uploading to the service provider:
    build the scheme for the SCs, encrypt, build metadata, hand the
    server its view.  {!evaluate} runs one round trip of the protocol
    and times each phase separately (the quantities of Section 7.2):
    client translation, server evaluation, transmission (modelled by
    byte counts at a configurable link speed), client decryption and
    client post-processing.

    Every read is one call of {!read}, and every read crosses the
    wire: the client and the server meet only through framed, verified
    messages, as in Figure 1, and the server's view is what the
    endpoint decoded.  The request kinds differ only in what they send
    and how the client evaluates the shipment; one round, one client
    step (decrypt, post-process) and one function each making the
    ledger row and the {!cost} record serve them all, so their ledger
    rows carry the same fields.  {!Naive} is the Section 7.3 baseline: the
    client fetches every block, decrypts everything and evaluates
    locally.

    A hosting is superseded by {!update}, {!rotate} or {!apply_delta}.
    Observers registered with {!on_succession} are handed the
    successor, which is how {!Engine} follows its hosting.  Superseding
    mutates nothing a hosting reads, so a superseded hosting keeps
    answering its own document. *)

type t

type cost = {
  translate_ms : float;
  server_ms : float;
  transmit_bytes : int;
  transmit_ms : float;     (** [transmit_bytes] at {!link_bytes_per_ms} *)
  decrypt_ms : float;
  postprocess_ms : float;
  blocks_returned : int;
  answer_count : int;
  attempts : int;
      (** session-layer transport attempts this query cost (1 = clean) *)
  retransmitted_bytes : int;
      (** frame bytes re-sent by retries (robustness overhead) *)
  faults_absorbed : int;
      (** transport faults survived by the session layer *)
  replays : int;
      (** repeats of an answered request the endpoint replayed this
          query — retransmitted frames the server linked with certainty *)
  degraded : bool;
      (** the query round gave up and {!evaluate}'s naive round
          answered *)
}

val total_ms : cost -> float

val link_bytes_per_ms : float
(** Modelled link speed: 100 Mbps, as in the paper's testbed. *)

type setup_cost = {
  scheme_build_ms : float;
  encrypt_ms : float;
  metadata_ms : float;
  scheme_size_nodes : int;    (** Definition 4.1 size *)
  block_count : int;
  server_data_bytes : int;    (** skeleton + ciphertexts + headers *)
  metadata_bytes : int;
}

val setup :
  ?master:string ->
  ?cipher:Crypto.Cipher.suite ->
  ?pool:Parallel.Pool.t ->
  Xmlcore.Doc.t -> Sc.t list -> Scheme.kind -> t * setup_cost
(** When [pool] is given, block encryption and OPESS catalog building
    fan out across its domains during hosting, and the system keeps the
    pool for the decryption of each read's shipped blocks.  All
    outputs — ciphertexts, metadata, answers — are byte-identical to a
    pool-less setup; systems derived by {!update} / {!rotate} /
    {!apply_delta} inherit the pool.
    @raise Invalid_argument when the scheme cannot enforce the SCs
    (should not happen for the four built-in kinds). *)

val restore :
  master:string -> ?cipher:Crypto.Cipher.suite -> ?pool:Parallel.Pool.t ->
  doc:Xmlcore.Doc.t ->
  constraints:Sc.t list -> scheme:Scheme.t -> db:Encrypt.db ->
  metadata:Metadata.t -> unit -> t
(** Rebuild a live system from persisted parts without re-running
    scheme construction, encryption or metadata building (see
    {!Persist}). *)

val doc : t -> Xmlcore.Doc.t

val master : t -> string
(** The owner's master secret (client side only — needed by {!Persist}
    to authenticate saved bundles). *)

val cipher : t -> Crypto.Cipher.suite
(** The block-cipher suite the system was hosted under. *)

val constraints : t -> Sc.t list
val scheme : t -> Scheme.t
val db : t -> Encrypt.db
val metadata : t -> Metadata.t
val client : t -> Client.t
val server : t -> Server.t

val pool : t -> Parallel.Pool.t option
(** The domain pool this system parallelises over, if any. *)

val generation : t -> int
(** Monotone hosting counter: every {!setup} / {!restore} result gets a
    fresh generation.  Anything derived from a system's ciphertext
    artifacts (cached plans, memoised candidates, decrypted blocks) is
    valid for exactly one generation. *)

type delta_event = {
  touched_blocks : (int * int * int) list;
      (** (block id, old generation, new generation) for every block
          re-encrypted by a delta *)
  dropped_blocks : (int * int) list;
      (** (block id, old generation) for blocks removed outright *)
  structural : bool;
      (** node ids shifted (insert/delete) — value-position artifacts
          like memoised query results must be revalidated even for
          untouched blocks *)
}
(** Block-level changelist of one {!apply_delta}: the granularity at
    which derived artifacts (decrypted-block caches) can be invalidated
    selectively instead of wholesale. *)

val on_succession : t -> (t -> delta_event option -> unit) -> unit
(** [on_succession t f] registers an observer of this hosting.  When
    {!update}, {!rotate} or {!apply_delta} supersedes it, every
    observer is called once (then dropped) with the successor and the
    delta's changelist — [None] for a full re-host, after which every
    derived ciphertext artifact is stale; [Some] for a delta, so
    observers keep artifacts derived from untouched blocks.  An
    observer that wants to follow the successor registers on it.
    {!with_faults} and {!reset_link} share the observers of the system
    they rewire. *)

(** {2 Transport faults and the session layer}

    Every {!read} round trip is framed by {!Session} (sequence
    numbers + HMAC trailer) and crosses a {!Transport}.  A freshly
    {!setup} or {!restore}d system uses a perfect loopback; rewire it
    with {!with_faults} to exercise the retry and degradation
    machinery under a deterministic chaos schedule. *)

val with_faults :
  ?max_attempts:int -> profile:Transport.profile -> seed:int64 -> t -> t
(** [with_faults ~profile ~seed t] shares [t]'s server state but
    routes the wire path through {!Transport.faulty}; [max_attempts]
    is the new session's tries per call ({!Session.client}).  Systems
    derived by {!update} / {!rotate} revert to the perfect loopback. *)

val reset_link :
  ?max_attempts:int -> ?faults:Transport.profile * int64 -> t -> t
(** Tear the current link down and re-establish it: the old session is
    {!Session.close}d (it refuses further calls with [Error Closed]),
    and the returned system carries a fresh session {e and} a fresh
    endpoint, so the exchange the previous incarnation stored cannot
    leak across — a retransmit of a pre-reset frame is a fresh request
    to the new endpoint, never a replay.  [faults] rewires the new
    link through {!Transport.faulty}; omitting it yields a perfect
    loopback (how a tripped tenant repairs itself).  Server state,
    ledger, tracer and succession observers are shared with [t]. *)

val session_stats : t -> Session.stats
val transport_stats : t -> Transport.stats
val endpoint_stats : t -> Session.endpoint_stats

(** {2 Observability}

    Each hosted system carries a tracer (shared with its server, so
    [server.*] spans nest inside [system.*] ones) and a leakage ledger
    recording per-round server-visible facts.  Both start disabled and
    cost one boolean test per instrumentation point; enable them with
    [Obs.Trace.set_enabled] / [Obs.Ledger.set_enabled].
    {!with_faults} shares both with the system it rewires.
    See docs/OBSERVABILITY.md. *)

val tracer : t -> Obs.Trace.t
val ledger : t -> Obs.Ledger.t

(** {2 Reads}

    One function, {!read}, makes every read: each request kind is one
    or more framed, verified rounds on the link, served by the
    endpoint behind it, and records one ledger row (label in
    brackets).  {!evaluate} adds the degradation rung on top. *)

type request =
  | Query of Xpath.Ast.path
      (** the paper's protocol (["evaluate"], span [system.evaluate]) *)
  | Union of Xpath.Ast.path list
      (** union query ([p1 | p2 | ...], cf. {!Xpath.Parser.parse_union}):
          one round per branch, one combined decryption and a
          node-deduplicated union evaluation; [translate_ms] sums the
          branches' translations (["union"], [system.evaluate_union]) *)
  | Padded of Xpath.Ast.path * int list
      (** {!Query} through {!Protocol.Padded}: the server widens the
          shipment with the listed pad blocks (unknown and already
          shipped ids skipped), so answers are those of the unpadded
          round while the traffic shape moves toward the envelope; used
          by the {!Mitigate} layer ([lib/attack]) (["padded"],
          [system.evaluate_padded]) *)
  | Extreme of [ `Min | `Max ] * Xpath.Ast.path
      (** MIN/MAX (Section 6.4) through {!Protocol.encode_extreme}: OPE
          order in the value index locates the extreme encrypted
          occurrence, so at most one block ships and is decrypted
          (["aggregate"], [system.aggregate]).  A query with a value
          predicate, or whose output is not an indexed attribute, makes
          a {!Query} round instead, its row an ["evaluate"] row and its
          cost the query round's.  The reply's answers are the leaf
          holding the extreme value (ties: the first in document order;
          none when the query selects no leaf).  Numeric comparison is
          used when values parse as numbers.  COUNT cannot be pushed to
          the server — splitting and scaling distort index entry counts
          — so it is the length of a {!Query} reply. *)
  | Naive of Xpath.Ast.path
      (** the Section 7.3 baseline: a {!Protocol.Fetch} of every hosted
          block ({!block_ids}), all decrypted, the query evaluated on
          the client (["naive"], [system.naive_evaluate]) *)
  | Fetch of int list
      (** cover traffic: the blocks cross the wire and are discarded
          undecrypted — no answers, no decryption cost (["fetch"],
          [system.fetch]) *)

type reply = {
  answers : Xmlcore.Tree.t list;  (** in document order *)
  cost : cost;
}

val read : t -> request -> (reply, Session.error) result
(** One read over the link, strict: [Error (Gave_up _)] once the
    session layer exhausts its attempts on any of its rounds, and
    never a raise on transport faults.  Answers are exact:
    [Q(δ(Qs(η(D)))) = Q(D)]. *)

exception Unavailable of Session.error
(** Raised by {!evaluate} when both of its rungs failed. *)

val evaluate : t -> Xpath.Ast.path -> Xmlcore.Tree.t list * cost
(** [read t (Query q)], with the degradation rung: when that round
    fails, one {!Naive} round over the same link, labelled
    ["degraded"] (span [system.degraded]), with [cost.degraded = true]
    and the failed round's session counters added to its own.  Answers
    are exact either way.
    @raise Unavailable when the naive round fails too. *)

val block_ids : t -> int list
(** Ids of every hosted block, sorted, from the client's own record of
    the hosting: what a {!Naive} read fetches, and the universe a
    padding envelope or cover fetch draws from.  Block ids are already
    server-visible. *)

val reference : t -> Xpath.Ast.path -> Xmlcore.Tree.t list
(** Ground truth: the query evaluated directly on the plaintext
    document (what [Q(D)] returns). *)

val reference_union : t -> Xpath.Ast.path list -> Xmlcore.Tree.t list

val reference_aggregate : t -> [ `Min | `Max ] -> Xpath.Ast.path -> string option
(** Ground-truth aggregate on the plaintext document: the leaf value an
    {!Extreme} reply holds. *)

(** {2 Updates (the paper's future-work item 3)}

    The re-host strategy: apply the edit to the owner's plaintext,
    then rebuild scheme, blocks and metadata under the same master key
    and constraints.  Always secure — enforcement is re-checked — at
    full setup cost; {!apply_delta} below is the incremental protocol
    that pays per touched block instead. *)

val update : t -> Update.edit -> t * setup_cost
(** Apply one edit and re-host; the {!on_succession} observers get the
    result with [None].
    @raise Invalid_argument on impossible edits (see {!Update.apply})
    or if the edited document no longer satisfies setup's checks. *)

val rotate : t -> new_master:string -> t * setup_cost
(** Re-host under a fresh master secret: every derived key, pad, OPE
    mapping and DSI weight changes; bundles persisted under the old
    master no longer authenticate.  Observers are handed the result as
    for {!update}. *)

(** {2 Incremental delta updates}

    {!apply_delta} makes update cost proportional to the delta instead
    of the database: only blocks containing an edit site are
    re-encrypted (each under a bumped per-block generation, so nonces
    never repeat), the DSI interval tables and OPESS catalogs are
    patched, the touched attributes' index trees are rebuilt, and
    untouched ciphertexts, table rows and index trees are shared with
    the superseded hosting.  Security is preserved by an explicit
    fallback ladder: whenever the incremental path cannot be both
    correct and secure (the remapped scheme stops enforcing an SC,
    attribute or interval space runs out), the edit is applied by the
    always-secure full re-host instead. *)

type delta_cost = {
  plan_ms : float;               (** edit planning + correspondence walk *)
  reencrypt_ms : float;
      (** touched-block re-encryption, and the database patched around
          the new blocks ({!Encrypt.patch}) *)
  patch_ms : float;              (** metadata surgery ({!Metadata.patch}) *)
  blocks_touched : int;          (** blocks re-encrypted *)
  blocks_dropped : int;          (** blocks removed with deleted subtrees *)
  blocks_total : int;            (** blocks before the edit *)
  reencrypted_bytes : int;       (** ciphertext bytes re-produced *)
  rows_removed : int;            (** DSI table rows recomputed away *)
  rows_added : int;              (** DSI table rows added back *)
  catalogs_patched : int;        (** OPESS catalogs examined/rebuilt *)
  index_entries_touched : int;
      (** value-index entries of the keys whose entry list changed,
          old plus new *)
  fell_back : bool;              (** the edit went through a full re-host *)
}

val apply_delta : t -> Update.edit -> t * delta_cost
(** Apply one edit incrementally.  Answers over the result are exactly
    those of a fresh {!setup} of the edited document (pinned by the
    differential suite); server-visible artifacts differ only in the
    touched blocks.  Hands the {!on_succession} observers the result
    with the block changelist (or, when falling back, with [None] via
    {!update}).  The superseded system is left as it was: it keeps
    answering its own document, sharing with the result only what the
    edit did not change.
    @raise Invalid_argument on edits {!Update.delta} cannot plan (the
    impossible edits of {!Update.apply}), before any work is done. *)

val apply_plan : t -> Update.plan -> plan_ms:float -> t * delta_cost
(** The second half of {!apply_delta}: apply an edit that
    {!Update.delta} already planned against [doc t], so a caller that
    needs the edited document first (the journal digests it before
    appending) plans once.  [plan_ms] is the planning time to report.
    A plan made against another document (detected by its node count)
    or one the incremental path cannot absorb falls back to {!update}
    of [plan.edit], as in {!apply_delta}.

    The successor is built from [t] part by part — {!Encrypt.patch},
    {!Metadata.patch}, {!Server.patch}, {!Client.patch} — never
    re-hosted; only {!setup} and {!restore} build a hosting anew.  With
    [tracer t] enabled, the call is a [delta.apply] span holding
    [delta.enforce] (the full {!Scheme.enforces} check of the edited
    document), [delta.reencrypt], [delta.patch], [delta.server] and
    [delta.client]. *)

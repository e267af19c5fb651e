(** Four-ary min-heap of timestamped entries.

    Entries are ordered by [key] (simulation time) and, for equal keys,
    by [seq]. Seq values must be unique: the engine numbers events in
    scheduling order, so simultaneous events fire in FIFO order. With
    unique seqs the [(key, seq)] order is total, and the pop sequence
    depends on that order alone, never on the heap's internal layout.

    Two access styles coexist: the boxed {!pop}/{!peek_key} return
    options (convenient in tests and cold paths), while the unboxed
    {!next_time}/{!pop_exn} pair serves the engine's hot loop without
    allocating. Internally the heap sifts only unboxed data (a [float]
    key, an [int] seq and an [int] payload slot per entry); each payload
    is stored once, in a stable slot, when it is added. The sifts
    therefore never store a pointer, and a push or pop crosses OCaml's
    write barrier at most once. *)

type 'a t

val create : unit -> 'a t

(** [clear q] empties the queue and releases its storage, returning it
    to the freshly-created state (used when an engine is reset between
    pooled scenario runs). Popped payloads stay reachable from their
    freed slots until the slot is reused or the queue is cleared, so at
    most one array's worth of stale payloads is ever pinned. *)
val clear : 'a t -> unit

val length : 'a t -> int

val is_empty : 'a t -> bool

(** [add q ~key ~seq v] inserts [v] with priority [(key, seq)]. [seq]
    must differ from the seq of every entry in the queue.
    Allocation-free except when the backing arrays double. *)
val add : 'a t -> key:float -> seq:int -> 'a -> unit

(** [next_time q] is the minimum key, or [infinity] when the queue is
    empty — the unboxed replacement for {!peek_key} on the hot loop
    (finite keys are enforced by the engine, so [infinity] is an
    unambiguous sentinel). *)
val next_time : 'a t -> float

(** [pop_exn q] removes and returns the minimum entry's payload without
    boxing.
    @raise Invalid_argument when empty — guard with {!is_empty}. *)
val pop_exn : 'a t -> 'a

(** [pop q] removes and returns the minimum entry, or [None] if empty. *)
val pop : 'a t -> (float * int * 'a) option

(** [peek_key q] returns the minimum [(key, seq)] without removing it. *)
val peek_key : 'a t -> (float * int) option

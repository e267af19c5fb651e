(* Four-ary min-heap over unboxed entries. A heap position holds a key
   (time) in a [float array], a tie-break sequence number in an
   [int array] and a payload slot index in a second [int array]; the
   payloads themselves live in a separate ['a array] indexed by slot and
   never move while their entry is queued.

   Why the sifts must not store pointers: every store of a boxed value
   into a major-heap array goes through OCaml's write barrier
   ([caml_modify]), and while the major GC is marking, each one also
   darkens the overwritten value. A heap that sifts payloads pays that
   on every level of every push and pop. Here the sifts only move
   floats and ints, which the compiler stores directly; the one
   barriered store per event is [add] writing the payload into its
   slot.

   Free slots form a stack in the tail of [slots]: positions
   [size .. capacity - 1] hold the slot indices no entry uses, so
   [slots] is always a permutation of [0 .. capacity - 1]. [add] takes
   the slot at position [size]; [pop_exn] leaves the popped entry's
   slot at the vacated last position. The most recently freed slot is
   reused first.

   Allocation contract (vanilla ocamlopt, no flambda): the sifts are
   top-level recursive functions over [(q, index)] that never carry a
   float argument, since a float parameter is passed boxed. The entry
   in hand is read back from a cell the sift does not overwrite: the
   vacated last position for [sift_down], the new entry's own position
   (read before anything moves) for [rise]. Both sifts move entries
   into a hole instead of swapping them. *)

type 'a t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable payloads : 'a array;
  mutable size : int;
}

let initial_capacity = 64

let create () = { keys = [||]; seqs = [||]; slots = [||]; payloads = [||]; size = 0 }

let clear q =
  (* Drop the storage too: a cleared queue must not pin the payloads of
     a previous run alive (pool workers keep queues across scenarios). *)
  q.keys <- [||];
  q.seqs <- [||];
  q.slots <- [||];
  q.payloads <- [||];
  q.size <- 0

let length q = q.size

let is_empty q = q.size = 0

(* (key, seq) lexicographic order between two positions; seq values are
   unique, so the heap order is total and the pop sequence is
   independent of the internal layout. Float [=] on keys is exact on
   purpose: equal simulation times must compare equal for FIFO
   tie-breaking. *)
let[@inline] [@corelite.hot] lt q i j =
  q.keys.(i) < q.keys.(j) || (q.keys.(i) = q.keys.(j) && q.seqs.(i) < q.seqs.(j))

(* Four-ary layout: the children of [i] are [4i + 1 .. 4i + 4]. A wider
   node makes the heap half as deep as a binary one, and its four child
   keys share a cache line or two. *)
let[@inline] [@corelite.hot] parent i = (i - 1) / 4

let[@inline] [@corelite.hot] move q ~src ~dst =
  q.keys.(dst) <- q.keys.(src);
  q.seqs.(dst) <- q.seqs.(src);
  q.slots.(dst) <- q.slots.(src)

(* [rise q n i] is the position the entry at [n] settles at when it
   climbs from [i], an ancestor-or-self of [n]. It only reads. *)
let[@corelite.hot] rec rise q n i =
  if i = 0 then 0
  else begin
    let p = parent i in
    if lt q n p then rise q n p else i
  end

(* Moves every entry on the path from [target] down to [hole] one
   level down, leaving the hole at [target]. *)
let[@corelite.hot] rec shift_down_path q ~target hole =
  if hole > target then begin
    let p = parent hole in
    move q ~src:p ~dst:hole;
    shift_down_path q ~target p
  end

(* The entry in hand sits at position [q.size], just past the heap; the
   sift fills [hole] with the smallest of its children or with the
   entry in hand. *)
let[@corelite.hot] rec sift_down q hole =
  let last = q.size in
  let first = (4 * hole) + 1 in
  if first >= last then move q ~src:last ~dst:hole
  else begin
    let c = first in
    let c = if first + 1 < last && lt q (first + 1) c then first + 1 else c in
    let c = if first + 2 < last && lt q (first + 2) c then first + 2 else c in
    let c = if first + 3 < last && lt q (first + 3) c then first + 3 else c in
    if lt q c last then begin
      move q ~src:c ~dst:hole;
      sift_down q c
    end
    else move q ~src:last ~dst:hole
  end

let grow q value =
  let capacity = Array.length q.keys in
  let capacity' = if capacity = 0 then initial_capacity else 2 * capacity in
  (* The inserted element doubles as the payload fill so no dummy ['a]
     is needed. Growth happens only when every slot is taken, so the new
     free slots are exactly [capacity .. capacity' - 1]. *)
  let keys' = Array.make capacity' 0. in
  let seqs' = Array.make capacity' 0 in
  let slots' = Array.init capacity' Fun.id in
  let payloads' = Array.make capacity' value in
  Array.blit q.keys 0 keys' 0 q.size;
  Array.blit q.seqs 0 seqs' 0 q.size;
  Array.blit q.slots 0 slots' 0 q.size;
  Array.blit q.payloads 0 payloads' 0 capacity;
  q.keys <- keys';
  q.seqs <- seqs';
  q.slots <- slots';
  q.payloads <- payloads'

let[@inline] [@corelite.hot] add q ~key ~seq value =
  if q.size = Array.length q.keys then grow q value;
  let n = q.size in
  (* The first free slot already sits at position [n], so an entry that
     does not climb is complete once its key and seq are written. *)
  let slot = q.slots.(n) in
  q.payloads.(slot) <- value;
  q.keys.(n) <- key;
  q.seqs.(n) <- seq;
  q.size <- n + 1;
  let target = rise q n n in
  if target < n then begin
    shift_down_path q ~target n;
    q.keys.(target) <- key;
    q.seqs.(target) <- seq;
    q.slots.(target) <- slot
  end

let[@inline] [@corelite.hot] next_time q = if q.size = 0 then infinity else q.keys.(0)

let[@corelite.hot] pop_exn q =
  if q.size = 0 then invalid_arg "Event_queue.pop_exn: empty";
  let slot = q.slots.(0) in
  let top = q.payloads.(slot) in
  let last = q.size - 1 in
  q.size <- last;
  if last > 0 then sift_down q 0;
  q.slots.(last) <- slot;
  (* Freed slots are not blanked (no dummy ['a] exists): at most one
     array's worth of stale payloads stays reachable until overwritten
     or [clear]ed — same bounded-pinning contract as [Ring]. *)
  top

let pop q =
  if q.size = 0 then None
  else begin
    let key = q.keys.(0) and seq = q.seqs.(0) in
    Some (key, seq, pop_exn q)
  end

let peek_key q = if q.size = 0 then None else Some (q.keys.(0), q.seqs.(0))

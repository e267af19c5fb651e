(* Output checks. Each check is one attempted operation; a check that
   fails is a failed operation, reported by name — never a silent pass. *)

type t = { mutable attempted : int; mutable failures : string list }

let create () = { attempted = 0; failures = [] }

let check t name ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failures <- name :: t.failures

let failed t = List.length t.failures

(* The committed figure CSVs were produced at this seed. *)
let golden_seed = 42

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Some s

(* Invariants every run must satisfy, at any seed. *)
let run t ~what (r : Drivers.run) =
  let name s = Printf.sprintf "%s: %s" what s in
  check t (name "per-link conservation") (r.conserved_links = r.links);
  check t (name "delivered + drops <= sent") (r.delivered + r.drops <= r.sent);
  check t (name "sent and delivered are positive") (r.sent > 0 && r.delivered > 0);
  Option.iter (check t (name "flow ledger balances after the drain")) r.ledger_balanced;
  check t (name "packet-hops cover deliveries") (r.hops >= r.delivered)

(* A figure payload is a [time,flow...] table with one row per sampled
   second and the same column count on every row. *)
let figure_shape t ~duration (name, csv) =
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' csv) in
  let columns l = List.length (String.split_on_char ',' l) in
  let ok =
    match lines with
    | [] -> false
    | header :: rows ->
      List.length rows = int_of_float duration
      && List.for_all (fun r -> columns r = columns header) rows
  in
  check t (Printf.sprintf "%s: shape" name) ok

(* At the golden seed every figure payload must equal the committed
   results/ file byte for byte. *)
let figure_golden t ~results_dir (name, csv) =
  check t
    (Printf.sprintf "%s: byte-equal to %s" name (Filename.concat results_dir name))
    (read_file (Filename.concat results_dir name) = Some csv)

let jain t ~what ratios j =
  check t
    (Printf.sprintf "%s: jain_vs_reference over %d flows in (0, 1]" what
       (Array.length ratios))
    (Array.length ratios > 0 && Float.is_finite j && j > 0. && j <= 1.)

let same t ~what a b = check t what (a = b)

(* Per-layer spans recorded by the benchmark around its calls into the
   simulator's public functions. A disabled recorder runs the call and
   records nothing, so the end-to-end path pays no clock reads. *)

type t = { on : bool; acc : (string, float) Hashtbl.t }

let create ~on = { on; acc = Hashtbl.create 16 }

let off = create ~on:false

let add t name seconds =
  if t.on then
    Hashtbl.replace t.acc name
      (seconds +. Option.value ~default:0. (Hashtbl.find_opt t.acc name))

let time t name f =
  if not t.on then f ()
  else begin
    let t0 = Clock.now () in
    let r = f () in
    add t name (Clock.now () -. t0);
    r
  end

let get t name = Option.value ~default:0. (Hashtbl.find_opt t.acc name)

module Scheme = struct
  module Edge = Edge

  type params = Params.t

  type core = Core.t

  (* Whether the CSFQ per-link logic is installed ([attach_cores]). *)
  type wiring = bool

  (* A loss indication carries nothing but the flow it is about. *)
  type signal = unit

  let epoch params = params.Params.source.Net.Source.epoch

  let create_edge ~params ~topology ~flow ~floor ~epoch_offset =
    Edge.create ~params ~topology ~flow ~floor ~epoch_offset ()

  (* Only the full CSFQ scheme installs core logic; the "plain" variant
     (DropTail/RED/FRED ablation) keeps the loss notification channel
     but no fair-share filtering. *)
  let attach attach_cores ~params ~rng ~signal:_ link =
    if attach_cores then Some (Core.attach ~params ~rng:(Sim.Rng.split rng) link)
    else None

  (* Any loss on the link is reported to the source after the reverse
     propagation delay; buffer overflows additionally shrink the
     fair-share estimate (CSFQ heuristic). *)
  let on_drop core reason ~signal pkt =
    (match (reason, core) with
    | Net.Link.Queue_full, Some core -> Core.note_overflow core
    | (Net.Link.Queue_full | Net.Link.Filtered | Net.Link.Injected | Net.Link.Down), _
      -> ());
    signal pkt.Net.Packet.flow ()

  let deliver engine ~delay agent ~link_id:_ () =
    Sim.Engine.schedule_unit engine ~delay (fun () -> Edge.note_loss agent)
end

include Net.Deployment.Make (Scheme)

(* The generic constructor takes the wiring positionally. *)
let build ?(attach_cores = true) ~params ~rng ~topology ~flows ~core_links () =
  build attach_cores ~params ~rng ~topology ~flows ~core_links

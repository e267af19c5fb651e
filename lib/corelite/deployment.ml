module Scheme = struct
  module Edge = Edge

  type params = Params.t

  type core = Core.t

  type wiring = Net.Fault.t option

  type signal = Net.Packet.marker

  let epoch params = params.Params.source.Net.Source.epoch

  let create_edge ~params ~topology ~flow ~floor ~epoch_offset =
    Edge.create ~params ~topology ~flow ~floor ~epoch_offset ()

  let attach fault ~params ~rng ~signal link =
    let send_feedback marker =
      (* Feedback markers travel the reverse path as control-plane
         callbacks, not packets, so link loss cannot touch them; the
         fault injector's per-link feedback channel models their loss
         instead. The draw happens at send time (not delivery),
         matching a marker corrupted on the wire. *)
      let lost =
        match fault with
        | Some f -> Net.Fault.feedback_lost f link
        | None -> false
      in
      if not lost then signal marker.Net.Packet.flow_id marker
    in
    Some (Core.attach ~params ~rng:(Sim.Rng.split rng) ~send_feedback link)

  (* Corelite edges do not react to losses (feedback markers carry the
     signal); the deployment's per-flow loss count is all a drop feeds. *)
  let on_drop _ _ ~signal:_ _ = ()

  let deliver engine ~delay agent ~link_id marker =
    Sim.Engine.schedule_unit engine ~delay (fun () ->
        Edge.receive_feedback agent ~link_id marker)
end

include Net.Deployment.Make (Scheme)

(* The generic constructors take the wiring positionally; Corelite's
   wiring is the optional fault injector. *)
let build ?fault ~params ~rng ~topology ~flows ~core_links () =
  build fault ~params ~rng ~topology ~flows ~core_links

let of_agents ?fault ~params ~rng ~topology ~agents ~core_links () =
  of_agents fault ~params ~rng ~topology ~agents ~core_links

let total_feedback t =
  List.fold_left (fun acc core -> acc + Core.feedback_sent core) 0 (cores t)

(* Router resets are scheme state, so the deployment (not Net.Fault)
   interprets them: a core reset loses both the router's packet buffers
   (Link.reset) and its Corelite soft state (Core.reset); an edge reset
   wipes the agent's bg(f) table and restarts its adaptation. Targets
   are validated at schedule time so a typo in a plan fails the run
   immediately rather than silently resetting nothing. *)
let schedule_resets t plan =
  let engine = Net.Topology.engine (topology t) in
  List.iter
    (fun { Sim.Faultplan.reset_target; at } ->
      let fire =
        match reset_target with
        | Sim.Faultplan.Core_router name -> (
          match
            List.find_opt
              (fun core -> String.equal (Core.link core).Net.Link.name name)
              (cores t)
          with
          | None ->
            invalid_arg ("Deployment.schedule_resets: no core on link " ^ name)
          | Some core ->
            fun () ->
              Net.Link.reset (Core.link core);
              Core.reset core)
        | Sim.Faultplan.Edge_agent id ->
          if not (has_flow t id) then
            invalid_arg
              (Printf.sprintf "Deployment.schedule_resets: no agent for flow %d" id);
          let agent = agent t id in
          fun () -> Scheme.Edge.reset agent
      in
      ignore (Sim.Engine.schedule_at engine ~time:at fire))
    plan.Sim.Faultplan.resets

include Deployment_intf

module Make (Scheme : SCHEME) = struct
  module Edge = Scheme.Edge

  type core = Scheme.core

  type t = {
    topology : Topology.t;
    agents : Edge.t Flowtable.t;
    cores : core list;
    core_links : Link.t list;
    is_core : bool array;  (* link id -> wired by the scheme *)
    drops_by_flow : Flowtable.Count.t;
    (* The per-link signal closures read [agents] and [delays], so flows
       added after wiring (churn) become reachable by mutating these two
       tables; [params] and [rng] build mid-run agents the same way
       [build] does. *)
    delays : (int * int, float) Hashtbl.t;
    params : Scheme.params;
    rng : Sim.Rng.t;
  }

  let spec ?(floor = 0.) flow = { flow; floor }

  let core_membership core_links =
    let top = List.fold_left (fun acc l -> Stdlib.max acc l.Link.id) (-1) core_links in
    let is_core = Array.make (top + 1) false in
    List.iter (fun l -> is_core.(l.Link.id) <- true) core_links;
    is_core

  (* Signal latency per (core link, flow): one walk down the flow's own
     path accumulates upstream delay — O(path length), not
     O(core links), which is what keeps churn affordable on generated
     topologies with tens of thousands of core links. *)
  let register_delays ~topology ~is_core ~delays flow =
    let acc = ref 0. in
    List.iter
      (fun link ->
        let lid = link.Link.id in
        if lid < Array.length is_core && is_core.(lid) then
          Hashtbl.replace delays (lid, flow.Flow.id) !acc;
        acc := !acc +. link.Link.delay)
      (Flow.links flow topology)

  let unregister_delays ~topology ~is_core ~delays flow =
    List.iter
      (fun link ->
        let lid = link.Link.id in
        if lid < Array.length is_core && is_core.(lid) then
          Hashtbl.remove delays (lid, flow.Flow.id))
      (Flow.links flow topology)

  (* Wire the scheme onto the core links for a table of built agents.
     Every drop on a core link is counted against its flow (an
     evaluation metric for both schemes) before the scheme sees it. *)
  let of_table wiring ~params ~rng ~topology ~agents ~core_links =
    let is_core = core_membership core_links in
    let delays : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
    Flowtable.iter agents (fun _ agent ->
        register_delays ~topology ~is_core ~delays (Edge.flow agent));
    let engine = Topology.engine topology in
    let drops_by_flow = Flowtable.Count.create () in
    let cores =
      List.filter_map
        (fun link ->
          let link_id = link.Link.id in
          let signal flow_id s =
            match Flowtable.find agents flow_id with
            | None -> ()
            | Some agent ->
              let delay =
                Option.value ~default:0. (Hashtbl.find_opt delays (link_id, flow_id))
              in
              Scheme.deliver engine ~delay agent ~link_id s
          in
          let core = Scheme.attach wiring ~params ~rng ~signal link in
          link.Link.on_drop <-
            Some
              (fun reason pkt ->
                Flowtable.Count.incr drops_by_flow pkt.Packet.flow;
                Scheme.on_drop core reason ~signal pkt);
          core)
        core_links
    in
    { topology; agents; cores; core_links; is_core; drops_by_flow; delays; params; rng }

  let of_agents wiring ~params ~rng ~topology ~agents ~core_links =
    let table = Flowtable.create () in
    Hashtbl.iter (fun id agent -> Flowtable.set table id agent) agents;
    of_table wiring ~params ~rng ~topology ~agents:table ~core_links

  let build wiring ~params ~rng ~topology ~flows ~core_links =
    let agents = Flowtable.create () in
    let epoch = Scheme.epoch params in
    List.iter
      (fun { flow; floor } ->
        let id = flow.Flow.id in
        if Flowtable.mem agents id then
          invalid_arg (Printf.sprintf "Deployment.build: duplicate flow %d" id);
        (* Edge routers are not clock-synchronized: give each agent a
           random timer phase so adaptation steps do not align. *)
        let epoch_offset = Sim.Rng.float rng epoch in
        Flowtable.add agents id
          (Scheme.create_edge ~params ~topology ~flow ~floor ~epoch_offset))
      flows;
    of_table wiring ~params ~rng ~topology ~agents ~core_links

  let agent t id =
    match Flowtable.find t.agents id with
    | Some a -> a
    | None -> raise Not_found

  let agents t = List.rev (Flowtable.fold t.agents (fun id a acc -> (id, a) :: acc) [])

  let cores t = t.cores

  let topology t = t.topology

  let start_flow t id = Edge.start (agent t id)

  let stop_flow t id = Edge.stop (agent t id)

  let start_all t = Flowtable.iter t.agents (fun _ a -> Edge.start a)

  (* Dynamic flow lifecycle (churn). The paper's soft-state story: edges
     create per-flow state when a flow first appears and age it out when
     the flow goes silent; cores never hold per-flow state, so nothing
     else in the deployment needs to learn about arrivals or departures —
     the signal closures simply stop finding retired flows. Every
     transition is declared to the [Sim.Invariant] flow ledger and traced
     so churn oracles can prove the flow table never leaks. *)

  let has_flow t id = Flowtable.mem t.agents id

  let live_flows t = Flowtable.live t.agents

  let add_flow t ?(floor = 0.) ?(size = 0) flow =
    let id = flow.Flow.id in
    if Flowtable.mem t.agents id then
      invalid_arg (Printf.sprintf "Deployment.add_flow: duplicate flow %d" id);
    let epoch_offset = Sim.Rng.float t.rng (Scheme.epoch t.params) in
    let agent =
      Scheme.create_edge ~params:t.params ~topology:t.topology ~flow ~floor ~epoch_offset
    in
    Flowtable.add t.agents id agent;
    register_delays ~topology:t.topology ~is_core:t.is_core ~delays:t.delays flow;
    Sim.Invariant.note_flow_created ();
    let engine = Topology.engine t.topology in
    let trace = Sim.Engine.trace engine in
    if Sim.Trace.want trace Sim.Trace.Flow_start then
      Sim.Trace.record trace ~time:(Sim.Engine.now engine) Sim.Trace.Flow_start
        ~a:id
        ~b:(Flow.ingress flow).Node.id
        ~x:flow.Flow.weight ~y:(float_of_int size);
    Edge.start agent;
    agent

  (* Routes stay installed on retirement (in-flight packets must still
     reach their sink); what is reclaimed is the edge's per-flow soft
     state. A signal already scheduled toward a retired agent lands in
     the agent's [running] guard and is dropped without trace, so no
     signal is ever attributed to a flow after its end or expiry
     event. *)
  let retire t id agent ~kind ~idle =
    Edge.stop agent;
    Flowtable.remove t.agents id;
    unregister_delays ~topology:t.topology ~is_core:t.is_core ~delays:t.delays
      (Edge.flow agent);
    let engine = Topology.engine t.topology in
    let trace = Sim.Engine.trace engine in
    match kind with
    | `End ->
      Sim.Invariant.note_flow_retired ();
      if Sim.Trace.want trace Sim.Trace.Flow_end then
        Sim.Trace.record trace ~time:(Sim.Engine.now engine) Sim.Trace.Flow_end
          ~a:id ~b:0
          ~x:(float_of_int (Edge.sent agent))
          ~y:(float_of_int (Edge.delivered agent))
    | `Expire ->
      Sim.Invariant.note_flow_expired ();
      if Sim.Trace.want trace Sim.Trace.Flow_expire then
        Sim.Trace.record trace ~time:(Sim.Engine.now engine) Sim.Trace.Flow_expire
          ~a:id ~b:0 ~x:idle ~y:0.

  let end_flow t id =
    match Flowtable.find t.agents id with
    | None -> invalid_arg (Printf.sprintf "Deployment.end_flow: unknown flow %d" id)
    | Some agent -> retire t id agent ~kind:`End ~idle:0.

  let expire_idle t ~timeout =
    if timeout <= 0. then
      invalid_arg "Deployment.expire_idle: timeout must be positive";
    let now = Sim.Engine.now (Topology.engine t.topology) in
    (* Flowtable iteration is already in ascending flow-id order, so
       expiry events replay byte-identically with no sort step. *)
    let stale =
      List.rev
        (Flowtable.fold t.agents
           (fun id agent acc ->
             let idle = now -. Edge.last_activity agent in
             if idle >= timeout then (id, agent, idle) :: acc else acc)
           [])
    in
    List.iter (fun (id, agent, idle) -> retire t id agent ~kind:`Expire ~idle) stale;
    List.length stale

  let total_drops t =
    List.fold_left (fun acc link -> acc + link.Link.drops) 0 t.core_links

  let drops_of_flow t id = Flowtable.Count.get t.drops_by_flow id
end

(** One deployment for every core-stateless scheme.

    The paper's split: per-flow soft state lives only at the edge, core
    links hold none. A deployment owns that split once — the table of
    edge agents, the per-(core link, flow) reverse-path delays, the
    flow lifecycle with its {!Sim.Invariant} ledger and trace records,
    and per-flow loss accounting on the core links. A {!SCHEME} supplies
    only its edge agent and how a core link is wired: Corelite attaches
    its core logic and returns feedback markers, CSFQ attaches its
    fair-share dropper and reports losses. Both travel back to the
    flow's ingress edge with the reverse-path propagation delay. *)

type flow_spec = Deployment_intf.flow_spec = { flow : Flow.t; floor : float }

module type EDGE = Deployment_intf.EDGE

module type SCHEME = Deployment_intf.SCHEME

module type S = Deployment_intf.S

module Make (Scheme : SCHEME) : sig
  include S with module Edge = Scheme.Edge and type core = Scheme.core

  (** [build wiring ~params ~rng ~topology ~flows ~core_links] creates
      one stopped agent per flow, drawing each agent's epoch offset
      from [rng] in flow order, then attaches the scheme to each core
      link in order. A core link a flow does not cross has no delay
      entry for it; a signal about that flow arrives after [0.] s.
      @raise Invalid_argument on duplicate flow ids. *)
  val build :
    Scheme.wiring ->
    params:Scheme.params ->
    rng:Sim.Rng.t ->
    topology:Topology.t ->
    flows:flow_spec list ->
    core_links:Link.t list ->
    t

  (** Like {!build}, but for agents constructed by the caller: only
      wires the core links. *)
  val of_agents :
    Scheme.wiring ->
    params:Scheme.params ->
    rng:Sim.Rng.t ->
    topology:Topology.t ->
    agents:(int, Edge.t) Hashtbl.t ->
    core_links:Link.t list ->
    t
end

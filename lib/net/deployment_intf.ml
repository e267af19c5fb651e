(* lint: mli-ok -- types and signatures only, shared by deployment.ml
   and deployment.mli so they are written once. *)

(** A flow plus its contracted minimum rate (0 = no contract). *)
type flow_spec = { flow : Flow.t; floor : float }

(** What a deployment reads of an edge agent. *)
module type EDGE = sig
  type t

  val flow : t -> Flow.t
  val start : t -> unit
  val stop : t -> unit
  val running : t -> bool

  (** Current allowed sending rate, pkt/s. *)
  val rate : t -> float

  val set_backlogged : t -> bool -> unit
  val sent : t -> int
  val delivered : t -> int
  val mean_delay : t -> float
  val p99_delay : t -> float

  (** Time of the agent's last packet emission (drives soft-state
      expiry). *)
  val last_activity : t -> float
end

(** The scheme-specific half of a deployment. *)
module type SCHEME = sig
  module Edge : EDGE

  type params

  (** Per-link core logic. *)
  type core

  (** The construction-time knob that changes how core links are wired
      (Corelite: the fault injector; CSFQ: whether cores attach). *)
  type wiring

  (** What a core link sends back to a flow's edge: a feedback marker
      (Corelite) or a loss indication (CSFQ). *)
  type signal

  (** The adaptation epoch; each agent's timer phase is drawn from
      [0, epoch). *)
  val epoch : params -> float

  (** A stopped agent for [flow]. *)
  val create_edge :
    params:params ->
    topology:Topology.t ->
    flow:Flow.t ->
    floor:float ->
    epoch_offset:float ->
    Edge.t

  (** [attach wiring ~params ~rng ~signal link] installs the scheme's
      logic on a core link, drawing its generator from [rng] with at
      most one {!Sim.Rng.split}. [signal id s] hands [s] to flow [id]'s
      agent after the reverse-path delay; flows without an agent are
      skipped. *)
  val attach :
    wiring ->
    params:params ->
    rng:Sim.Rng.t ->
    signal:(int -> signal -> unit) ->
    Link.t ->
    core option

  (** Called for every packet dropped on a core link, after the
      deployment counted it against its flow. *)
  val on_drop :
    core option -> Link.drop_reason -> signal:(int -> signal -> unit) -> Packet.t -> unit

  (** [deliver engine ~delay agent ~link_id s] schedules [s], sent by
      core link [link_id], to land in [agent] after [delay] seconds:
      one {!Sim.Engine.schedule_unit} closure, the only allocation a
      signal costs. *)
  val deliver :
    Sim.Engine.t -> delay:float -> Edge.t -> link_id:int -> signal -> unit
end

(** The deployment interface shared by every scheme. *)
module type S = sig
  type t

  module Edge : EDGE

  type core

  val spec : ?floor:float -> Flow.t -> flow_spec

  val agent : t -> int -> Edge.t
  (** @raise Not_found for an unknown flow id. *)

  val agents : t -> (int * Edge.t) list
  (** Sorted by flow id. *)

  (** The core logic attached to the core links, in link order. *)
  val cores : t -> core list

  (** The topology the deployment was wired over. *)
  val topology : t -> Topology.t

  val start_flow : t -> int -> unit
  val stop_flow : t -> int -> unit
  val start_all : t -> unit

  (** {1 Dynamic flow lifecycle (churn)}

      Edges create per-flow soft state when a flow first appears and
      age it out when it goes silent; cores hold no per-flow state, so
      arrivals and departures need no core-side signalling. Each
      transition is declared to the {!Sim.Invariant} flow ledger and
      recorded as a [Flow_start] / [Flow_end] / [Flow_expire] trace
      event, so churn oracles can prove the flow table never leaks:
      created = retired + {!live_flows}. *)

  (** [add_flow t flow] creates and starts an agent for a flow arriving
      mid-run and registers its per-(core link, flow) delays. [size]
      (packets; 0 = open-ended) only annotates the [Flow_start] event.
      @raise Invalid_argument on a duplicate live flow id. *)
  val add_flow : t -> ?floor:float -> ?size:int -> Flow.t -> Edge.t

  (** [end_flow t id] retires a completed flow: stops its source and
      discards its edge state. Routes stay installed for in-flight
      packets; a signal already in flight is dropped by the agent's
      [running] guard.
      @raise Invalid_argument for an unknown (or already retired) id. *)
  val end_flow : t -> int -> unit

  (** [expire_idle t ~timeout] retires, as expired and in flow-id
      order, every agent whose last emission is at least [timeout]
      seconds old; returns the number expired.
      @raise Invalid_argument on a non-positive [timeout]. *)
  val expire_idle : t -> timeout:float -> int

  (** Whether a flow currently holds edge state. *)
  val has_flow : t -> int -> bool

  (** Number of flows currently holding edge state. *)
  val live_flows : t -> int

  (** Total packets dropped on the core links. *)
  val total_drops : t -> int

  (** Core-link packet losses of one flow. *)
  val drops_of_flow : t -> int -> int
end

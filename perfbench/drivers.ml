(* Phase-by-phase drivers: the benchmark's own calls into the layers'
   public functions, in the order [Workload.Scale.run] and
   [Workload.Runner.run] make them, so every phase can be timed from
   outside. The test suite proves both reproduce those entry points'
   outputs byte for byte. *)

type scheme = Corelite | Csfq

type fattree = {
  k : int;
  n_flows : int;
  scheme : scheme;
  duration : float;
  end_fraction : float;
}

(* What one run measured. Host times are seconds; the simulation phase
   is the [Sim.Engine.run_until] call(s) only. *)
type run = {
  payloads : (string * string) list;  (** (name, CSV) — the checked outputs *)
  setup_s : float;
  sim_s : float;
  wall_s : float;  (** the run itself, before any checking *)
  peak_rss_mb : float;  (** the process's VmHWM when the run ended *)
  events : int;
  hops : int;  (** packet arrivals summed over every link *)
  sent : int;
  delivered : int;
  drops : int;
  drops_access : int;
  drops_fabric : int;
  sim_minor_words : float;
  sim_promoted_words : float;
  minor_collections : int;
  major_collections : int;
  slice_s : float array;
      (** host seconds of each of the [slices] simulated-time slices of
          the simulation phase; they sum to [sim_s] *)
  pending : int list;  (** [Sim.Engine.pending] read between slices *)
  jain_ratios : float array;  (** measured / water-filling rate per flow *)
  markers_seen : int;
  feedback_sent : int;
  congested_epochs : int;
  early_drops : int;
  live_words_per_flow : float;
  ledger_balanced : bool option;
      (** the [Sim.Invariant] flow ledger after the drain; [None] on the
          figures, whose static deployments do not write it *)
  conserved_links : int;  (** links whose packet account balances *)
  links : int;
  n_hosts : int;
  max_route_entries : int;
  trace_counts : (string * int) list;  (** per-kind [Sim.Trace] counts; [] untraced *)
}

let trace_counts engine =
  let t = Sim.Engine.trace engine in
  if not (Sim.Trace.enabled t) then []
  else List.map (fun k -> (Sim.Trace.kind_name k, Sim.Trace.count t k)) Sim.Trace.all_kinds

(* Number of equal simulated-time slices the simulation phase is cut
   into. The host clock and [Sim.Engine.pending] are read at every
   boundary. Each slice does the same work on every run of one seed, so
   its host time can be compared across repetitions. *)
let slices = 100

let slice_end ~start ~until i =
  if i = slices then until
  else start +. ((until -. start) *. float_of_int i /. float_of_int slices)

(* [run_until] in [slices] steps, timed from the host instant [from]. *)
let run_sliced engine ~from ~until =
  let start = Sim.Engine.now engine in
  let slice_s = Array.make slices 0. and pending = Array.make slices 0 in
  let mark = ref from in
  for i = 1 to slices do
    Sim.Engine.run_until engine (slice_end ~start ~until i);
    let t = Clock.now () in
    slice_s.(i - 1) <- t -. !mark;
    mark := t;
    pending.(i - 1) <- Sim.Engine.pending engine
  done;
  (slice_s, Array.to_list pending)

let live_words () =
  Gc.full_major ();
  float_of_int (Gc.stat ()).Gc.live_words

let link_account (l : Net.Link.t) =
  l.arrivals
  = l.departures + l.drops + Net.Link.queue_length l + if l.busy then 1 else 0

let ledger () = (Sim.Invariant.flows_created (), Sim.Invariant.flows_retired ())

let jain ratios =
  Fairness.Metrics.jain_index ~rates:ratios
    ~weights:(Array.make (Array.length ratios) 1.)

(* {1 Fat-tree runs: the calls of [Workload.Scale.run]} *)

type facade = {
  add : Net.Flow.t -> unit;
  end_ : int -> unit;
  live : unit -> int;
  sent_of : int -> int;
  delivered_of : int -> int;
  drops_total : unit -> int;
  core_counters : unit -> int * int * int * int;
      (** markers seen, feedback sent, congested epochs, early drops *)
}

(* [label] seeds the flow population and deployment streams exactly as
   [Workload.Scale.run ~label] does. *)
let fattree ?(spans = Spans.off) ?trace ~seed ~label (w : fattree) =
  let span name f = Spans.time spans name f in
  let gc0 = Gc.quick_stat () in
  let t_start = Clock.now () in
  let engine = Sim.Engine.create () in
  let graph = span "topo.build_s" (fun () -> Topo.Fattree.build w.k) in
  let fib = span "topo.fib_compute_s" (fun () -> Topo.Fib.compute graph) in
  let pop =
    span "topo.flows_generate_s" (fun () ->
        Topo.Flows.generate ~seed ~label:(label ^ "/flows") ~graph ~n:w.n_flows
          ~max_weight:4 ())
  in
  let metrics = Sim.Engine.metrics engine in
  Sim.Metrics.set_auto_probes metrics false;
  Option.iter (Sim.Trace.apply (Sim.Engine.trace engine)) trace;
  let network =
    span "network.of_topo_s" (fun () ->
        Workload.Network.of_topo ~engine ~bandwidth:Workload.Network.default_bandwidth
          ~delay:0.002 ~queue_capacity:40 ~graph ~fib ~flows:pop ())
  in
  let rng = Sim.Rng.scenario ~seed ~id:(label ^ "/deploy") in
  let source = Workload.Scale.default_source in
  let topology = network.Workload.Network.topology in
  let core_links = network.Workload.Network.core_links in
  let d =
    span "deployment.build_s" (fun () ->
        match w.scheme with
        | Corelite ->
          let params = { Corelite.Params.default with source } in
          let d =
            Corelite.Deployment.build ~params ~rng ~topology ~flows:[] ~core_links ()
          in
          {
            add = (fun flow -> ignore (Corelite.Deployment.add_flow d flow));
            end_ = Corelite.Deployment.end_flow d;
            live = (fun () -> Corelite.Deployment.live_flows d);
            sent_of = (fun id -> Corelite.Edge.sent (Corelite.Deployment.agent d id));
            delivered_of =
              (fun id -> Corelite.Edge.delivered (Corelite.Deployment.agent d id));
            drops_total = (fun () -> Corelite.Deployment.total_drops d);
            core_counters =
              (fun () ->
                List.fold_left
                  (fun (m, f, e, x) c ->
                    ( m + Corelite.Core.markers_seen c,
                      f + Corelite.Core.feedback_sent c,
                      e + Corelite.Core.congested_epochs c,
                      x ))
                  (0, 0, 0, 0) (Corelite.Deployment.cores d));
          }
        | Csfq ->
          let params = { Csfq.Params.default with source } in
          let d =
            Csfq.Deployment.build ~attach_cores:true ~params ~rng ~topology ~flows:[]
              ~core_links ()
          in
          {
            add = (fun flow -> ignore (Csfq.Deployment.add_flow d flow));
            end_ = Csfq.Deployment.end_flow d;
            live = (fun () -> Csfq.Deployment.live_flows d);
            sent_of = (fun id -> Csfq.Edge.sent (Csfq.Deployment.agent d id));
            delivered_of = (fun id -> Csfq.Edge.delivered (Csfq.Deployment.agent d id));
            drops_total = (fun () -> Csfq.Deployment.total_drops d);
            core_counters =
              (fun () ->
                ( 0,
                  0,
                  0,
                  List.fold_left
                    (fun acc c -> acc + Csfq.Core.early_drops c)
                    0 (Csfq.Deployment.cores d) ));
          })
  in
  let n = w.n_flows in
  let measure_from = w.duration /. 2. in
  let n_ended = int_of_float (w.end_fraction *. float_of_int n) in
  let end_at = measure_from /. 2. in
  let base_delivered = Array.make (n + 1) 0 in
  let final_sent = Array.make (n + 1) 0 in
  let final_delivered = Array.make (n + 1) 0 in
  let capture id =
    final_sent.(id) <- d.sent_of id;
    final_delivered.(id) <- d.delivered_of id
  in
  let end_flow id = span "deployment.end_flow_s" (fun () -> d.end_ id) in
  let t0 = Sim.Engine.now engine in
  let events0 = Sim.Engine.executed engine in
  let created0, retired0 = ledger () in
  let words0 = if spans.Spans.on then live_words () else 0. in
  span "deployment.add_flow_s" (fun () -> List.iter d.add network.Workload.Network.flows);
  let live_words_per_flow =
    if spans.Spans.on then (live_words () -. words0) /. float_of_int n else 0.
  in
  if n_ended > 0 then
    ignore
      (Sim.Engine.schedule_at engine ~time:(t0 +. end_at) (fun () ->
           for id = 1 to n_ended do
             capture id;
             end_flow id
           done));
  ignore
    (Sim.Engine.schedule_at engine ~time:(t0 +. measure_from) (fun () ->
         for id = n_ended + 1 to n do
           base_delivered.(id) <- d.delivered_of id
         done));
  let gc1 = Gc.quick_stat () in
  let t_setup = Clock.now () in
  let slice_s, pending = run_sliced engine ~from:t_setup ~until:(t0 +. w.duration) in
  let t_sim = Clock.now () in
  let gc2 = Gc.quick_stat () in
  let drops = d.drops_total () in
  let markers_seen, feedback_sent, congested_epochs, early_drops = d.core_counters () in
  for id = n_ended + 1 to n do
    capture id;
    end_flow id
  done;
  let events = Sim.Engine.executed engine - events0 in
  let window = w.duration -. measure_from in
  let measured = n - n_ended in
  let rates =
    Array.init measured (fun i ->
        let id = n_ended + 1 + i in
        float_of_int (final_delivered.(id) - base_delivered.(id)) /. window)
  in
  let flows = network.Workload.Network.flows in
  let path f = List.map (fun l -> l.Net.Link.id) (Net.Flow.links f topology) in
  (* The water-filling reference, solved inside the timed run as
     [Workload.Scale.run ~reference:true] does. *)
  let jain_ratios =
    span "fairness.maxmin_solve_s" (fun () ->
        let demands =
          List.filter_map
            (fun f ->
              let id = f.Net.Flow.id in
              if id <= n_ended then None
              else
                Some
                  (Fairness.Maxmin.demand ~flow:id ~weight:f.Net.Flow.weight
                     ~links:(path f) ()))
            flows
        in
        let solved =
          Fairness.Maxmin.solve
            ~capacities:(Workload.Network.link_capacities network)
            ~demands
        in
        let expected = Array.make (n + 1) 0. in
        List.iter (fun (id, rate) -> expected.(id) <- rate) solved;
        Array.mapi
          (fun i r ->
            let e = expected.(n_ended + 1 + i) in
            if e > 0. then r /. e else 0.)
          rates)
  in
  let buf = Buffer.create (64 * (n + 1)) in
  Buffer.add_string buf "flow,src,dst,weight,sent,delivered\n";
  for id = 1 to n do
    Buffer.add_string buf
      (Printf.sprintf "%d,%d,%d,%g,%d,%d\n" id
         pop.Topo.Flows.src.(id - 1)
         pop.Topo.Flows.dst.(id - 1)
         pop.Topo.Flows.weight.(id - 1)
         final_sent.(id) final_delivered.(id))
  done;
  let csv = Buffer.contents buf in
  let t_end = Clock.now () in
  let peak_rss_mb = Clock.peak_rss_mb () in
  let gc3 = Gc.quick_stat () in
  (* Everything below is checking, outside the timed run. *)
  let links = Net.Topology.links topology in
  let access l =
    Topo.Graph.kind graph (Topo.Graph.link_src graph l.Net.Link.id) = Topo.Graph.Host
    || Topo.Graph.kind graph (Topo.Graph.link_dst graph l.Net.Link.id) = Topo.Graph.Host
  in
  let sum f ls = List.fold_left (fun acc l -> acc + f l) 0 ls in
  let created1, retired1 = ledger () in
  {
    payloads = [ ("flows.csv", csv) ];
    setup_s = t_setup -. t_start;
    sim_s = t_sim -. t_setup;
    wall_s = t_end -. t_start;
    peak_rss_mb;
    events;
    hops = sum (fun l -> l.Net.Link.arrivals) links;
    sent = Array.fold_left ( + ) 0 final_sent;
    delivered = Array.fold_left ( + ) 0 final_delivered;
    drops;
    drops_access = sum (fun l -> l.Net.Link.drops) (List.filter access links);
    drops_fabric =
      sum (fun l -> l.Net.Link.drops) (List.filter (fun l -> not (access l)) links);
    sim_minor_words = gc2.Gc.minor_words -. gc1.Gc.minor_words;
    sim_promoted_words = gc2.Gc.promoted_words -. gc1.Gc.promoted_words;
    minor_collections = gc3.Gc.minor_collections - gc0.Gc.minor_collections;
    major_collections = gc3.Gc.major_collections - gc0.Gc.major_collections;
    slice_s;
    pending;
    jain_ratios;
    markers_seen;
    feedback_sent;
    congested_epochs;
    early_drops;
    live_words_per_flow;
    ledger_balanced = Some (created1 - created0 = retired1 - retired0 + d.live ());
    conserved_links = List.length (List.filter link_account links);
    links = List.length links;
    n_hosts = Topo.Graph.n_hosts graph;
    max_route_entries = 0;
    trace_counts = trace_counts engine;
  }

(* {1 Figure runs} *)

let figure_duration id =
  match List.find_opt (fun s -> s.Workload.Figures.id = id) (Workload.Figures.all ()) with
  | Some s -> s.Workload.Figures.duration
  | None -> invalid_arg ("figure_duration: " ^ id)

(* Measured/water-filling ratio of every flow in every steady-state
   phase of a figure. *)
let figure_ratios spec result =
  let s = Workload.Figures.summarize spec result in
  List.concat_map
    (fun p ->
      List.map
        (fun r -> r.Workload.Figures.measured /. r.Workload.Figures.expected)
        p.Workload.Figures.rows)
    s.Workload.Figures.phase_summaries

let figure_payloads spec (kinds : (string * string) list) =
  List.map (fun (kind, csv) -> (Printf.sprintf "%s_%s.csv" spec.Workload.Figures.id kind, csv)) kinds

(* Counts read off a finished figure network: hops, sent (arrivals on
   ingress access links), drops by tier, and link accounts. *)
let network_counts (network : Workload.Network.t) =
  let links = Net.Topology.links network.Workload.Network.topology in
  let core = network.Workload.Network.core_links in
  let is_core l = List.exists (fun c -> c.Net.Link.id = l.Net.Link.id) core in
  let ingress l =
    List.exists
      (fun f -> (Net.Flow.ingress f).Net.Node.id = l.Net.Link.src)
      network.Workload.Network.flows
  in
  let sum f ls = List.fold_left (fun acc l -> acc + f l) 0 ls in
  let drops l = l.Net.Link.drops in
  ( sum (fun l -> l.Net.Link.arrivals) links,
    sum (fun l -> l.Net.Link.arrivals) (List.filter ingress links),
    sum drops (List.filter (fun l -> not (is_core l)) links),
    sum drops (List.filter is_core links),
    List.length (List.filter link_account links),
    List.length links )

let last_total series =
  List.fold_left
    (fun acc (_, ts) ->
      match Sim.Timeseries.last ts with Some (_, v) -> acc + int_of_float v | None -> acc)
    0 series

(* One figure through [Workload.Runner]'s own sequence of calls —
   network, deployment, schedule, sampler, sliced [run_until] — with
   each phase timed. Only the fault-free, floor-free configuration the
   figures use is replicated. *)
let figure_phases ~spans ?trace ~seed (spec : Workload.Figures.spec) =
  let span name f = Spans.time spans name f in
  let t_start = Clock.now () in
  let engine = Sim.Engine.create () in
  let network = span "network.topology1_s" (fun () -> spec.make_network ~engine) in
  Option.iter (Sim.Trace.apply (Sim.Engine.trace engine)) trace;
  let rng = Sim.Rng.create seed in
  let topology = network.Workload.Network.topology in
  let core_links = network.Workload.Network.core_links in
  let flows = network.Workload.Network.flows in
  let words0 = if spans.Spans.on then live_words () else 0. in
  let start, stop, rate, delivered, counters =
    span "deployment.build_s" (fun () ->
        match spec.scheme with
        | Workload.Runner.Corelite params ->
          let d =
            Corelite.Deployment.build ~params ~rng ~topology
              ~flows:(List.map (Corelite.Deployment.spec ~floor:0.) flows)
              ~core_links ()
          in
          let agent = Corelite.Deployment.agent d in
          ( Corelite.Deployment.start_flow d,
            Corelite.Deployment.stop_flow d,
            (fun id ->
              let a = agent id in
              if Corelite.Edge.running a then Corelite.Edge.rate a else 0.),
            (fun id -> Corelite.Edge.delivered (agent id)),
            fun () ->
              List.fold_left
                (fun (m, f, e, x) c ->
                  ( m + Corelite.Core.markers_seen c,
                    f + Corelite.Core.feedback_sent c,
                    e + Corelite.Core.congested_epochs c,
                    x ))
                (0, 0, 0, 0) (Corelite.Deployment.cores d) )
        | Workload.Runner.Csfq params ->
          let d =
            Csfq.Deployment.build ~params ~rng ~topology
              ~flows:(List.map (Csfq.Deployment.spec ~floor:0.) flows)
              ~core_links ()
          in
          let agent = Csfq.Deployment.agent d in
          ( Csfq.Deployment.start_flow d,
            Csfq.Deployment.stop_flow d,
            (fun id ->
              let a = agent id in
              if Csfq.Edge.running a then Csfq.Edge.rate a else 0.),
            (fun id -> Csfq.Edge.delivered (agent id)),
            fun () ->
              ( 0,
                0,
                0,
                List.fold_left
                  (fun acc c -> acc + Csfq.Core.early_drops c)
                  0 (Csfq.Deployment.cores d) ) )
        | Workload.Runner.Plain _ -> invalid_arg "figure_phases: plain scheme")
  in
  let live_words_per_flow =
    if spans.Spans.on then (live_words () -. words0) /. float_of_int (List.length flows)
    else 0.
  in
  List.iter
    (fun (time, action) ->
      let act =
        match action with
        | Workload.Runner.Start id -> fun () -> start id
        | Workload.Runner.Stop id -> fun () -> stop id
      in
      ignore (Sim.Engine.schedule_at engine ~time act))
    spec.schedule;
  let ids = List.map (fun f -> f.Net.Flow.id) flows in
  let series name =
    List.map
      (fun id -> (id, Sim.Timeseries.create ~name:(Printf.sprintf "%s%d" name id) ()))
      ids
  in
  let rates = series "rate-flow" in
  let goodputs = series "goodput-flow" in
  let cumulatives = series "cumulative-flow" in
  let previous = Hashtbl.create 32 in
  List.iter (fun id -> Hashtbl.replace previous id 0) ids;
  let sample () =
    let now = Sim.Engine.now engine in
    List.iter
      (fun id ->
        Sim.Timeseries.add (List.assoc id rates) now (rate id);
        let total = delivered id in
        let before = Hashtbl.find previous id in
        Hashtbl.replace previous id total;
        Sim.Timeseries.add (List.assoc id goodputs) now (float_of_int (total - before));
        Sim.Timeseries.add (List.assoc id cumulatives) now (float_of_int total))
      ids
  in
  ignore (Sim.Engine.every engine ~start:1. ~period:1. sample);
  let gc1 = Gc.quick_stat () in
  let t_setup = Clock.now () in
  let slice_s, pending = run_sliced engine ~from:t_setup ~until:spec.duration in
  let t_sim = Clock.now () in
  let gc2 = Gc.quick_stat () in
  let markers_seen, feedback_sent, congested_epochs, early_drops = counters () in
  let kinds =
    [
      ("rates", Workload.Csv.to_string rates);
      ("goodput", Workload.Csv.to_string goodputs);
      ("cumulative", Workload.Csv.to_string cumulatives);
    ]
  in
  let t_end = Clock.now () in
  let peak_rss_mb = Clock.peak_rss_mb () in
  let hops, sent, drops_access, drops_fabric, conserved, n_links = network_counts network in
  let max_route_entries =
    List.fold_left
      (fun acc node -> max acc (Hashtbl.length node.Net.Node.routes))
      0 (Net.Topology.nodes topology)
  in
  {
      payloads = figure_payloads spec kinds;
      setup_s = t_setup -. t_start;
      sim_s = t_sim -. t_setup;
      wall_s = t_end -. t_start;
      peak_rss_mb;
      events = Sim.Engine.executed engine;
      hops;
      sent;
      delivered = last_total cumulatives;
      drops = drops_access + drops_fabric;
      drops_access;
      drops_fabric;
      sim_minor_words = gc2.Gc.minor_words -. gc1.Gc.minor_words;
      sim_promoted_words = gc2.Gc.promoted_words -. gc1.Gc.promoted_words;
      minor_collections = 0;
      major_collections = 0;
      slice_s;
      pending;
      jain_ratios = [||];
      markers_seen;
      feedback_sent;
      congested_epochs;
      early_drops;
      live_words_per_flow;
      ledger_balanced = None;
      conserved_links = conserved;
      links = n_links;
      n_hosts = List.length flows;
      max_route_entries;
      trace_counts = trace_counts engine;
    }

(* One figure through the public entry point [Workload.Figures.run].
   Probe events on the figure's engine read the host clock at the slice
   boundaries [run_sliced] uses, and the allocation counter at the first
   and last. The first is scheduled before the run, so it fires ahead of
   every other event at time 0; each probe schedules the next, so the
   heap holds one probe at a time. The split is setup | simulation
   slices | result assembly, while the run's outputs stay byte-identical
   (checked against the committed figure CSVs). *)
let figure_e2e ~seed (spec : Workload.Figures.spec) =
  let t_start = Clock.now () in
  let marks = Array.make (slices + 1) nan in
  let w_first = ref 0. and w_last = ref 0. in
  let p_first = ref 0. and p_last = ref 0. in
  let read_gc w p =
    let s = Gc.quick_stat () in
    w := s.Gc.minor_words;
    p := s.Gc.promoted_words
  in
  let rec probe engine i () =
    if i = slices then read_gc w_last p_last;
    marks.(i) <- Clock.now ();
    if i = 0 then read_gc w_first p_first;
    if i < slices then
      ignore
        (Sim.Engine.schedule_at engine
           ~time:(slice_end ~start:0. ~until:spec.duration (i + 1))
           (probe engine (i + 1)))
  in
  let make_network ~engine =
    let network = spec.make_network ~engine in
    ignore (Sim.Engine.schedule_at engine ~time:0. (probe engine 0));
    network
  in
  let gc0 = Gc.quick_stat () in
  let result = Workload.Figures.run ~seed { spec with make_network } in
  let t_end = Clock.now () in
  let peak_rss_mb = Clock.peak_rss_mb () in
  let gc1 = Gc.quick_stat () in
  let network = result.Workload.Runner.network in
  let hops, sent, drops_access, drops_fabric, conserved, n_links = network_counts network in
  {
    payloads = figure_payloads spec (Workload.Csv.result_strings result);
    setup_s = marks.(0) -. t_start;
    sim_s = marks.(slices) -. marks.(0);
    wall_s = t_end -. t_start;
    peak_rss_mb;
    (* the probes are not the program's events *)
    events = Sim.Engine.executed network.Workload.Network.engine - (slices + 1);
    hops;
    sent;
    delivered = last_total result.Workload.Runner.cumulative;
    drops = drops_access + drops_fabric;
    drops_access;
    drops_fabric;
    sim_minor_words = !w_last -. !w_first;
    sim_promoted_words = !p_last -. !p_first;
    minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    slice_s = Array.init slices (fun i -> marks.(i + 1) -. marks.(i));
    pending = [];
    jain_ratios = Array.of_list (figure_ratios spec result);
    markers_seen = 0;
    feedback_sent = result.Workload.Runner.feedback_markers;
    congested_epochs = 0;
    early_drops = result.Workload.Runner.early_drops;
    live_words_per_flow = 0.;
    ledger_balanced = None;
    conserved_links = conserved;
    links = n_links;
    n_hosts = List.length network.Workload.Network.flows;
    max_route_entries = 0;
    trace_counts = [];
  }

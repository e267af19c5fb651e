(* The benchmark's workloads and the records one repetition prints:
   end-to-end metrics (untraced) or per-layer metrics (traced). *)

type workload = Figures | Fattree of Drivers.fattree

let workloads =
  [
    ("paper-figures", Figures);
    ( "fattree-k8-1e4-corelite-churn",
      Fattree
        {
          Drivers.k = 8;
          n_flows = 10_000;
          scheme = Drivers.Corelite;
          duration = 10.;
          end_fraction = 0.2;
        } );
  ]

(* The (seed, label) stream a fat-tree workload draws from. *)
let label name = "perfbench/" ^ name

(* {1 End-to-end} *)

type e2e = {
  runs : (string * Drivers.run) list;  (** per figure, or the one fat-tree run *)
  checks : Checks.t;
}

let sum f runs = List.fold_left (fun acc (_, r) -> acc + f r) 0 runs

let sumf f runs = List.fold_left (fun acc (_, r) -> acc +. f r) 0. runs

let e2e ~name ~seed ~results_dir workload =
  let checks = Checks.create () in
  let runs =
    match workload with
    | Figures ->
      List.map
        (fun spec -> (spec.Workload.Figures.id, Drivers.figure_e2e ~seed spec))
        (Workload.Figures.all ())
    | Fattree w -> [ (name, Drivers.fattree ~seed ~label:(label name) w) ]
  in
  List.iter
    (fun (what, r) ->
      Checks.run checks ~what r;
      match workload with
      | Fattree _ -> ()
      | Figures ->
        List.iter
          (fun p ->
            Checks.figure_shape checks ~duration:(Drivers.figure_duration what) p;
            if seed = Checks.golden_seed then Checks.figure_golden checks ~results_dir p)
          r.Drivers.payloads)
    runs;
  let ratios = Array.concat (List.map (fun (_, r) -> r.Drivers.jain_ratios) runs) in
  Checks.jain checks ~what:"workload" ratios (Drivers.jain ratios);
  { runs; checks }

let jain_ratios e = Array.concat (List.map (fun (_, r) -> r.Drivers.jain_ratios) e.runs)

let hops e = sum (fun r -> r.Drivers.hops) e.runs

let digest e =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.concat_map
             (fun (_, r) -> List.map (fun (n, csv) -> n ^ "\n" ^ csv) r.Drivers.payloads)
             e.runs)))

(* The metrics a user of the simulator sees; the first four are host
   measurements of the runs alone (the output checks come after each
   run's clock stops), the last three are exact functions of the seed. *)
let e2e_metrics e =
  let hops = hops e in
  [
    ("wall_s", sumf (fun r -> r.Drivers.wall_s) e.runs, "s");
    ("setup_s", sumf (fun r -> r.Drivers.setup_s) e.runs, "s");
    ("hops_per_s", float_of_int hops /. sumf (fun r -> r.Drivers.sim_s) e.runs, "1/s");
    ( "peak_rss_mb",
      List.fold_left (fun acc (_, r) -> Float.max acc r.Drivers.peak_rss_mb) 0. e.runs,
      "MB" );
    ("minor_words_per_hop", sumf (fun r -> r.Drivers.sim_minor_words) e.runs /. float_of_int hops, "words");
    ( "loss_frac",
      float_of_int (sum (fun r -> r.Drivers.drops) e.runs)
      /. float_of_int (sum (fun r -> r.Drivers.sent) e.runs),
      "fraction" );
    ("jain_vs_reference", Drivers.jain (jain_ratios e), "index");
  ]

(* The host time of each run cut into segments that do the same work on
   every repetition of one seed: set-up, the simulation slices, and the
   rest of the run (result assembly, and the reference solve where it
   is timed). They sum to [wall_s]. *)
let segments e =
  [
    ("setup", List.map (fun (_, r) -> r.Drivers.setup_s) e.runs);
    ("sim", List.concat_map (fun (_, r) -> Array.to_list r.Drivers.slice_s) e.runs);
    ( "tail",
      List.map (fun (_, r) -> Drivers.(r.wall_s -. r.setup_s -. r.sim_s)) e.runs );
  ]

(* Counters that must repeat exactly between runs of one commit and
   seed, alongside the payload digest. *)
let e2e_exact e =
  [
    ("events", float_of_int (sum (fun r -> r.Drivers.events) e.runs));
    ("hops", float_of_int (hops e));
    ("sent", float_of_int (sum (fun r -> r.Drivers.sent) e.runs));
    ("delivered", float_of_int (sum (fun r -> r.Drivers.delivered) e.runs));
    ("drops", float_of_int (sum (fun r -> r.Drivers.drops) e.runs));
  ]

(* {1 Traced} *)

let kinds_all = Sim.Trace.spec ~capacity:4096 ~kinds:Sim.Trace.all_kinds ()

(* One phase-by-phase pass over the workload: per-figure runs, or the
   one fat-tree run. *)
let phases ~spans ?trace ~seed ~name workload =
  match workload with
  | Figures ->
    List.map
      (fun spec ->
        (spec.Workload.Figures.id, Drivers.figure_phases ~spans ?trace ~seed spec))
      (Workload.Figures.all ())
  | Fattree w -> [ (name, Drivers.fattree ~spans ?trace ~seed ~label:(label name) w) ]

let figure_ids = [ "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9"; "fig10" ]

let trace_metrics ~name ~seed ~results_dir workload =
  (* 1. the untraced end-to-end pass: the reference outputs *)
  let base = e2e ~name ~seed ~results_dir workload in
  let checks = base.checks in
  let gc_minor = sum (fun r -> r.Drivers.minor_collections) base.runs in
  let gc_major = sum (fun r -> r.Drivers.major_collections) base.runs in
  (* 2. phase by phase, every call into a layer timed *)
  let spans = Spans.create ~on:true in
  let timed = { base with runs = phases ~spans ~seed ~name workload } in
  (* 3. phase by phase untraced, then 4. the same with Sim.Trace armed
     on every kind: adjacent passes of one driver, so their wall-time
     ratio is the tracing overhead *)
  let untraced = { base with runs = phases ~spans:Spans.off ~seed ~name workload } in
  let traced = { base with runs = phases ~spans:Spans.off ~trace:kinds_all ~seed ~name workload } in
  List.iter
    (fun (label, other) ->
      Checks.same checks ~what:(label ^ ": payloads reproduce the end-to-end run")
        (digest other) (digest base);
      List.iter
        (fun (k, v) ->
          Checks.same checks
            ~what:(Printf.sprintf "%s: %s reproduces the end-to-end run" label k)
            (List.assoc k (e2e_exact other)) v)
        (e2e_exact base))
    [ ("phase-by-phase", timed); ("untraced phase-by-phase", untraced); ("traced", traced) ];
  let core_counts e =
    List.map
      (fun (_, r) ->
        Drivers.(r.markers_seen, r.feedback_sent, r.congested_epochs, r.early_drops))
      e.runs
  in
  Checks.same checks ~what:"traced: core counters reproduce the phase-by-phase run"
    (core_counts traced) (core_counts timed);
  let runs = timed.runs in
  let sim_s = sumf (fun r -> r.Drivers.sim_s) runs in
  let events = sum (fun r -> r.Drivers.events) runs in
  let hops = sum (fun r -> r.Drivers.hops) runs in
  let fhops = float_of_int hops in
  let pending = List.concat_map (fun (_, r) -> r.Drivers.pending) runs in
  let pending_mean =
    float_of_int (List.fold_left ( + ) 0 pending) /. float_of_int (List.length pending)
  in
  let pending_max = List.fold_left max 0 pending in
  let n_hosts = List.fold_left (fun acc (_, r) -> max acc r.Drivers.n_hosts) 0 runs in
  let route_entries =
    List.fold_left (fun acc (_, r) -> max acc r.Drivers.max_route_entries) 0 runs
  in
  let hold = Micro.hold_ns ~depth:(int_of_float (Float.round pending_mean)) in
  let link_hop = Micro.link_hop_ns () in
  let fib = Micro.node_fib_ns ~hosts:n_hosts in
  let route = Micro.node_route_ns ~entries:route_entries in
  let node = match workload with Figures -> route | Fattree _ -> fib in
  let run_ns = sim_s *. 1e9 in
  let share ns count = ns *. float_of_int count /. run_ns in
  let markers = sum (fun r -> r.Drivers.markers_seen) runs in
  let feedback = sum (fun r -> r.Drivers.feedback_sent) runs in
  let early = sum (fun r -> r.Drivers.early_drops) runs in
  let sent = sum (fun r -> r.Drivers.sent) runs in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let figure_s id =
    match List.assoc_opt id base.runs with Some r -> r.Drivers.wall_s | None -> 0.
  in
  let traced_counts =
    List.fold_left
      (fun acc (_, r) ->
        List.map
          (fun (k, c) -> (k, c + Option.value ~default:0 (List.assoc_opt k acc)))
          r.Drivers.trace_counts)
      [] traced.runs
  in
  let metrics =
    [
      ("topo.build_s", Spans.get spans "topo.build_s", "s");
      ("topo.fib_compute_s", Spans.get spans "topo.fib_compute_s", "s");
      ("topo.flows_generate_s", Spans.get spans "topo.flows_generate_s", "s");
      ("network.of_topo_s", Spans.get spans "network.of_topo_s", "s");
      ("network.topology1_s", Spans.get spans "network.topology1_s", "s");
      ("deployment.build_s", Spans.get spans "deployment.build_s", "s");
      ("deployment.add_flow_s", Spans.get spans "deployment.add_flow_s", "s");
      ("deployment.end_flow_s", Spans.get spans "deployment.end_flow_s", "s");
      ( "deployment.live_words_per_flow",
        Clock.median (List.map (fun (_, r) -> r.Drivers.live_words_per_flow) runs),
        "words" );
      ("sim.run_s", sim_s, "s");
      ("sim.events", float_of_int events, "count");
      ("sim.events_per_hop", float_of_int events /. fhops, "ratio");
      ("sim.ns_per_event", run_ns /. float_of_int events, "ns");
      ("sim.pending_mean", pending_mean, "count");
      ("sim.pending_max", float_of_int pending_max, "count");
      ("event_queue.hold_ns", hold, "ns");
      ("event_queue.share", share hold events, "fraction");
      ("link.hop_ns", link_hop, "ns");
      ("link.share", share link_hop hops, "fraction");
      ("node.forward_fib_ns", fib, "ns");
      ("node.forward_route_ns", route, "ns");
      ("node.share", share node hops, "fraction");
      ("net.hops", fhops, "count");
      ("net.drops_access", float_of_int (sum (fun r -> r.Drivers.drops_access) runs), "count");
      ("net.drops_fabric", float_of_int (sum (fun r -> r.Drivers.drops_fabric) runs), "count");
      ("corelite.markers_seen", float_of_int markers, "count");
      ("corelite.feedback_sent", float_of_int feedback, "count");
      ("corelite.feedback_per_marker", ratio feedback markers, "ratio");
      ( "corelite.congested_epochs",
        float_of_int (sum (fun r -> r.Drivers.congested_epochs) runs),
        "count" );
      ("csfq.early_drops", float_of_int early, "count");
      ("csfq.early_drop_frac", ratio early sent, "fraction");
      ("fairness.maxmin_solve_s", Spans.get spans "fairness.maxmin_solve_s", "s");
    ]
    @ List.map (fun id -> (Printf.sprintf "figures.%s_s" id, figure_s id, "s")) figure_ids
    @ [
        ("gc.minor_collections", float_of_int gc_minor, "count");
        ("gc.major_collections", float_of_int gc_major, "count");
        ( "gc.promoted_words_per_hop",
          sumf (fun r -> r.Drivers.sim_promoted_words) base.runs /. fhops,
          "words" );
      ]
    @ List.map
        (fun k ->
          let name = Sim.Trace.kind_name k in
          ( "trace." ^ name,
            float_of_int (Option.value ~default:0 (List.assoc_opt name traced_counts)),
            "count" ))
        Sim.Trace.all_kinds
    @ [
        ( "trace.overhead_frac",
          (sumf (fun r -> r.Drivers.wall_s) traced.runs
          /. sumf (fun r -> r.Drivers.wall_s) untraced.runs)
          -. 1.,
          "fraction" );
        ( "model.residual_frac",
          1. -. (share hold events +. share link_hop hops +. share node hops),
          "fraction" );
      ]
  in
  (metrics, checks)

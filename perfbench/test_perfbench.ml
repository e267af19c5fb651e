(* The benchmark's own tests: its drivers reproduce the public entry
   points they stand in for, byte for byte, and its checks accept a
   second seed's different outputs. *)

open Perfbench

let spans () = Spans.create ~on:true

let k4 scheme end_fraction =
  {
    Drivers.k = 4;
    n_flows = 64;
    scheme;
    duration = 5.;
    end_fraction;
  }

let scale_run ~seed ~label scheme end_fraction =
  let engine = Sim.Engine.create () in
  Workload.Scale.run ~engine ~seed ~label ~graph:(Workload.Scale.Fattree 4) ~n_flows:64
    ~scheme ~duration:5. ~end_fraction ~reference:true ~csv:true ()

let csv_of (r : Drivers.run) = List.assoc "flows.csv" r.payloads

let read path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The committed golden pins Workload.Scale.run on fat-tree k=4. *)
let golden_label = "golden/fattree-k4"

let fattree_reproduces_golden () =
  let golden = read "scale_fattree_k4.csv" in
  List.iter
    (fun spans ->
      let r =
        Drivers.fattree ~spans ~seed:42 ~label:golden_label (k4 Drivers.Corelite 0.)
      in
      Alcotest.(check string) "per-flow CSV = golden" golden (csv_of r))
    [ Spans.off; spans () ]

let fattree_reproduces_scale_run () =
  List.iter
    (fun (scheme, sscheme, end_fraction) ->
      let expected = scale_run ~seed:42 ~label:"t/k4" sscheme end_fraction in
      List.iter
        (fun (what, spans, trace) ->
          let r =
            Drivers.fattree ~spans ?trace ~seed:42 ~label:"t/k4" (k4 scheme end_fraction)
          in
          Alcotest.(check (option string))
            (what ^ ": per-flow CSV") expected.Workload.Scale.csv (Some (csv_of r));
          Alcotest.(check (option (float 0.)))
            (what ^ ": jain_vs_reference") expected.Workload.Scale.jain_vs_reference
            (Some (Drivers.jain r.jain_ratios));
          Alcotest.(check int) (what ^ ": drops") expected.Workload.Scale.drops r.drops;
          Alcotest.(check int) (what ^ ": events") expected.Workload.Scale.events r.events)
        [
          ("untimed", Spans.off, None);
          ("phase by phase", spans (), None);
          ("traced", Spans.off, Some Records.kinds_all);
        ])
    [
      (Drivers.Corelite, Workload.Scale.Corelite, 0.);
      (Drivers.Corelite, Workload.Scale.Corelite, 0.2);
      (Drivers.Csfq, Workload.Scale.Csfq, 0.);
      (Drivers.Csfq, Workload.Scale.Csfq, 0.2);
    ]

let figure_specs () =
  [ Workload.Figures.fig5 (); Workload.Figures.fig6 (); Workload.Figures.fig9 (); Workload.Figures.fig10 () ]

let figures_reproduce () =
  List.iter
    (fun spec ->
      let id = spec.Workload.Figures.id in
      let expected =
        Drivers.figure_payloads spec
          (Workload.Csv.result_strings (Workload.Figures.run ~seed:42 spec))
      in
      let check what (r : Drivers.run) =
        Alcotest.(check (list (pair string string))) (id ^ ": " ^ what) expected r.payloads
      in
      check "probed end-to-end run" (Drivers.figure_e2e ~seed:42 spec);
      check "phase by phase" (Drivers.figure_phases ~spans:(spans ()) ~seed:42 spec);
      check "traced" (Drivers.figure_phases ~spans:Spans.off ~trace:Records.kinds_all ~seed:42 spec))
    (figure_specs ())

let all_checks_pass what (r : Drivers.run) =
  let c = Checks.create () in
  Checks.run c ~what r;
  Checks.jain c ~what r.jain_ratios (Drivers.jain r.jain_ratios);
  Alcotest.(check (list string)) (what ^ ": no failed check") [] c.failures;
  Alcotest.(check bool) (what ^ ": checks ran") true (c.attempted > 0)

let second_seed_differs_and_passes () =
  let ft seed = Drivers.fattree ~seed ~label:"t/seed" (k4 Drivers.Csfq 0.2) in
  let a = ft 42 and b = ft 7 in
  Alcotest.(check bool) "fat-tree outputs differ" false (csv_of a = csv_of b);
  all_checks_pass "fat-tree seed 42" a;
  all_checks_pass "fat-tree seed 7" b;
  let spec = Workload.Figures.fig5 () in
  let fa = Drivers.figure_e2e ~seed:42 spec and fb = Drivers.figure_e2e ~seed:7 spec in
  Alcotest.(check bool) "figure outputs differ" false (fa.payloads = fb.payloads);
  List.iter
    (fun (what, r) ->
      all_checks_pass what r;
      let c = Checks.create () in
      List.iter (Checks.figure_shape c ~duration:spec.Workload.Figures.duration) r.Drivers.payloads;
      Alcotest.(check (list string)) (what ^ ": payload shape") [] c.failures)
    [ ("fig5 seed 42", fa); ("fig5 seed 7", fb) ]

let () =
  Sim.Invariant.set_default true;
  Alcotest.run "perfbench"
    [
      ( "reproduction",
        [
          Alcotest.test_case "fat-tree k4 = committed golden" `Quick fattree_reproduces_golden;
          Alcotest.test_case "fat-tree k4 = Scale.run, both schemes" `Quick
            fattree_reproduces_scale_run;
          Alcotest.test_case "figure payloads = Figures.run" `Quick figures_reproduce;
        ] );
      ( "checks",
        [
          Alcotest.test_case "second seed differs and passes" `Quick
            second_seed_differs_and_passes;
        ] );
    ]

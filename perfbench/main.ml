(* One repetition of one benchmark workload, as a JSON line on stdout.

     main.exe e2e   --workload NAME [--seed N] [--results DIR]
     main.exe trace --workload NAME [--seed N] [--results DIR]

   [e2e] runs the workload untraced and prints its end-to-end metrics,
   the counters that must repeat exactly, a digest of its outputs and
   its host time cut into segments (Records.segments).
   [trace] runs it four times — untraced, phase by phase with every
   layer call timed, phase by phase untraced, and with Sim.Trace armed
   — checks that the three phase-by-phase passes reproduce the first,
   and prints the per-layer metrics. Both print the output checks they
   made. Exit code 0 even when a check fails: failures are reported in
   the record. *)

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let metrics_json metrics =
  obj
    (List.map
       (fun (name, value, unit) ->
         (name, obj [ ("value", json_float value); ("unit", json_string unit) ]))
       metrics)

let checks_json (c : Perfbench.Checks.t) =
  [
    ("attempted", string_of_int c.attempted);
    ("failed", string_of_int (Perfbench.Checks.failed c));
    ("failures", "[" ^ String.concat ", " (List.rev_map json_string c.failures) ^ "]");
  ]

let () =
  let mode = ref "" and workload = ref "" and seed = ref 42 and results = ref "results" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--results", Arg.Set_string results, "DIR committed figure CSVs (default results)");
    ]
    (fun m -> mode := m)
    "main.exe (e2e|trace) --workload NAME [--seed N] [--results DIR]";
  let open Perfbench in
  let w =
    match List.assoc_opt !workload Records.workloads with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  let name = !workload in
  let line =
    match !mode with
    | "e2e" ->
      let e = Records.e2e ~name ~seed:!seed ~results_dir:!results w in
      obj
        ([
           ("metrics", metrics_json (Records.e2e_metrics e));
           ( "exact",
             obj (List.map (fun (k, v) -> (k, json_float v)) (Records.e2e_exact e)) );
           ("digest", json_string (Records.digest e));
           ( "segments",
             obj
               (List.map
                  (fun (part, xs) ->
                    (part, "[" ^ String.concat ", " (List.map json_float xs) ^ "]"))
                  (Records.segments e)) );
         ]
        @ checks_json e.checks)
    | "trace" ->
      let metrics, checks = Records.trace_metrics ~name ~seed:!seed ~results_dir:!results w in
      obj (("metrics", metrics_json metrics) :: checks_json checks)
    | m ->
      prerr_endline ("unknown mode: " ^ m);
      exit 2
  in
  print_endline line

(* Priced microbenchmarks of single layers, at the operating point a
   run measured: the event heap at the run's mean pending count, the
   link wire, and one node forwarding step on either plane. Each price
   is the median over several timed batches, in nanoseconds per
   operation. *)

let batches = 7

let ns_per_op ~ops f =
  f ();
  Clock.median
    (List.init batches (fun _ ->
         let t0 = Clock.now () in
         f ();
         (Clock.now () -. t0) *. 1e9 /. float_of_int ops))

(* Hold model: pop the earliest event and push one a random increment
   later, so the heap stays at [depth] entries. *)
let hold_ns ~depth =
  let depth = max 1 depth in
  let q = Sim.Event_queue.create () in
  let st = Random.State.make [| depth |] in
  let steps = Array.init 4096 (fun _ -> Random.State.float st 1.) in
  let payload () = () in
  for i = 0 to depth - 1 do
    Sim.Event_queue.add q ~key:(Random.State.float st 1.) ~seq:i payload
  done;
  let seq = ref depth in
  let ops = 200_000 in
  ns_per_op ~ops (fun () ->
      for i = 1 to ops do
        let key = Sim.Event_queue.next_time q in
        Sim.Event_queue.pop_exn q ();
        Sim.Event_queue.add q ~key:(key +. steps.(i land 4095)) ~seq:!seq payload;
        incr seq
      done)

let batch = 32

let bench_link () =
  let engine = Sim.Engine.create () in
  let link =
    Net.Link.create ~engine ~id:0 ~name:"bench" ~src:0 ~dst:1 ~bandwidth:4e6 ~delay:0.002
      ~qdisc:(Net.Qdisc.droptail ~capacity:(2 * batch))
      ()
  in
  link.Net.Link.deliver <- ignore;
  (engine, link)

(* Cost per packet of [send] for batches of [batch] packets, each batch
   drained through the engine (transmission and delivery events). *)
let hop_once ~packets ~send engine () =
  let rounds = 2000 in
  let t0 = Clock.now () in
  for _ = 1 to rounds do
    for i = 0 to batch - 1 do
      send packets.(i)
    done;
    Sim.Engine.run engine
  done;
  (Clock.now () -. t0) *. 1e9 /. float_of_int (rounds * batch)

let link_hop () =
  let engine, link = bench_link () in
  let packets = Array.init batch (fun i -> Net.Packet.make ~id:i ~flow:1 ~created:0. ()) in
  hop_once ~packets ~send:(Net.Link.send link) engine

(* A node's price is the node-plus-link hop minus the bare link hop,
   timed in alternation so both see the same host conditions; the
   median of the paired differences is reported. *)
let node_ns node ~packets =
  let engine, link = bench_link () in
  let via_node = hop_once ~packets ~send:(Net.Node.receive (node link)) engine in
  let bare = link_hop () in
  ignore (via_node ());
  ignore (bare ());
  Clock.median
    (List.init (2 * batches) (fun _ ->
         let b = bare () in
         via_node () -. b))

let link_hop_ns () =
  let bare = link_hop () in
  ignore (bare ());
  Clock.median (List.init (2 * batches) (fun _ -> bare ()))

let node_fib_ns ~hosts =
  let hosts = max 2 hosts in
  let node link =
    let n = Net.Node.create ~id:0 ~name:"bench" ~kind:Net.Node.Core in
    Net.Node.set_fib n ~host:(-1) ~fib:(Array.make hosts (Some link)) ~host_sink:None;
    n
  in
  node_ns node
    ~packets:
      (Array.init batch (fun i ->
           Net.Packet.make ~id:i ~flow:1 ~dst:(i * 7919 mod hosts) ~created:0. ()))

let node_route_ns ~entries =
  let entries = max 1 entries in
  let node link =
    let n = Net.Node.create ~id:0 ~name:"bench" ~kind:Net.Node.Core in
    for flow = 1 to entries do
      Net.Node.set_route n ~flow link
    done;
    n
  in
  node_ns node
    ~packets:
      (Array.init batch (fun i ->
           Net.Packet.make ~id:i ~flow:(1 + (i mod entries)) ~created:0. ()))

(* Dijkstra on (delay, hops) lexicographic cost over the directed link
   graph. Node count in our scenarios is small (tens), so the simple
   priority handling below is plenty. *)

let adjacency topology =
  let adj : (int, (Node.t * float) list) Hashtbl.t = Hashtbl.create 32 in
  let node_by_id : (int, Node.t) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun node -> Hashtbl.replace node_by_id node.Node.id node)
    (Topology.nodes topology);
  List.iter
    (fun link ->
      match Hashtbl.find_opt node_by_id link.Link.dst with
      | Some dst ->
        let existing = Option.value ~default:[] (Hashtbl.find_opt adj link.Link.src) in
        Hashtbl.replace adj link.Link.src ((dst, link.Link.delay) :: existing)
      | None -> ())
    (Topology.links topology);
  adj

let paths_from topology ~src =
  let adj = adjacency topology in
  (* cost = (delay, hops); predecessor map rebuilt into paths on demand. *)
  let dist : (int, float * int) Hashtbl.t = Hashtbl.create 32 in
  let pred : (int, Node.t) Hashtbl.t = Hashtbl.create 32 in
  let visited : (int, unit) Hashtbl.t = Hashtbl.create 32 in
  (* The event queue doubles as a priority queue: key = delay, and
     seq = hops * stride + push count orders equal delays by hops. Each
     relaxation pushes at most once per link, so the push count stays
     below [stride] and every seq is unique, as the queue requires. *)
  let frontier = Sim.Event_queue.create () in
  let stride = List.length (Topology.links topology) + 1 in
  let pushes = ref 0 in
  let push node (delay, hops) =
    Hashtbl.replace dist node.Node.id (delay, hops);
    Sim.Event_queue.add frontier ~key:delay ~seq:((hops * stride) + !pushes) node;
    incr pushes
  in
  push src (0., 0);
  let rec settle () =
    match Sim.Event_queue.pop frontier with
    | None -> ()
    | Some (_, _, node) ->
      if not (Hashtbl.mem visited node.Node.id) then begin
        Hashtbl.replace visited node.Node.id ();
        let delay, hops = Hashtbl.find dist node.Node.id in
        List.iter
          (fun (next, link_delay) ->
            let candidate = (delay +. link_delay, hops + 1) in
            if not (Hashtbl.mem visited next.Node.id) then
              match Hashtbl.find_opt dist next.Node.id with
              | Some current when candidate > current -> ()
              | Some current when candidate = current ->
                (* Equal cost: the lowest-id predecessor wins, whatever
                   order equal-cost entries leave the queue in. *)
                if node.Node.id < (Hashtbl.find pred next.Node.id).Node.id then
                  Hashtbl.replace pred next.Node.id node
              | Some _ | None ->
                Hashtbl.replace pred next.Node.id node;
                push next candidate)
          (Option.value ~default:[] (Hashtbl.find_opt adj node.Node.id))
      end;
      settle ()
  in
  settle ();
  fun dst ->
    if dst.Node.id = src.Node.id then Some [ src ]
    else if not (Hashtbl.mem dist dst.Node.id) then None
    else begin
      let rec walk acc node =
        if node.Node.id = src.Node.id then node :: acc
        else walk (node :: acc) (Hashtbl.find pred node.Node.id)
      in
      Some (walk [] dst)
    end

let shortest_path topology ~src ~dst = paths_from topology ~src dst

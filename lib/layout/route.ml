module L = Technology.Layer
module R = Technology.Rules
module P = Technology.Process
module E = Technology.Electrical
module G = Geometry

type net_request = {
  net : string;
  current : float;
}

type net_wire = {
  net : string;
  track : int;
  trunk_x0 : int;
  trunk_x1 : int;
  trunk_y : int;
  width : int;
  branch_length : int;
  cap_ground : float;
  coupling : (string * float) list;
}

type result = {
  wires : net_wire list;
  channel_height : int;
  cell : Cell.t;
}

let cap_of_wire proc ~layer ~length ~width =
  let wire =
    match E.wire_of_layer proc.P.electrical layer with
    | Some w -> w
    | None -> invalid_arg "cap_of_wire: not a routing layer"
  in
  let lam = proc.P.lambda in
  let len_m = float_of_int length *. lam in
  let w_m = float_of_int width *. lam in
  (wire.E.area_cap *. len_m *. w_m) +. (2.0 *. wire.E.fringe_cap *. len_m)

(* Ports of a net, as (x-centre, top-y) pairs. *)
let net_ports placed net =
  Cell.ports_of_net placed net
  |> List.map (fun p ->
    let cx, _ = Cell.port_center p in
    (cx, p.Cell.shape.G.y1))

let route proc ~placed ~nets =
  let rules = proc.P.rules in
  let _, _, _, top_y = Cell.bbox placed in
  let channel_y0 = top_y + rules.R.metal2_space in
  (* keep only nets that actually appear in the placement; sort by the
     mean x of their ports so neighbouring tracks carry related nets *)
  let requests =
    List.filter_map
      (fun (req : net_request) ->
        match net_ports placed req.net with
        | [] -> None
        | ports -> Some (req, ports))
      nets
  in
  let requests =
    List.sort
      (fun (_, pa) (_, pb) ->
        let mean ps =
          List.fold_left (fun acc (x, _) -> acc + x) 0 ps / List.length ps
        in
        compare (mean pa) (mean pb))
      requests
  in
  (* assign one track per net, bottom-up, EM-driven widths *)
  let wires_rev, next_y =
    List.fold_left
      (fun (acc, y) ((req, ports) : net_request * (int * int) list) ->
        let width = Motif.required_strap_width proc L.Metal2 ~current:req.current in
        let xs = List.map fst ports in
        let x0 = List.fold_left min max_int xs - (width / 2) in
        let x1 = List.fold_left max min_int xs + (width / 2) + 1 in
        let branch_length =
          List.fold_left (fun acc (_, py) -> acc + max 0 (y - py)) 0 ports
        in
        let wire =
          {
            net = req.net;
            track = List.length acc;
            trunk_x0 = x0;
            trunk_x1 = x1;
            trunk_y = y;
            width;
            branch_length;
            cap_ground = 0.0;
            coupling = [];
          }
        in
        (wire :: acc, y + width + rules.R.metal2_space))
      ([], channel_y0) requests
  in
  let wires = Array.of_list (List.rev wires_rev) in
  let n = Array.length wires in
  (* capacitance to ground: trunk (metal2) + branches (metal1) *)
  let lam = proc.P.lambda in
  let coupling_per_m = proc.P.electrical.E.metal2_wire.E.coupling_cap in
  for i = 0 to n - 1 do
    let w = wires.(i) in
    let trunk_cap =
      cap_of_wire proc ~layer:L.Metal2 ~length:(w.trunk_x1 - w.trunk_x0)
        ~width:w.width
    in
    let branch_cap =
      cap_of_wire proc ~layer:L.Metal1 ~length:w.branch_length
        ~width:rules.R.metal1_width
    in
    (* coupling to the neighbouring track(s), over the x overlap *)
    let couple j =
      if j < 0 || j >= n then None
      else begin
        let o = wires.(j) in
        let overlap = min w.trunk_x1 o.trunk_x1 - max w.trunk_x0 o.trunk_x0 in
        if overlap <= 0 then None
        else Some (o.net, coupling_per_m *. (float_of_int overlap *. lam))
      end
    in
    let coupling = List.filter_map couple [ i - 1; i + 1 ] in
    wires.(i) <- { w with cap_ground = trunk_cap +. branch_cap; coupling }
  done;
  (* draw the channel geometry *)
  let cell = ref (Cell.empty "routing") in
  Array.iter
    (fun w ->
      cell :=
        Cell.add_rect !cell
          (G.rect L.Metal2 ~x0:w.trunk_x0 ~y0:w.trunk_y ~x1:w.trunk_x1
             ~y1:(w.trunk_y + w.width));
      List.iter
        (fun (px, py) ->
          let bw = rules.R.metal1_width in
          let x0 = px - (bw / 2) in
          cell :=
            Cell.add_rect !cell
              (G.rect L.Metal1 ~x0 ~y0:py ~x1:(x0 + bw)
                 ~y1:(w.trunk_y + w.width));
          let vs = rules.R.via1_size in
          cell :=
            Cell.add_rect !cell
              (G.rect L.Via1 ~x0:(px - (vs / 2)) ~y0:(w.trunk_y + ((w.width - vs) / 2))
                 ~x1:(px - (vs / 2) + vs)
                 ~y1:(w.trunk_y + ((w.width - vs) / 2) + vs)))
        (net_ports placed w.net))
    wires;
  let channel_height =
    if n = 0 then 0 else next_y - channel_y0
  in
  { wires = Array.to_list wires; channel_height; cell = !cell }

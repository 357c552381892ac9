module L = Technology.Layer
module P = Technology.Process
module E = Technology.Electrical
module F = Device.Folding

type group =
  | Single of { spec : Motif.spec; allowed_folds : int list }
  | Matched_singles of { specs : Motif.spec list; allowed_folds : int list }
  | Matched_pair of { spec : Pair.spec; allowed_folds : int list }
  | Mirror of { spec : Stack.spec; unit_scales : int list }

let group_name = function
  | Single { spec; _ } -> spec.Motif.dev.Device.Mos.name
  | Matched_singles { specs; _ } ->
    String.concat "/"
      (List.map (fun s -> s.Motif.dev.Device.Mos.name) specs)
  | Matched_pair { spec; _ } -> spec.Pair.a_name ^ "/" ^ spec.Pair.b_name
  | Mirror { spec = s; _ } ->
    String.concat ":" (List.map (fun e -> e.Stack.el_name) s.Stack.elements)

type floorplan = group Slicing.t

type mode = Parasitic_only | Generation

type net_summary = {
  net : string;
  routing_cap : float;
  coupling : (string * float) list;
  well_cap : float;
}

let net_total s =
  s.routing_cap +. s.well_cap
  +. List.fold_left (fun acc (_, c) -> acc +. c) 0.0 s.coupling

(* One realised variant of a group: cell plus electrical annotations. *)
type variant = {
  v_cell : Cell.t;
  v_styles : (string * F.style) list;
  v_drains : (string * F.geom) list;
  v_well_net : string option;  (* net loaded by the n-well junction *)
}

let well_net_of_mtype mtype b_net =
  match mtype with E.Nmos -> None | E.Pmos -> Some b_net

let generate_variants proc group =
  match group with
  | Single { spec; allowed_folds } ->
    let folds = if allowed_folds = [] then [ 1 ] else allowed_folds in
    List.map
      (fun nf ->
        let style = { F.nf; drain_internal = true } in
        let dev = Device.Mos.with_style style spec.Motif.dev in
        let r = Motif.generate proc { spec with Motif.dev } in
        let name = dev.Device.Mos.name in
        {
          v_cell = r.Motif.cell;
          v_styles = [ (name, style) ];
          v_drains = [ (name, r.Motif.drawn_geom) ];
          v_well_net =
            well_net_of_mtype dev.Device.Mos.mtype spec.Motif.b_net;
        })
      folds
  | Matched_singles { specs; allowed_folds } ->
    let folds = if allowed_folds = [] then [ 1 ] else allowed_folds in
    let gap = 3 (* active spacing between the abutted motifs, lambda *) in
    List.map
      (fun nf ->
        let style = { F.nf; drain_internal = true } in
        let results =
          List.map
            (fun mspec ->
              let dev = Device.Mos.with_style style mspec.Motif.dev in
              (dev.Device.Mos.name,
               Motif.generate proc { mspec with Motif.dev },
               mspec))
            specs
        in
        (* abut the motif cells left to right *)
        let _, cell =
          List.fold_left
            (fun (x, acc) (_, r, _) ->
              let w, _ = Cell.size r.Motif.cell in
              (x + w + gap, Cell.translate ~dx:x ~dy:0 r.Motif.cell :: acc))
            (0, []) results
        in
        let merged = Cell.normalize (Cell.merge "matched" (List.rev cell)) in
        {
          v_cell = merged;
          v_styles = List.map (fun (name, _, _) -> (name, style)) results;
          v_drains =
            List.map (fun (name, r, _) -> (name, r.Motif.drawn_geom)) results;
          v_well_net =
            (match specs with
             | mspec :: _ ->
               well_net_of_mtype mspec.Motif.dev.Device.Mos.mtype
                 mspec.Motif.b_net
             | [] -> None);
        })
      folds
  | Matched_pair { spec; allowed_folds } ->
    let folds = if allowed_folds = [] then [ spec.Pair.nf ] else allowed_folds in
    let folds =
      match spec.Pair.style with
      | Pair.Common_centroid -> List.filter (fun nf -> nf mod 2 = 0) folds
      | Pair.Interdigitated -> folds
    in
    let folds = if folds = [] then [ 2 ] else folds in
    List.map
      (fun nf ->
        let spec = { spec with Pair.nf } in
        let r = Pair.generate proc spec in
        let style = { F.nf; drain_internal = true } in
        {
          v_cell = r.Pair.cell;
          v_styles = [ (spec.Pair.a_name, style); (spec.Pair.b_name, style) ];
          v_drains =
            [ (spec.Pair.a_name, r.Pair.geom_a); (spec.Pair.b_name, r.Pair.geom_b) ];
          v_well_net = well_net_of_mtype spec.Pair.mtype spec.Pair.bulk_net;
        })
      folds
  | Mirror { spec; unit_scales } ->
    let scales = if unit_scales = [] then [ 1 ] else unit_scales in
    let realise spec =
      let r = Stack.generate proc spec in
      let total_units =
        List.fold_left (fun acc e -> acc + e.Stack.units) 0 spec.Stack.elements
      in
      let source = r.Stack.source_diffusion in
      let geom_of e =
        let d =
          try List.assoc e.Stack.el_name r.Stack.drain_diffusion
          with Not_found -> { Stack.area = 0.0; perim = 0.0 }
        in
        let share =
          float_of_int e.Stack.units /. float_of_int (max 1 total_units)
        in
        {
          F.ad = d.Stack.area;
          as_ = source.Stack.area *. share;
          pd = d.Stack.perim;
          ps = source.Stack.perim *. share;
          finger_w = spec.Stack.unit_w;
          drain_strips = max 1 (e.Stack.units / 2);
          source_strips = (e.Stack.units / 2) + 1;
        }
      in
      {
        v_cell = r.Stack.cell;
        v_styles =
          List.map
            (fun e ->
              (e.Stack.el_name, { F.nf = e.Stack.units; drain_internal = false }))
            spec.Stack.elements;
        v_drains =
          List.map (fun e -> (e.Stack.el_name, geom_of e)) spec.Stack.elements;
        v_well_net = well_net_of_mtype spec.Stack.mtype spec.Stack.bulk_net;
      }
    in
    let scaled k =
      {
        spec with
        Stack.elements =
          List.map
            (fun e -> { e with Stack.units = e.Stack.units * k })
            spec.Stack.elements;
        unit_w = spec.Stack.unit_w /. float_of_int k;
      }
    in
    List.map (fun k -> realise (scaled k)) scales

(* The shape-curve source: all realised variants of a device group are a
   pure function of (process, group) — the group already pins the device
   cards, matching style and candidate fold counts — so the per-fold
   Motif/Pair/Stack generation is memoized.  Repeated area optimisations
   over the same floorplan (every Monte Carlo sample, every corner) then
   reduce to Pareto merges of cached curves. *)
let variants_memo : (P.t * group, variant list) Cache.Memo.t =
  Cache.Memo.create ~name:"cairo.variants" ~shards:8 ~capacity:4096 ()

let variants_of_group proc group =
  Cache.Memo.find_or_compute variants_memo (proc, group) (fun () ->
    generate_variants proc group)

type report = {
  device_styles : (string * F.style) list;
  device_drains : (string * F.geom) list;
  nets : net_summary list;
  total_w : int;
  total_h : int;
  cell : Cell.t option;
}

let well_cap proc cell =
  let area_lambda2 = Cell.layer_area cell L.Nwell in
  if area_lambda2 = 0 then 0.0
  else begin
    let lam = proc.P.lambda in
    let area = float_of_int area_lambda2 *. lam *. lam in
    (* perimeter approximation: the wells drawn by the generators are
       rectangles; sum their perimeters *)
    let perim = Cell.layer_perimeter cell L.Nwell in
    (proc.P.electrical.E.nwell_cap_area *. area)
    +. (proc.P.electrical.E.nwell_cap_perim *. float_of_int perim *. lam)
  end

let run ?max_w ?max_h ?aspect ~mode ~nets proc floorplan =
  Obs.Trace.with_span ~cat:"cairo"
    ~args:
      [ ("mode",
         Obs.Trace.Str
           (match mode with
            | Parasitic_only -> "parasitic_only"
            | Generation -> "generation")) ]
    "cairo.plan.run"
  @@ fun () ->
  if (Obs.Config.enabled ()) then begin
    Obs.Metrics.incr "cairo.plan.calls";
    Obs.Metrics.incr
      (match mode with
       | Parasitic_only -> "cairo.plan.parasitic_calls"
       | Generation -> "cairo.plan.generation_calls")
  end;
  (* annotate leaves with eagerly generated variants *)
  let rec to_variant_tree = function
    | Slicing.Leaf (g, _) ->
      let vs = variants_of_group proc g in
      assert (vs <> []);
      if (Obs.Config.enabled ()) then
        Obs.Metrics.add "cairo.plan.variants_generated"
          (float_of_int (List.length vs));
      let boxes = List.map (fun v -> Cell.size v.v_cell) vs in
      Slicing.Leaf ((g, Array.of_list vs), boxes)
    | Slicing.H (a, b) -> Slicing.H (to_variant_tree a, to_variant_tree b)
    | Slicing.V (a, b) -> Slicing.V (to_variant_tree a, to_variant_tree b)
  in
  let vtree = to_variant_tree floorplan in
  match Slicing.optimize ?max_w ?max_h ?aspect vtree with
  | None -> failwith "Plan.run: no floorplan satisfies the shape constraint"
  | Some (placements, (w, h)) ->
    let chosen =
      List.map
        (fun p ->
          let g, vs = p.Slicing.payload in
          (g, vs.(p.Slicing.variant), p))
        placements
    in
    let device_styles = List.concat_map (fun (_, v, _) -> v.v_styles) chosen in
    let device_drains = List.concat_map (fun (_, v, _) -> v.v_drains) chosen in
    let placed =
      Cell.merge "floorplan"
        (List.map
           (fun (_, v, p) ->
             Cell.translate ~dx:p.Slicing.x ~dy:p.Slicing.y v.v_cell)
           chosen)
    in
    let routing = Route.route proc ~placed ~nets in
    (* per-net summaries: routing + coupling + well junctions *)
    let well_caps =
      List.filter_map
        (fun (g, v, _) ->
          match v.v_well_net with
          | None -> None
          | Some net -> Some (net, well_cap proc v.v_cell, group_name g))
        chosen
    in
    let net_names =
      List.sort_uniq compare
        (List.map (fun (r : Route.net_request) -> r.Route.net) nets
         @ List.map (fun (n, _, _) -> n) well_caps)
    in
    let summaries =
      List.map
        (fun net ->
          let wire =
            List.find_opt (fun (w : Route.net_wire) -> w.Route.net = net)
              routing.Route.wires
          in
          let routing_cap, coupling =
            match wire with
            | Some w -> (w.Route.cap_ground, w.Route.coupling)
            | None -> (0.0, [])
          in
          let well =
            List.fold_left
              (fun acc (n, c, _) -> if n = net then acc +. c else acc)
              0.0 well_caps
          in
          { net; routing_cap; coupling; well_cap = well })
        net_names
    in
    let total_h = h + routing.Route.channel_height + proc.P.rules.Technology.Rules.metal2_space in
    if (Obs.Config.enabled ()) then begin
      Obs.Trace.add_arg "total_w" (Obs.Trace.Int w);
      Obs.Trace.add_arg "total_h" (Obs.Trace.Int total_h);
      Obs.Metrics.set "cairo.plan.last_area_lambda2"
        (float_of_int (w * total_h))
    end;
    let cell =
      match mode with
      | Parasitic_only -> None
      | Generation ->
        Some
          (Cell.normalize
             (Cell.merge "layout" [ placed; routing.Route.cell ]))
    in
    {
      device_styles;
      device_drains;
      nets = summaries;
      total_w = w;
      total_h;
      cell;
    }

let find_net report net = List.find_opt (fun s -> s.net = net) report.nets

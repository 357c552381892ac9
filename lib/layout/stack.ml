module L = Technology.Layer
module R = Technology.Rules
module P = Technology.Process
module E = Technology.Electrical
module G = Geometry

type element = {
  el_name : string;
  units : int;
  drain_net : string;
  current : float;
}

type gate_style =
  | Common of string
  | Rails of (string * string) list

type spec = {
  elements : element list;
  mtype : E.mos_type;
  unit_w : float;
  l : float;
  source_net : string;
  gate : gate_style;
  bulk_net : string;
  dummies : bool;
}

type slot = Dummy | Unit of string

type placement = slot array

(* Assign symmetric position pairs from the centre outwards to the element
   with the most remaining units; exact common centroid for even counts,
   minimal offset otherwise. *)
let interleave spec =
  let total = List.fold_left (fun acc e -> acc + e.units) 0 spec.elements in
  assert (total >= 1);
  let slots = Array.make total Dummy in
  let remaining =
    ref (List.map (fun e -> (e.el_name, e.units)) spec.elements)
  in
  let take name =
    remaining :=
      List.filter_map
        (fun (n, k) ->
          if n = name then if k <= 1 then None else Some (n, k - 1)
          else Some (n, k))
        !remaining
  in
  let argmax ?(min_count = 1) ?(parity = fun _ -> true) () =
    List.fold_left
      (fun best (n, k) ->
        if k < min_count || not (parity k) then best
        else
          match best with
          | Some (_, kb) when kb >= k -> best
          | Some _ | None -> Some (n, k))
      None !remaining
  in
  (* centre-out position order *)
  let order =
    let mid_hi = total / 2 in
    let rec build d acc =
      let left = mid_hi - 1 - d and right = mid_hi + d in
      let acc = if right < total then right :: acc else acc in
      let acc = if left >= 0 then left :: acc else acc in
      if left < 0 && right >= total then List.rev acc else build (d + 1) acc
    in
    build 0 []
  in
  let order =
    if total mod 2 = 1 then
      (* odd total: the exact centre position comes first; give it to an
         element with an odd unit count so the rest can pair up *)
      let centre = total / 2 in
      centre :: List.filter (fun p -> p <> centre) order
    else order
  in
  (* odd-count elements leave one unpaired unit each; placing those
     singles on the innermost positions first minimises their centroid
     offset, after which everything else pairs up symmetrically *)
  let order = ref order in
  let next_pos () =
    match !order with
    | [] -> None
    | p :: rest ->
      order := rest;
      Some p
  in
  let place n p =
    slots.(p) <- Unit n;
    take n
  in
  let rec place_odd_singles () =
    match argmax ~parity:(fun k -> k mod 2 = 1) () with
    | None -> ()
    | Some (n, _) ->
      (match next_pos () with
       | None -> ()
       | Some p ->
         place n p;
         place_odd_singles ())
  in
  place_odd_singles ();
  let rec place_pairs () =
    match argmax ~min_count:2 () with
    | None ->
      (match argmax () with
       | None -> ()
       | Some (n, _) ->
         (match next_pos () with
          | None -> ()
          | Some p ->
            place n p;
            place_pairs ()))
    | Some (n, _) ->
      (match (next_pos (), next_pos ()) with
       | Some p1, Some p2 ->
         place n p1;
         place n p2;
         place_pairs ()
       | Some p1, None -> place n p1
       | None, _ -> ())
  in
  place_pairs ();
  if spec.dummies then Array.concat [ [| Dummy |]; slots; [| Dummy |] ]
  else slots

let unit_positions placement name =
  let acc = ref [] in
  Array.iteri
    (fun i s -> match s with Unit n when n = name -> acc := i :: !acc | Unit _ | Dummy -> ())
    placement;
  List.rev !acc

let centroid_offset placement name =
  match unit_positions placement name with
  | [] -> 0.0
  | ps ->
    let n = List.length ps in
    let centroid =
      float_of_int (List.fold_left ( + ) 0 ps) /. float_of_int n
    in
    let mid = float_of_int (Array.length placement - 1) /. 2.0 in
    Float.abs (centroid -. mid)

let orientation_imbalance placement name =
  let even, odd =
    List.fold_left
      (fun (e, o) p -> if p mod 2 = 0 then (e + 1, o) else (e, o + 1))
      (0, 0)
      (unit_positions placement name)
  in
  abs (even - odd)

type diffusion = { area : float; perim : float }

type result = {
  cell : Cell.t;
  placement : placement;
  drain_areas : (string * float) list;
  drain_diffusion : (string * diffusion) list;  (* per element *)
  source_diffusion : diffusion;                 (* whole shared source net *)
  strap_widths : (string * int) list;
  contacts_per_strip : int;
}

(* Net on a given side of a unit: position parity fixes orientation (even
   position: source on the left).  Dummies adopt the neighbouring net. *)
type side_net = Net of string | Adopt

let side_net spec placement i ~left =
  match placement.(i) with
  | Dummy -> Adopt
  | Unit name ->
    let source_on_left = i mod 2 = 0 in
    let is_source = if left then source_on_left else not source_on_left in
    if is_source then Net spec.source_net
    else
      let e = List.find (fun e -> e.el_name = name) spec.elements in
      Net e.drain_net

(* A strip slot between units (or at the ends) resolves to one shared strip
   or a split pair when two different drain nets face each other. *)
type strip =
  | Shared of string * int   (* net, length lambda *)
  | Split of string * string * int * int * int  (* netL, netR, lenL, gap, lenR *)

let resolve_strips proc spec placement =
  let rules = proc.P.rules in
  let ext = R.sd_contacted rules in
  let shared = R.sd_shared_contacted rules in
  let gap = rules.R.active_space in
  let n = Array.length placement in
  List.init (n + 1) (fun j ->
    let left_net = if j = 0 then None else Some (side_net spec placement (j - 1) ~left:false) in
    let right_net = if j = n then None else Some (side_net spec placement j ~left:true) in
    match (left_net, right_net) with
    | None, None -> Shared (spec.source_net, ext)
    | None, Some (Net x) | Some (Net x), None -> Shared (x, ext)
    | None, Some Adopt | Some Adopt, None -> Shared (spec.source_net, ext)
    | Some Adopt, Some Adopt -> Shared (spec.source_net, shared)
    | Some (Net x), Some Adopt | Some Adopt, Some (Net x) -> Shared (x, shared)
    | Some (Net a), Some (Net b) ->
      if a = b then Shared (a, shared) else Split (a, b, ext, gap, ext))

let generate_with_placement proc spec placement =
  let rules = proc.P.rules in
  let wf = max rules.R.active_width (P.to_lambda proc spec.unit_w) in
  let l_lambda = max rules.R.poly_width (P.to_lambda proc spec.l) in
  let strips = resolve_strips proc spec placement in
  let n = Array.length placement in
  let cs = rules.R.contact_size in
  let cspace = rules.R.contact_space in
  let encl = rules.R.active_contact_enclosure in
  let geo_contacts = max 1 ((wf - (2 * encl) + cspace) / (cs + cspace)) in
  (* EM strap width per element: element current split across its drain
     strips *)
  let drain_strip_count net =
    List.fold_left
      (fun acc s ->
        match s with
        | Shared (x, _) when x = net -> acc + 1
        | Split (a, b, _, _, _) ->
          acc + (if a = net then 1 else 0) + if b = net then 1 else 0
        | Shared _ -> acc)
      0 strips
  in
  let strap_widths =
    List.map
      (fun e ->
        let k = max 1 (drain_strip_count e.drain_net) in
        ( e.el_name,
          Motif.required_strap_width proc L.Metal1
            ~current:(e.current /. float_of_int k) ))
      spec.elements
  in
  let strap_of net =
    let per_element =
      List.filter_map
        (fun e ->
          if e.drain_net = net then Some (List.assoc e.el_name strap_widths)
          else None)
        spec.elements
    in
    List.fold_left max (cs + (2 * rules.R.metal1_contact_enclosure)) per_element
  in
  (* walk across, emitting geometry; record drain areas *)
  let lam = proc.P.lambda in
  let cell = ref (Cell.empty "stack") in
  let areas = Hashtbl.create 8 in
  (* [ends] is the number of strip ends not facing a gate (0 for a strip
     shared between two gates, 1 for end/split strips): they contribute the
     finger-width side to the junction perimeter *)
  let add_area net len ~ends =
    let a = float_of_int (len * wf) *. lam *. lam in
    let p = ((2.0 *. float_of_int len) +. float_of_int (ends * wf)) *. lam in
    let a0, p0 = try Hashtbl.find areas net with Not_found -> (0.0, 0.0) in
    Hashtbl.replace areas net (a0 +. a, p0 +. p)
  in
  (* one exposed port per net (middle strap): strips of one net are merged
     by the module's internal strap, so routing drops a single branch per
     module and net *)
  let straps_by_net = Hashtbl.create 4 in
  let emit_contact_column ~x ~len ~net =
    (* active strip segment with a centred contact column and a metal strap *)
    cell := Cell.add_rect !cell (G.rect L.Active ~x0:x ~y0:0 ~x1:(x + len) ~y1:wf);
    let col_x0 = x + ((len - cs) / 2) in
    let total_h = (geo_contacts * cs) + ((geo_contacts - 1) * cspace) in
    let start_y = (wf - total_h) / 2 in
    cell :=
      Cell.add_column !cell ~count:geo_contacts ~pitch:(cs + cspace)
        (G.rect L.Contact ~x0:col_x0 ~y0:start_y ~x1:(col_x0 + cs)
           ~y1:(start_y + cs));
    let mw = strap_of net in
    let mx0 = col_x0 + (cs / 2) - (mw / 2) in
    let m1 = G.rect L.Metal1 ~x0:mx0 ~y0:(-1) ~x1:(mx0 + mw) ~y1:(wf + 1) in
    let existing = try Hashtbl.find straps_by_net net with Not_found -> [] in
    Hashtbl.replace straps_by_net net (m1 :: existing);
    cell := Cell.add_rect !cell m1
  in
  let ext_gate = rules.R.poly_gate_extension in
  let emit_gate ~x ~dummy =
    cell :=
      Cell.add_rect !cell
        (G.rect L.Poly ~x0:x ~y0:(-ext_gate) ~x1:(x + l_lambda) ~y1:(wf + ext_gate));
    ignore dummy
  in
  let x = ref 0 in
  let gate_x0 = ref None and gate_x1 = ref 0 in
  let gate_x_of = Array.make n 0 in
  List.iteri
    (fun j strip ->
      (match strip with
       | Shared (net, len) ->
         emit_contact_column ~x:!x ~len ~net;
         add_area net len ~ends:(if j = 0 || j = n then 1 else 0);
         x := !x + len
       | Split (a, b, la, gap, lb) ->
         emit_contact_column ~x:!x ~len:la ~net:a;
         add_area a la ~ends:1;
         emit_contact_column ~x:(!x + la + gap) ~len:lb ~net:b;
         add_area b lb ~ends:1;
         x := !x + la + gap + lb);
      if j < n then begin
        (if !gate_x0 = None then gate_x0 := Some !x);
        gate_x_of.(j) <- !x;
        emit_gate ~x:!x ~dummy:(placement.(j) = Dummy);
        gate_x1 := !x + l_lambda;
        x := !x + l_lambda
      end)
    strips;
  (* poly pick-up helper: a pad lifted clear of the strip metal straps
     (which overhang the active by one lambda), with contact (a column of
     one, like every cut: see [Motif.generate]) and metal1 port.
     [y_attach] is where the pad meets existing poly; [dir] is the side
     the pad grows towards. *)
  let pc = rules.R.poly_contact_enclosure in
  let lift = rules.R.metal1_space in
  let poly_pickup ~x ~y_attach ~dir net =
    let pad_w = cs + (2 * pc) in
    let pad_y0, pad_y1, contact_y0 =
      match dir with
      | `Up -> (y_attach, y_attach + lift + pad_w, y_attach + lift + pc)
      | `Down -> (y_attach - lift - pad_w, y_attach, y_attach - lift - pc - cs)
    in
    cell :=
      Cell.add_rect !cell (G.rect L.Poly ~x0:x ~y0:pad_y0 ~x1:(x + pad_w) ~y1:pad_y1);
    cell :=
      Cell.add_column !cell ~count:1 ~pitch:0
        (G.rect L.Contact ~x0:(x + pc) ~y0:contact_y0 ~x1:(x + pc + cs)
           ~y1:(contact_y0 + cs));
    let me = rules.R.metal1_contact_enclosure in
    let m1 =
      G.rect L.Metal1 ~x0:(x + pc - me) ~y0:(contact_y0 - me)
        ~x1:(x + pc + cs + me) ~y1:(contact_y0 + cs + me)
    in
    cell := Cell.add_port (Cell.add_rect !cell m1) ~net m1
  in
  (* gate connection: one common strap, or two rails for differential
     structures; dummy gates are left as bare fingers and tied off in the
     netlist *)
  (match (!gate_x0, spec.gate) with
   | None, _ -> ()
   | Some x0, Common net ->
     let y0 = wf + ext_gate in
     let strap_top = y0 + rules.R.poly_width in
     if n > 1 then
       cell :=
         Cell.add_rect !cell
           (G.rect L.Poly ~x0 ~y0 ~x1:!gate_x1 ~y1:strap_top);
     let pad_w = cs + (2 * pc) in
     let y_attach = if n > 1 then strap_top else y0 in
     poly_pickup ~x:(x0 + (((!gate_x1 - x0) - pad_w) / 2)) ~y_attach ~dir:`Up net
   | Some x0, Rails rails ->
     let pspace = rules.R.poly_space in
     let pw = rules.R.poly_width in
     let rail_above_y0 = wf + ext_gate + pspace in
     let rail_below_y1 = -ext_gate - pspace in
     let rail_of_element name =
       match List.mapi (fun i (el, net) -> (el, net, i)) rails
             |> List.find_opt (fun (el, _, _) -> el = name)
       with
       | Some (_, net, 0) -> Some (`Above, net)
       | Some (_, net, _) -> Some (`Below, net)
       | None -> None
     in
     (* vertical stubs from each unit gate to its rail *)
     Array.iteri
       (fun i slot ->
         match slot with
         | Dummy -> ()
         | Unit name ->
           (match rail_of_element name with
            | None -> ()
            | Some (side, _) ->
              let gx = gate_x_of.(i) in
              let r =
                match side with
                | `Above ->
                  G.rect L.Poly ~x0:gx ~y0:(wf + ext_gate) ~x1:(gx + l_lambda)
                    ~y1:(rail_above_y0 + pw)
                | `Below ->
                  G.rect L.Poly ~x0:gx ~y0:(rail_below_y1 - pw)
                    ~x1:(gx + l_lambda) ~y1:(-ext_gate)
              in
              cell := Cell.add_rect !cell r))
       placement;
     List.iteri
       (fun i (_, net) ->
         let y0, y_attach, dir =
           if i = 0 then (rail_above_y0, rail_above_y0 + pw, `Up)
           else (rail_below_y1 - pw, rail_below_y1 - pw, `Down)
         in
         cell :=
           Cell.add_rect !cell
             (G.rect L.Poly ~x0 ~y0 ~x1:!gate_x1 ~y1:(y0 + pw));
         let pick_x = if i = 0 then x0 else !gate_x1 - (cs + (2 * pc)) in
         poly_pickup ~x:pick_x ~y_attach ~dir net)
       rails);
  Hashtbl.iter
    (fun net rects ->
      let rects = List.rev rects in
      let middle = List.nth rects (List.length rects / 2) in
      cell := Cell.add_port !cell ~net middle)
    straps_by_net;
  (* select and well *)
  let sel = rules.R.select_active_enclosure in
  let select_layer = match spec.mtype with E.Nmos -> L.Nplus | E.Pmos -> L.Pplus in
  cell :=
    Cell.add_rect !cell
      (G.rect select_layer ~x0:(-sel) ~y0:(-sel) ~x1:(!x + sel) ~y1:(wf + sel));
  (match spec.mtype with
   | E.Nmos -> ()
   | E.Pmos ->
     let we = rules.R.well_active_enclosure in
     cell :=
       Cell.add_rect !cell
         (G.rect L.Nwell ~x0:(-we) ~y0:(-we) ~x1:(!x + we)
            ~y1:(wf + ext_gate + we)));
  (* bulk port marker on the select ring edge *)
  let bport = G.rect L.Metal1 ~x0:(-sel) ~y0:(-sel) ~x1:(-sel + 1) ~y1:(-sel + 1) in
  cell := Cell.add_port !cell ~net:spec.bulk_net bport;
  let diffusion_of net =
    let a, p = try Hashtbl.find areas net with Not_found -> (0.0, 0.0) in
    { area = a; perim = p }
  in
  let drain_diffusion =
    List.map (fun e -> (e.el_name, diffusion_of e.drain_net)) spec.elements
  in
  {
    cell = Cell.normalize !cell;
    placement;
    drain_areas = List.map (fun (n, d) -> (n, d.area)) drain_diffusion;
    drain_diffusion;
    source_diffusion = diffusion_of spec.source_net;
    strap_widths;
    contacts_per_strip = geo_contacts;
  }

let pp_placement fmt placement =
  Array.iteri
    (fun i s ->
      if i > 0 then Format.pp_print_char fmt ' ';
      match s with
      | Dummy -> Format.pp_print_char fmt 'D'
      | Unit n -> Format.pp_print_string fmt n)
    placement

let generate proc spec = generate_with_placement proc spec (interleave spec)

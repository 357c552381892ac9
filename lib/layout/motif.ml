module L = Technology.Layer
module R = Technology.Rules
module P = Technology.Process
module E = Technology.Electrical
module F = Device.Folding
module G = Geometry

type spec = {
  dev : Device.Mos.t;
  d_net : string;
  g_net : string;
  s_net : string;
  b_net : string;
  i_drain : float;
}

type result = {
  cell : Cell.t;
  drawn_geom : F.geom;
  finger_w_lambda : int;
  contacts_per_strip : int;
  strap_width_lambda : int;
  em_violation : bool;
}

let required_strap_width proc layer ~current =
  let wire =
    match E.wire_of_layer proc.P.electrical layer with
    | Some w -> w
    | None -> invalid_arg "required_strap_width: not a routing layer"
  in
  let min_w =
    match layer with
    | L.Metal1 -> proc.P.rules.R.metal1_width
    | L.Metal2 -> proc.P.rules.R.metal2_width
    | L.Poly -> proc.P.rules.R.poly_width
    | L.Nwell | L.Active | L.Pplus | L.Nplus | L.Contact | L.Via1 ->
      proc.P.rules.R.metal1_width
  in
  let needed_m = Float.abs current /. wire.E.jmax in
  max min_w (P.to_lambda proc needed_m)

let required_contacts proc ~current =
  max 1 (int_of_float (Float.ceil (Float.abs current /. proc.P.electrical.E.contact_imax)))

(* Strip kinds along the stack: external strips at both ends, internal
   between gates. *)
type strip = { net : [ `Drain | `Source ]; len : int; x : int }

let strips_of rules ~nf ~drain_internal ~l_lambda =
  let ext = R.sd_contacted rules in
  let inter = R.sd_shared_contacted rules in
  (* net of strip i (0 .. nf): alternation starting with the external net *)
  let first_is_drain =
    if nf mod 2 = 0 then not drain_internal
    else true (* odd: one end drain, the other source *)
  in
  let rec build i x acc =
    if i > nf then List.rev acc
    else begin
      let len = if i = 0 || i = nf then ext else inter in
      let is_drain = if i mod 2 = 0 then first_is_drain else not first_is_drain in
      let strip = { net = (if is_drain then `Drain else `Source); len; x } in
      (* advance past this strip and the following gate (if any) *)
      let x' = x + len + (if i < nf then l_lambda else 0) in
      build (i + 1) x' (strip :: acc)
    end
  in
  build 0 0 []

let generate proc spec =
  let dev = Device.Mos.snap_to_grid proc spec.dev in
  let rules = proc.P.rules in
  let style = dev.Device.Mos.style in
  let nf = style.F.nf in
  let wf = P.to_lambda proc (dev.Device.Mos.w /. float_of_int nf) in
  let l_lambda = P.to_lambda proc dev.Device.Mos.l in
  let strips = strips_of rules ~nf ~drain_internal:style.F.drain_internal ~l_lambda in
  let cell = Cell.empty dev.Device.Mos.name in
  (* active strip spine *)
  let total_w =
    match List.rev strips with
    | last :: _ -> last.x + last.len
    | [] -> assert false
  in
  let cell = Cell.add_rect cell (G.rect L.Active ~x0:0 ~y0:0 ~x1:total_w ~y1:wf) in
  (* select layer around the active *)
  let sel = rules.R.select_active_enclosure in
  let select_layer =
    match dev.Device.Mos.mtype with E.Nmos -> L.Nplus | E.Pmos -> L.Pplus
  in
  let cell =
    Cell.add_rect cell
      (G.rect select_layer ~x0:(-sel) ~y0:(-sel) ~x1:(total_w + sel) ~y1:(wf + sel))
  in
  (* poly fingers plus a connecting strap along the top *)
  let ext_gate = rules.R.poly_gate_extension in
  let gate_xs =
    List.filteri (fun i _ -> i < nf) strips
    |> List.map (fun s -> s.x + s.len)
  in
  let cell =
    List.fold_left
      (fun c x ->
        Cell.add_rect c
          (G.rect L.Poly ~x0:x ~y0:(-ext_gate) ~x1:(x + l_lambda) ~y1:(wf + ext_gate)))
      cell gate_xs
  in
  let strap_y0 = wf + ext_gate in
  let strap_y1 = strap_y0 + rules.R.poly_width in
  let cell =
    match gate_xs with
    | [] -> cell
    | x_first :: _ ->
      let x_last = List.nth gate_xs (List.length gate_xs - 1) + l_lambda in
      if nf > 1 then
        Cell.add_rect cell (G.rect L.Poly ~x0:x_first ~y0:strap_y0 ~x1:x_last ~y1:strap_y1)
      else cell
  in
  (* gate pick-up above the gates: a poly pad lifted clear of the strip
     metal straps (the straps overhang the active by one lambda), with a
     contact and a metal1 port on top.  Every contact cut is drawn as a
     column, this lone one as a column of one, so that [Cell.flatten]
     lists all cuts in drawing order. *)
  let pc = rules.R.poly_contact_enclosure in
  let cs = rules.R.contact_size in
  let pad_w = cs + (2 * pc) in
  let pad_x0 = (match gate_xs with x :: _ -> x + ((l_lambda - pad_w) / 2) | [] -> 0) in
  let lift = rules.R.metal1_space in
  let pad_base = if nf > 1 then strap_y1 else strap_y0 in
  let pad_top = pad_base + lift + pad_w in
  let contact_y0 = pad_base + lift + pc in
  let cell =
    cell
    |> (fun c ->
      Cell.add_rect c
        (G.rect L.Poly ~x0:pad_x0 ~y0:pad_base ~x1:(pad_x0 + pad_w) ~y1:pad_top))
    |> (fun c ->
      Cell.add_column c ~count:1 ~pitch:0
        (G.rect L.Contact ~x0:(pad_x0 + pc) ~y0:contact_y0 ~x1:(pad_x0 + pc + cs)
           ~y1:(contact_y0 + cs)))
    |> fun c ->
    let me = rules.R.metal1_contact_enclosure in
    let m1 =
      G.rect L.Metal1 ~x0:(pad_x0 + pc - me) ~y0:(contact_y0 - me)
        ~x1:(pad_x0 + pc + cs + me) ~y1:(contact_y0 + cs + me)
    in
    Cell.add_port (Cell.add_rect c m1) ~net:spec.g_net m1
  in
  (* contact columns and metal straps over every diffusion strip *)
  let encl = rules.R.active_contact_enclosure in
  let cspace = rules.R.contact_space in
  let geo_max_contacts = max 1 ((wf - (2 * encl) + cspace) / (cs + cspace)) in
  let strips_per_net target =
    List.length (List.filter (fun s -> s.net = target) strips)
  in
  let i_per_strip target =
    spec.i_drain /. float_of_int (max 1 (strips_per_net target))
  in
  let needed_contacts target = required_contacts proc ~current:(i_per_strip target) in
  let em_violation =
    needed_contacts `Drain > geo_max_contacts
    || needed_contacts `Source > geo_max_contacts
  in
  let strap_w =
    max (cs + 2)
      (required_strap_width proc L.Metal1 ~current:(i_per_strip `Drain))
  in
  let n_contacts target = min geo_max_contacts (needed_contacts target) in
  let n_drawn target =
    (* reliability practice: fill the strip with contacts, at least the
       EM-required number *)
    max (n_contacts target) geo_max_contacts
  in
  (* contact columns and straps are drawn per strip, but each net exposes a
     single port (on its middle strip): the strips of one net are merged by
     the module's internal strap, so the router drops one branch per module
     and net rather than one per strip *)
  let straps_by_net = Hashtbl.create 4 in
  let cell =
    List.fold_left
      (fun c s ->
        let net_name = match s.net with `Drain -> spec.d_net | `Source -> spec.s_net in
        let n = n_drawn s.net in
        (* centre the contact column inside the strip *)
        let col_x0 = s.x + ((s.len - cs) / 2) in
        let total_h = (n * cs) + ((n - 1) * cspace) in
        let start_y = (wf - total_h) / 2 in
        let c =
          Cell.add_column c ~count:n ~pitch:(cs + cspace)
            (G.rect L.Contact ~x0:col_x0 ~y0:start_y ~x1:(col_x0 + cs)
               ~y1:(start_y + cs))
        in
        (* metal1 strap over the column, EM-sized, overhanging the active
           vertically so routing can reach it *)
        let mw = max strap_w (cs + (2 * rules.R.metal1_contact_enclosure)) in
        let mx0 = col_x0 + (cs / 2) - (mw / 2) in
        let m1 = G.rect L.Metal1 ~x0:mx0 ~y0:(-1) ~x1:(mx0 + mw) ~y1:(wf + 1) in
        let existing =
          try Hashtbl.find straps_by_net net_name with Not_found -> []
        in
        Hashtbl.replace straps_by_net net_name (m1 :: existing);
        Cell.add_rect c m1)
      cell strips
  in
  let cell =
    Hashtbl.fold
      (fun net rects c ->
        let rects = List.rev rects in
        let middle = List.nth rects (List.length rects / 2) in
        Cell.add_port c ~net middle)
      straps_by_net cell
  in
  (* bulk tap column to the left of the stack *)
  let tap_w = cs + (2 * encl) in
  let tap_x1 = -rules.R.active_space in
  let tap_x0 = tap_x1 - tap_w in
  let tap_select =
    match dev.Device.Mos.mtype with E.Nmos -> L.Pplus | E.Pmos -> L.Nplus
  in
  let cell =
    cell
    |> (fun c -> Cell.add_rect c (G.rect L.Active ~x0:tap_x0 ~y0:0 ~x1:tap_x1 ~y1:wf))
    |> (fun c ->
      Cell.add_rect c
        (G.rect tap_select ~x0:(tap_x0 - sel) ~y0:(-sel) ~x1:(tap_x1 + sel) ~y1:(wf + sel)))
    |> fun c ->
    let n = geo_max_contacts in
    let total_h = (n * cs) + ((n - 1) * cspace) in
    let start_y = (wf - total_h) / 2 in
    let c =
      Cell.add_column c ~count:n ~pitch:(cs + cspace)
        (G.rect L.Contact ~x0:(tap_x0 + encl) ~y0:start_y
           ~x1:(tap_x0 + encl + cs) ~y1:(start_y + cs))
    in
    let m1 = G.rect L.Metal1 ~x0:tap_x0 ~y0:(-1) ~x1:tap_x1 ~y1:(wf + 1) in
    Cell.add_port (Cell.add_rect c m1) ~net:spec.b_net m1
  in
  (* n-well for PMOS devices encloses stack and tap *)
  let cell =
    match dev.Device.Mos.mtype with
    | E.Nmos -> cell
    | E.Pmos ->
      let we = rules.R.well_active_enclosure in
      Cell.add_rect cell
        (G.rect L.Nwell ~x0:(tap_x0 - we) ~y0:(-we) ~x1:(total_w + we)
           ~y1:(wf + ext_gate + we))
  in
  let drawn_geom = F.geometry proc ~w:dev.Device.Mos.w style in
  {
    cell = Cell.normalize cell;
    drawn_geom;
    finger_w_lambda = wf;
    contacts_per_strip = n_drawn `Drain;
    strap_width_lambda = strap_w;
    em_violation;
  }

let drawn_active_area r ~net =
  match net with
  | `Drain -> r.drawn_geom.F.ad
  | `Source -> r.drawn_geom.F.as_

module G = Geometry

type port = {
  net : string;
  shape : G.rect;
}

type column = {
  cut : G.rect;  (* the lowest copy *)
  count : int;
  pitch : int;
}

type t = {
  name : string;
  rects : G.rect list;
  columns : column list;
  ports : port list;
}

let empty name = { name; rects = []; columns = []; ports = [] }
let add_rect t r = { t with rects = r :: t.rects }
let add_rects t rs = { t with rects = List.rev_append rs t.rects }

let add_column t ~count ~pitch cut =
  if count < 1 || pitch < 0 then invalid_arg "Cell.add_column";
  { t with columns = { cut; count; pitch } :: t.columns }

let add_port t ~net shape = { t with ports = { net; shape } :: t.ports }

let translate ~dx ~dy t =
  {
    t with
    rects = List.map (G.translate ~dx ~dy) t.rects;
    columns =
      List.map (fun c -> { c with cut = G.translate ~dx ~dy c.cut }) t.columns;
    ports =
      List.map
        (fun p -> { p with shape = G.translate ~dx ~dy p.shape })
        t.ports;
  }

let merge name cells =
  {
    name;
    rects = List.concat_map (fun c -> c.rects) cells;
    columns = List.concat_map (fun c -> c.columns) cells;
    ports = List.concat_map (fun c -> c.ports) cells;
  }

(* Copies from the top down: the order [count] successive [add_rect]
   calls, bottom copy first, would have listed them. *)
let expand c =
  let rec go k acc =
    if k = c.count then acc
    else go (k + 1) (G.translate ~dx:0 ~dy:(k * c.pitch) c.cut :: acc)
  in
  go 0 []

let flatten t = t.rects @ List.concat_map expand t.columns

let ports t = t.ports

let extent c = { c.cut with y1 = c.cut.y1 + ((c.count - 1) * c.pitch) }

let bbox t =
  let union acc r =
    match acc with None -> Some r | Some b -> Some (G.union_bbox b r)
  in
  let rects = List.fold_left union None t.rects in
  match List.fold_left (fun acc c -> union acc (extent c)) rects t.columns with
  | Some b -> (b.G.x0, b.G.y0, b.G.x1, b.G.y1)
  | None -> (0, 0, 0, 0)

let size t =
  let x0, y0, x1, y1 = bbox t in
  (x1 - x0, y1 - y0)

let normalize t =
  let x0, y0, _, _ = bbox t in
  translate ~dx:(-x0) ~dy:(-y0) t

let ports_of_net t net = List.filter (fun p -> p.net = net) t.ports

let port_center p =
  let r = p.shape in
  ((r.G.x0 + r.G.x1) / 2, (r.G.y0 + r.G.y1) / 2)

let area t =
  let w, h = size t in
  w * h

let rect_count t =
  List.fold_left (fun acc c -> acc + c.count) (List.length t.rects) t.columns

(* Sum of [measure] over the layer's rectangles, column copies included. *)
let layer_sum measure t layer =
  let on_layer r = r.G.layer = layer in
  let acc =
    List.fold_left
      (fun acc r -> if on_layer r then acc + measure r else acc)
      0 t.rects
  in
  List.fold_left
    (fun acc c -> if on_layer c.cut then acc + (c.count * measure c.cut) else acc)
    acc t.columns

let layer_area = layer_sum G.area
let layer_perimeter = layer_sum (fun r -> 2 * (G.width r + G.height r))

module L = Technology.Layer
module G = Geometry

let ascii ?(max_cols = 100) cell =
  let x0, y0, x1, y1 = Cell.bbox cell in
  let w = max 1 (x1 - x0) and h = max 1 (y1 - y0) in
  let scale = max 1 ((w + max_cols - 1) / max_cols) in
  (* characters are roughly twice as tall as wide *)
  let sy = 2 * scale in
  let cols = (w + scale - 1) / scale in
  let rows = (h + sy - 1) / sy in
  let grid = Array.make_matrix rows cols ' ' in
  let sorted =
    List.sort (fun a b -> L.compare a.G.layer b.G.layer) (Cell.flatten cell)
  in
  List.iter
    (fun r ->
      let cx0 = (r.G.x0 - x0) / scale and cx1 = (r.G.x1 - x0 + scale - 1) / scale in
      let cy0 = (r.G.y0 - y0) / sy and cy1 = (r.G.y1 - y0 + sy - 1) / sy in
      for cy = max 0 cy0 to min (rows - 1) (cy1 - 1) do
        for cx = max 0 cx0 to min (cols - 1) (cx1 - 1) do
          (* rows are flipped: row 0 is the top of the layout *)
          grid.(rows - 1 - cy).(cx) <- L.ascii_char r.G.layer
        done
      done)
    sorted;
  let buf = Buffer.create (rows * (cols + 1)) in
  Array.iter
    (fun row ->
      Array.iter (Buffer.add_char buf) row;
      Buffer.add_char buf '\n')
    grid;
  Buffer.contents buf

let layer_color = function
  | L.Nwell -> "#dddd99"
  | L.Active -> "#33aa33"
  | L.Pplus -> "#ddaaaa"
  | L.Nplus -> "#aaaadd"
  | L.Poly -> "#cc3333"
  | L.Contact -> "#111111"
  | L.Metal1 -> "#3366cc"
  | L.Via1 -> "#663399"
  | L.Metal2 -> "#cc9933"

let svg cell =
  let x0, y0, x1, y1 = Cell.bbox cell in
  let buf = Buffer.create 4096 in
  let margin = 2 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" viewBox=\"%d %d %d %d\">\n"
       (x0 - margin) (y0 - margin)
       (x1 - x0 + (2 * margin))
       (y1 - y0 + (2 * margin)));
  let sorted =
    List.sort (fun a b -> L.compare a.G.layer b.G.layer) (Cell.flatten cell)
  in
  List.iter
    (fun r ->
      (* flip y so the SVG shows the layout with +y up *)
      let fy = y1 - r.G.y1 + y0 in
      Buffer.add_string buf
        (Printf.sprintf
           "  <rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"%s\" \
            fill-opacity=\"0.55\"><title>%s</title></rect>\n"
           r.G.x0 fy (G.width r) (G.height r)
           (layer_color r.G.layer)
           (L.to_string r.G.layer)))
    sorted;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let legend =
  String.concat "  "
    (List.map
       (fun l -> Printf.sprintf "%c=%s" (L.ascii_char l) (L.to_string l))
       L.all)

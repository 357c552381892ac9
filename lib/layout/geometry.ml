type rect = {
  layer : Technology.Layer.t;
  x0 : int;
  y0 : int;
  x1 : int;
  y1 : int;
}

let rect layer ~x0 ~y0 ~x1 ~y1 =
  { layer;
    x0 = min x0 x1; y0 = min y0 y1;
    x1 = max x0 x1; y1 = max y0 y1 }

let width r = r.x1 - r.x0
let height r = r.y1 - r.y0
let area r = width r * height r

let translate ~dx ~dy r =
  { r with x0 = r.x0 + dx; y0 = r.y0 + dy; x1 = r.x1 + dx; y1 = r.y1 + dy }

let intersects a b =
  a.x0 < b.x1 && b.x0 < a.x1 && a.y0 < b.y1 && b.y0 < a.y1

let axis_gap a0 a1 b0 b1 =
  if a1 <= b0 then b0 - a1 else if b1 <= a0 then a0 - b1 else 0

let spacing a b =
  let gx = axis_gap a.x0 a.x1 b.x0 b.x1 in
  let gy = axis_gap a.y0 a.y1 b.y0 b.y1 in
  max gx gy

let union_bbox a b =
  { a with
    x0 = min a.x0 b.x0; y0 = min a.y0 b.y0;
    x1 = max a.x1 b.x1; y1 = max a.y1 b.y1 }

let mirror_x ~axis r =
  { r with x0 = (2 * axis) - r.x1; x1 = (2 * axis) - r.x0 }

let pp fmt r =
  Format.fprintf fmt "%a(%d,%d)-(%d,%d)" Technology.Layer.pp r.layer r.x0 r.y0
    r.x1 r.y1

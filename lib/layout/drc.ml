module L = Technology.Layer
module R = Technology.Rules
module G = Geometry

type violation = {
  rule : string;
  layer : L.t;
  a : G.rect;
  b : G.rect option;
}

let min_width rules = function
  | L.Poly -> Some rules.R.poly_width
  | L.Active -> Some rules.R.active_width
  | L.Metal1 -> Some rules.R.metal1_width
  | L.Metal2 -> Some rules.R.metal2_width
  | L.Contact -> Some rules.R.contact_size
  | L.Via1 -> Some rules.R.via1_size
  | L.Nwell | L.Pplus | L.Nplus -> None

let min_spacing rules = function
  | L.Poly -> Some rules.R.poly_space
  | L.Active -> Some rules.R.active_space
  | L.Metal1 -> Some rules.R.metal1_space
  | L.Metal2 -> Some rules.R.metal2_space
  | L.Contact -> Some rules.R.contact_space
  | L.Via1 -> Some rules.R.via1_space
  | L.Nwell -> Some rules.R.well_space
  | L.Pplus | L.Nplus -> None

(* Connected-component grouping per layer so that abutting rectangles of
   one net are not reported as spacing violations against each other. *)
let components rects =
  let n = Array.length rects in
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(ri) <- rj
  in
  let touches a b = G.spacing a b = 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if touches rects.(i) rects.(j) then union i j
    done
  done;
  Array.init n find

let check proc cell =
  let rules = proc.Technology.Process.rules in
  let by_layer = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let existing = try Hashtbl.find by_layer r.G.layer with Not_found -> [] in
      Hashtbl.replace by_layer r.G.layer (r :: existing))
    (Cell.flatten cell);
  let violations = ref [] in
  Hashtbl.iter
    (fun layer rects ->
      let rects = Array.of_list rects in
      (* width *)
      (match min_width rules layer with
       | None -> ()
       | Some w ->
         Array.iter
           (fun r ->
             let short_side = min (G.width r) (G.height r) in
             if short_side > 0 && short_side < w then
               violations :=
                 { rule = Printf.sprintf "min width %d" w; layer; a = r; b = None }
                 :: !violations)
           rects);
      (* spacing between distinct connected components *)
      (match min_spacing rules layer with
       | None -> ()
       | Some s ->
         let comp = components rects in
         let n = Array.length rects in
         for i = 0 to n - 1 do
           for j = i + 1 to n - 1 do
             if comp.(i) <> comp.(j) then begin
               let gap = G.spacing rects.(i) rects.(j) in
               if gap > 0 && gap < s then
                 violations :=
                   {
                     rule = Printf.sprintf "min spacing %d (gap %d)" s gap;
                     layer;
                     a = rects.(i);
                     b = Some rects.(j);
                   }
                   :: !violations
             end
           done
         done))
    by_layer;
  !violations

let pp_violation fmt v =
  Format.fprintf fmt "%s on %a: %a" v.rule L.pp v.layer G.pp v.a;
  match v.b with
  | Some b -> Format.fprintf fmt " vs %a" G.pp b
  | None -> ()

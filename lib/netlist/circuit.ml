type t = {
  title : string;
  rev_elements : Element.t list;  (* reversed insertion order *)
}

let create ~title = { title; rev_elements = [] }
let title t = t.title
let elements t = List.rev t.rev_elements
let add t e = { t with rev_elements = e :: t.rev_elements }

let add_mos t ~dev ~d ~g ~s ~b = add t (Element.Mos { dev; d; g; s; b })
let add_resistor t ~name ~p ~n ~r = add t (Element.Resistor { name; p; n; r })
let add_capacitor t ~name ~p ~n ~c = add t (Element.Capacitor { name; p; n; c })
let add_isource t ~name ~p ~n i = add t (Element.Isource { name; p; n; i })
let add_vsource t ~name ~p ~n v = add t (Element.Vsource { name; p; n; v })

let nodes t =
  let module S = Set.Make (String) in
  let all =
    List.fold_left
      (fun acc e -> List.fold_left (fun acc n -> S.add n acc) acc (Element.nodes_of e))
      S.empty t.rev_elements
  in
  S.elements (S.remove Element.ground all)

let mos_devices t =
  List.filter_map
    (function
      | Element.Mos { dev; d; g; s; b } -> Some (dev, d, g, s, b)
      | Element.Resistor _ | Element.Capacitor _
      | Element.Isource _ | Element.Vsource _ -> None)
    (elements t)

let find_mos t name =
  match
    List.find_opt (fun (dev, _, _, _, _) -> dev.Device.Mos.name = name) (mos_devices t)
  with
  | Some (dev, _, _, _, _) -> dev
  | None -> raise Not_found

let map_mos f t =
  let rewrite = function
    | Element.Mos m -> Element.Mos { m with dev = f m.dev }
    | (Element.Resistor _ | Element.Capacitor _
      | Element.Isource _ | Element.Vsource _) as e -> e
  in
  { t with rev_elements = List.map rewrite t.rev_elements }

let update_mos name f t =
  map_mos (fun dev -> if dev.Device.Mos.name = name then f dev else dev) t

let update_vsource name f t =
  let rewrite = function
    | Element.Vsource v when v.name = name -> Element.Vsource { v with v = f v.v }
    | (Element.Vsource _ | Element.Mos _ | Element.Resistor _
      | Element.Capacitor _ | Element.Isource _) as e -> e
  in
  { t with rev_elements = List.map rewrite t.rev_elements }

let add_node_cap t ~name ~node ~c =
  if c <= 0.0 then t
  else add_capacitor t ~name ~p:node ~n:Element.ground ~c

let total_cap_to_ground t node =
  List.fold_left
    (fun acc e ->
      match e with
      | Element.Capacitor { p; n; c; _ }
        when (p = node && n = Element.ground) || (n = node && p = Element.ground) ->
        acc +. c
      | Element.Capacitor _ | Element.Mos _ | Element.Resistor _
      | Element.Isource _ | Element.Vsource _ -> acc)
    0.0 (elements t)

let element_count t = List.length t.rev_elements

let pp_spice fmt t =
  Format.fprintf fmt "* %s@." t.title;
  List.iter (fun e -> Format.fprintf fmt "%a@." Element.pp_spice e) (elements t);
  Format.fprintf fmt ".end@."

let to_spice t = Format.asprintf "%a" pp_spice t

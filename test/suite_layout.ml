open Helpers
module G = Cairo_layout.Geometry
module Cl = Cairo_layout.Cell
module Motif = Cairo_layout.Motif
module Shape = Cairo_layout.Shape
module Slicing = Cairo_layout.Slicing
module Stack = Cairo_layout.Stack
module Pair = Cairo_layout.Pair
module Drc = Cairo_layout.Drc
module Route = Cairo_layout.Route
module Plan = Cairo_layout.Plan
module Render = Cairo_layout.Render
module P = Technology.Process
module E = Technology.Electrical
module L = Technology.Layer
module F = Device.Folding

(* --- geometry --------------------------------------------------------- *)

let test_rect_basics () =
  let r = G.rect L.Poly ~x0:5 ~y0:1 ~x1:2 ~y1:4 in
  Alcotest.(check int) "normalised width" 3 (G.width r);
  Alcotest.(check int) "area" 9 (G.area r);
  let t = G.translate ~dx:10 ~dy:0 r in
  Alcotest.(check int) "translated x0" 12 t.G.x0

let test_spacing () =
  let a = G.rect L.Metal1 ~x0:0 ~y0:0 ~x1:4 ~y1:4 in
  let b = G.rect L.Metal1 ~x0:6 ~y0:0 ~x1:10 ~y1:4 in
  Alcotest.(check int) "gap 2" 2 (G.spacing a b);
  let c = G.rect L.Metal1 ~x0:4 ~y0:0 ~x1:8 ~y1:4 in
  Alcotest.(check int) "touching = 0" 0 (G.spacing a c);
  Alcotest.(check bool) "touching not intersecting" false (G.intersects a c);
  let d = G.rect L.Metal1 ~x0:3 ~y0:3 ~x1:5 ~y1:5 in
  Alcotest.(check bool) "overlap intersects" true (G.intersects a d)

let test_mirror () =
  let r = G.rect L.Poly ~x0:2 ~y0:0 ~x1:5 ~y1:1 in
  let m = G.mirror_x ~axis:5 r in
  Alcotest.(check int) "mirrored x0" 5 m.G.x0;
  Alcotest.(check int) "mirrored x1" 8 m.G.x1

let test_cell_ops () =
  let c =
    Cl.empty "t"
    |> fun c -> Cl.add_rect c (G.rect L.Active ~x0:2 ~y0:3 ~x1:10 ~y1:8)
    |> fun c -> Cl.add_port c ~net:"a" (G.rect L.Metal1 ~x0:4 ~y0:3 ~x1:6 ~y1:8)
  in
  let n = Cl.normalize c in
  let x0, y0, _, _ = Cl.bbox n in
  Alcotest.(check (pair int int)) "origin after normalize" (0, 0) (x0, y0);
  Alcotest.(check int) "ports preserved" 1 (List.length (Cl.ports_of_net n "a"));
  let w, h = Cl.size n in
  Alcotest.(check (pair int int)) "size" (8, 5) (w, h)

(* --- motif ------------------------------------------------------------ *)

let motif_spec ?(mtype = E.Nmos) ?(nf = 2) ?(w = 20e-6) ?(i = 100e-6) () =
  let dev =
    Device.Mos.make ~name:"m" ~mtype ~w ~l:1e-6
      ~style:{ F.nf; drain_internal = true } ()
  in
  { Motif.dev; d_net = "d"; g_net = "g"; s_net = "s"; b_net = "b"; i_drain = i }

let test_motif_ports () =
  let r = Motif.generate P.c06 (motif_spec ()) in
  List.iter
    (fun net ->
      Alcotest.(check bool) (net ^ " port present") true
        (Cl.ports_of_net r.Motif.cell net <> []))
    [ "d"; "g"; "s"; "b" ];
  (* strips are merged by the module strap: one exposed port per net *)
  Alcotest.(check int) "one drain port" 1
    (List.length (Cl.ports_of_net r.Motif.cell "d"));
  Alcotest.(check int) "one source port" 1
    (List.length (Cl.ports_of_net r.Motif.cell "s"))

let test_motif_pmos_has_well () =
  let r = Motif.generate P.c06 (motif_spec ~mtype:E.Pmos ()) in
  Alcotest.(check bool) "nwell drawn" true
    (Cl.layer_area r.Motif.cell L.Nwell > 0);
  let rn = Motif.generate P.c06 (motif_spec ~mtype:E.Nmos ()) in
  Alcotest.(check int) "no well on nmos" 0 (Cl.layer_area rn.Motif.cell L.Nwell)

let test_motif_em () =
  let low = Motif.generate P.c06 (motif_spec ~i:50e-6 ()) in
  let high = Motif.generate P.c06 (motif_spec ~i:5e-3 ()) in
  Alcotest.(check bool) "high current widens straps" true
    (high.Motif.strap_width_lambda > low.Motif.strap_width_lambda);
  Alcotest.(check bool) "low current EM clean" false low.Motif.em_violation

let test_required_widths () =
  (* 1 mA on metal1 at jmax 1000 A/m -> 1 um -> 4 lambda (ceil of 3.33) *)
  Alcotest.(check int) "EM width at 1 mA" 4
    (Motif.required_strap_width P.c06 L.Metal1 ~current:1e-3);
  Alcotest.(check int) "minimum at tiny current" 3
    (Motif.required_strap_width P.c06 L.Metal1 ~current:1e-6);
  Alcotest.(check int) "contacts at 2 mA" 4
    (Motif.required_contacts P.c06 ~current:2e-3)

let prop_motif_area_matches_folding =
  QCheck.Test.make ~name:"motif drawn diffusion equals folding model"
    ~count:60
    QCheck.(pair (int_range 1 10) (float_range 5.0 60.0))
    (fun (nf, w_um) ->
      let w = w_um *. 1e-6 in
      let spec = motif_spec ~nf ~w () in
      let r = Motif.generate P.c06 spec in
      (* the motif snaps to grid first; recompute the reference on the
         snapped device *)
      let snapped = Device.Mos.snap_to_grid P.c06 spec.Motif.dev in
      let expect = F.geometry P.c06 ~w:snapped.Device.Mos.w snapped.Device.Mos.style in
      Phys.Numerics.close ~rel:1e-9 expect.F.ad r.Motif.drawn_geom.F.ad
      && Phys.Numerics.close ~rel:1e-9 expect.F.as_ r.Motif.drawn_geom.F.as_)

let test_motif_drc_clean () =
  List.iter
    (fun nf ->
      let r = Motif.generate P.c06 (motif_spec ~nf ()) in
      let violations = Drc.check P.c06 r.Motif.cell in
      if violations <> [] then
        Alcotest.failf "nf=%d: %d DRC violations, first: %s" nf
          (List.length violations)
          (Format.asprintf "%a" Drc.pp_violation (List.hd violations)))
    [ 1; 2; 4 ]

(* --- shape functions and slicing -------------------------------------- *)

let test_shape_pareto () =
  let s = Shape.of_variants [ (10, 10); (5, 20); (20, 5); (12, 12) ] in
  Alcotest.(check bool) "pareto" true (Shape.is_pareto s);
  (* (12,12) dominated by (10,10) *)
  Alcotest.(check int) "three points survive" 3 (List.length (Shape.points s))

let test_shape_combine () =
  let a = Shape.of_variants [ (2, 8); (8, 2) ] in
  let b = Shape.of_variants [ (3, 3) ] in
  let h = Shape.combine_h a b in
  (* candidates: (5, 8) and (11, 3) *)
  Alcotest.(check int) "two h points" 2 (List.length (Shape.points h));
  let v = Shape.combine_v a b in
  (* candidates: (3, 11) and (8, 5) *)
  Alcotest.(check int) "two v points" 2 (List.length (Shape.points v));
  match Shape.best ~max_h:6 v with
  | None -> Alcotest.fail "expected a fit"
  | Some i -> Alcotest.(check int) "picks (8,5)" 5 ((Shape.points v |> Array.of_list).(i)).Shape.h

(* Oracle for the linear Stockmeyer merge: the original O(n*m) all-pairs
   cross product followed by Pareto pruning, reimplemented here verbatim.
   The merge must reproduce it structurally — points and recorded choice
   pairs alike. *)
let oracle_pareto pts =
  let sorted =
    List.sort
      (fun a b ->
        if a.Shape.w = b.Shape.w then compare a.Shape.h b.Shape.h
        else compare a.Shape.w b.Shape.w)
      pts
  in
  let rec keep acc best_h = function
    | [] -> List.rev acc
    | p :: rest ->
      if p.Shape.h < best_h then keep (p :: acc) p.Shape.h rest
      else keep acc best_h rest
  in
  Array.of_list (keep [] max_int sorted)

let oracle_cross f a b =
  let pts = ref [] in
  Array.iteri
    (fun i pa -> Array.iteri (fun j pb -> pts := f i pa j pb :: !pts) b)
    a;
  oracle_pareto !pts

let gen_variants =
  QCheck.(list_of_size Gen.(int_range 1 8) (pair (int_range 1 30) (int_range 1 30)))

let prop_shape_merge_matches_cross =
  QCheck.Test.make ~name:"shape merge equals all-pairs cross + pareto"
    ~count:300
    (QCheck.pair gen_variants gen_variants)
    (fun (va, vb) ->
      let a = Shape.of_variants va and b = Shape.of_variants vb in
      let h_ref =
        oracle_cross
          (fun i pa j pb ->
            { Shape.w = pa.Shape.w + pb.Shape.w;
              h = max pa.Shape.h pb.Shape.h;
              choice = Shape.Compose (i, j) })
          a b
      and v_ref =
        oracle_cross
          (fun i pa j pb ->
            { Shape.w = max pa.Shape.w pb.Shape.w;
              h = pa.Shape.h + pb.Shape.h;
              choice = Shape.Compose (i, j) })
          a b
      in
      Shape.combine_h a b = h_ref && Shape.combine_v a b = v_ref)

let gen_tree =
  (* random small slicing trees with random variants *)
  let open QCheck.Gen in
  let leaf_gen =
    list_size (int_range 1 3) (pair (int_range 1 30) (int_range 1 30))
    >|= fun vs -> Slicing.Leaf ((), vs)
  in
  let rec tree n =
    if n <= 1 then leaf_gen
    else
      frequency
        [
          (1, leaf_gen);
          (2, map2 (fun a b -> Slicing.H (a, b)) (tree (n / 2)) (tree (n / 2)));
          (2, map2 (fun a b -> Slicing.V (a, b)) (tree (n / 2)) (tree (n / 2)));
        ]
  in
  tree 4

let prop_stockmeyer_optimal =
  QCheck.Test.make ~name:"slicing optimiser matches brute force" ~count:150
    (QCheck.make gen_tree)
    (fun t ->
      match Slicing.optimize t with
      | None -> false
      | Some (_, (w, h)) -> w * h = Slicing.enumerate_area_brute_force t)

let prop_placements_inside_box =
  QCheck.Test.make ~name:"realised placements stay inside the bounding box"
    ~count:150 (QCheck.make gen_tree)
    (fun t ->
      match Slicing.optimize t with
      | None -> false
      | Some (ps, (w, h)) ->
        List.for_all
          (fun p ->
            p.Slicing.x >= 0 && p.Slicing.y >= 0
            && p.Slicing.x + p.Slicing.w <= w
            && p.Slicing.y + p.Slicing.h <= h)
          ps)

let test_slicing_aspect_constraint () =
  let t =
    Slicing.H
      (Slicing.Leaf ("a", [ (10, 40); (20, 20); (40, 10) ]),
       Slicing.Leaf ("b", [ (10, 40); (20, 20); (40, 10) ]))
  in
  (match Slicing.optimize ~max_h:25 t with
   | None -> Alcotest.fail "fit expected"
   | Some (ps, (_, h)) ->
     Alcotest.(check bool) "height respected" true (h <= 25);
     Alcotest.(check int) "two leaves" 2 (List.length ps));
  match Slicing.optimize ~max_h:5 t with
  | None -> ()
  | Some _ -> Alcotest.fail "impossible constraint accepted"

(* --- stacks and pairs -------------------------------------------------- *)

let mirror_spec ?(units = [ 1; 3; 6 ]) ?(current = 1e-3) ?(unit_w = 10e-6)
    () =
  {
    Stack.elements =
      List.mapi
        (fun i u ->
          { Stack.el_name = Printf.sprintf "M%d" (i + 1); units = u;
            drain_net = Printf.sprintf "d%d" (i + 1);
            current = current *. float_of_int u })
        units;
    mtype = E.Nmos;
    unit_w;
    l = 2e-6;
    source_net = "vss";
    gate = Stack.Common "bias";
    bulk_net = "vss";
    dummies = true;
  }

let test_interleave_conserves_units () =
  let spec = mirror_spec () in
  let p = Stack.interleave spec in
  Alcotest.(check int) "length with dummies" 12 (Array.length p);
  List.iteri
    (fun i u ->
      let name = Printf.sprintf "M%d" (i + 1) in
      let count =
        Array.to_list p
        |> List.filter (fun s -> s = Stack.Unit name)
        |> List.length
      in
      Alcotest.(check int) (name ^ " count") u count)
    [ 1; 3; 6 ]

let test_mirror_centroids () =
  let spec = mirror_spec () in
  let p = Stack.interleave spec in
  (* M3 (6 units, even) should be perfectly centred; odd-count elements at
     most half a pitch off *)
  check_close ~abs_tol:1e-9 "M3 centred" 0.0 (Stack.centroid_offset p "M3");
  Alcotest.(check bool) "M2 within 1 pitch" true
    (Stack.centroid_offset p "M2" <= 1.0);
  Alcotest.(check bool) "M1 within 1 pitch" true
    (Stack.centroid_offset p "M1" <= 1.0)

let test_mirror_orientation_balance () =
  let spec = mirror_spec () in
  let p = Stack.interleave spec in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " orientation imbalance <= 1")
        true
        (Stack.orientation_imbalance p name <= 1))
    [ "M1"; "M2"; "M3" ]

let test_mirror_generate () =
  let spec = mirror_spec () in
  let r = Stack.generate P.c06 spec in
  List.iter
    (fun (name, a) ->
      Alcotest.(check bool) (name ^ " drain area positive") true (a > 0.0))
    r.Stack.drain_areas;
  (* EM: M3 carries 6 mA; its strap must be wider than M1's (1 mA) *)
  let sw name = List.assoc name r.Stack.strap_widths in
  Alcotest.(check bool) "M3 strap wider than M1" true (sw "M3" >= sw "M1");
  Alcotest.(check bool) "gate port present" true
    (Cl.ports_of_net r.Stack.cell "bias" <> [])

let test_mirror_drc () =
  let r = Stack.generate P.c06 (mirror_spec ~current:0.2e-3 ()) in
  let violations = Drc.check P.c06 r.Stack.cell in
  if violations <> [] then
    Alcotest.failf "%d DRC violations, first: %s" (List.length violations)
      (Format.asprintf "%a" Drc.pp_violation (List.hd violations))

let pair_spec style nf =
  {
    Pair.a_name = "ma"; b_name = "mb"; mtype = E.Pmos;
    w = 40e-6; l = 1e-6; nf;
    tail_net = "tail"; a_drain = "outp"; b_drain = "outn";
    a_gate = "inp"; b_gate = "inn"; bulk_net = "vdd";
    current = 100e-6; style;
  }

let test_pair_interdigitated () =
  let r = Pair.generate P.c06 (pair_spec Pair.Interdigitated 4) in
  Alcotest.(check int) "one row" 1 (List.length r.Pair.rows);
  check_close ~rel:1e-9 "matched drain areas" r.Pair.drain_area_a
    r.Pair.drain_area_b;
  Alcotest.(check bool) "a centred within half pitch" true
    (r.Pair.metrics.Pair.centroid_offset_a <= 0.5)

let test_pair_common_centroid () =
  let r = Pair.generate P.c06 (pair_spec Pair.Common_centroid 4) in
  Alcotest.(check int) "two rows" 2 (List.length r.Pair.rows);
  check_close ~abs_tol:1e-9 "a centroid exact" 0.0
    r.Pair.metrics.Pair.centroid_offset_a;
  check_close ~abs_tol:1e-9 "b centroid exact" 0.0
    r.Pair.metrics.Pair.centroid_offset_b;
  check_close ~rel:1e-9 "matched drain areas" r.Pair.drain_area_a
    r.Pair.drain_area_b;
  Alcotest.(check bool) "pmos pair has well" true
    (Cl.layer_area r.Pair.cell L.Nwell > 0)

let test_pair_odd_cc_rejected () =
  Alcotest.check_raises "odd nf rejected"
    (Invalid_argument "Pair.generate: common centroid requires an even finger count")
    (fun () -> ignore (Pair.generate P.c06 (pair_spec Pair.Common_centroid 3)))

(* --- drc --------------------------------------------------------------- *)

let test_drc_detects_narrow_wire () =
  let c =
    Cl.add_rect (Cl.empty "bad") (G.rect L.Metal1 ~x0:0 ~y0:0 ~x1:1 ~y1:10)
  in
  Alcotest.(check bool) "narrow metal flagged" true (Drc.check P.c06 c <> [])

let test_drc_detects_close_wires () =
  let c =
    Cl.empty "bad2"
    |> fun c -> Cl.add_rect c (G.rect L.Metal1 ~x0:0 ~y0:0 ~x1:3 ~y1:10)
    |> fun c -> Cl.add_rect c (G.rect L.Metal1 ~x0:4 ~y0:0 ~x1:7 ~y1:10)
  in
  Alcotest.(check bool) "1-lambda gap flagged" true (Drc.check P.c06 c <> [])

let test_drc_allows_touching () =
  let c =
    Cl.empty "ok"
    |> fun c -> Cl.add_rect c (G.rect L.Metal1 ~x0:0 ~y0:0 ~x1:3 ~y1:10)
    |> fun c -> Cl.add_rect c (G.rect L.Metal1 ~x0:3 ~y0:0 ~x1:6 ~y1:10)
  in
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun v -> v.Drc.rule) (Drc.check P.c06 c))

(* --- routing ------------------------------------------------------------ *)

let two_port_cell () =
  Cl.empty "mods"
  |> fun c ->
  Cl.add_port c ~net:"n1" (G.rect L.Metal1 ~x0:0 ~y0:0 ~x1:4 ~y1:10)
  |> fun c ->
  Cl.add_port c ~net:"n1" (G.rect L.Metal1 ~x0:100 ~y0:0 ~x1:104 ~y1:10)
  |> fun c ->
  Cl.add_port c ~net:"n2" (G.rect L.Metal1 ~x0:20 ~y0:0 ~x1:24 ~y1:10)
  |> fun c ->
  Cl.add_port c ~net:"n2" (G.rect L.Metal1 ~x0:80 ~y0:0 ~x1:84 ~y1:10)
  |> fun c -> Cl.add_rect c (G.rect L.Active ~x0:0 ~y0:0 ~x1:104 ~y1:10)

let test_route_basics () =
  let placed = two_port_cell () in
  let nets = [ { Route.net = "n1"; current = 1e-4 };
               { Route.net = "n2"; current = 1e-4 } ] in
  let r = Route.route P.c06 ~placed ~nets in
  Alcotest.(check int) "two wires" 2 (List.length r.Route.wires);
  List.iter
    (fun w ->
      Alcotest.(check bool) (w.Route.net ^ " has cap") true
        (w.Route.cap_ground > 0.0))
    r.Route.wires;
  (* adjacent tracks with overlapping spans couple *)
  let n1 = List.find (fun w -> w.Route.net = "n1") r.Route.wires in
  Alcotest.(check bool) "coupling to n2 present" true
    (List.mem_assoc "n2" n1.Route.coupling)

let test_route_em_width () =
  let placed = two_port_cell () in
  let narrow =
    Route.route P.c06 ~placed ~nets:[ { Route.net = "n1"; current = 1e-5 } ]
  in
  let wide =
    Route.route P.c06 ~placed ~nets:[ { Route.net = "n1"; current = 10e-3 } ]
  in
  let width r =
    (List.find (fun w -> w.Route.net = "n1") r.Route.wires).Route.width
  in
  Alcotest.(check bool) "EM widens trunk" true (width wide > width narrow)

let test_cap_of_wire () =
  (* 100 lambda (30 um) of minimum-width metal1: ~ a few fF *)
  let c = Route.cap_of_wire P.c06 ~layer:L.Metal1 ~length:100 ~width:3 in
  check_in_range "wire cap plausible" 1e-15 2e-14 c

(* --- plan ---------------------------------------------------------------- *)

let simple_floorplan () =
  let single name nf_opts =
    Plan.Single
      {
        spec =
          {
            Motif.dev =
              Device.Mos.make ~name ~mtype:E.Nmos ~w:30e-6 ~l:1e-6 ();
            d_net = "d_" ^ name; g_net = "g"; s_net = "vss"; b_net = "vss";
            i_drain = 100e-6;
          };
        allowed_folds = nf_opts;
      }
  in
  Slicing.H
    (Slicing.Leaf (single "m1" [ 1; 2; 4; 6 ], []),
     Slicing.Leaf (single "m2" [ 1; 2; 4; 6 ], []))

let test_plan_parasitic_mode () =
  let nets = [ { Route.net = "d_m1"; current = 1e-4 };
               { Route.net = "d_m2"; current = 1e-4 };
               { Route.net = "g"; current = 0.0 } ] in
  let r =
    Plan.run ~mode:Plan.Parasitic_only ~nets P.c06 (simple_floorplan ())
  in
  Alcotest.(check bool) "no cell in parasitic mode" true (r.Plan.cell = None);
  Alcotest.(check int) "two device styles" 2 (List.length r.Plan.device_styles);
  List.iter
    (fun (_, s) ->
      Alcotest.(check bool) "drain internal" true s.F.drain_internal)
    r.Plan.device_styles;
  match Plan.find_net r "d_m1" with
  | None -> Alcotest.fail "net summary missing"
  | Some s -> Alcotest.(check bool) "routing cap positive" true (s.Plan.routing_cap > 0.0)

let test_plan_shape_constraint_changes_folds () =
  let nets = [ { Route.net = "d_m1"; current = 1e-4 } ] in
  let tall =
    Plan.run ~mode:Plan.Parasitic_only ~nets ~max_w:60 P.c06 (simple_floorplan ())
  in
  let flat =
    Plan.run ~mode:Plan.Parasitic_only ~nets ~max_h:60 P.c06 (simple_floorplan ())
  in
  let nf r name = (List.assoc name r.Plan.device_styles).F.nf in
  (* a narrow box forces more folds (wider transistor stacks are shorter) *)
  Alcotest.(check bool) "constraints influence folding" true
    (nf tall "m1" <> nf flat "m1" || tall.Plan.total_w <> flat.Plan.total_w)

let test_plan_generation_mode () =
  let nets = [ { Route.net = "d_m1"; current = 1e-4 } ] in
  let r = Plan.run ~mode:Plan.Generation ~nets P.c06 (simple_floorplan ()) in
  match r.Plan.cell with
  | None -> Alcotest.fail "generation mode must emit a cell"
  | Some cell ->
    Alcotest.(check bool) "cell populated" true (Cl.rect_count cell > 10);
    let art = Render.ascii cell in
    Alcotest.(check bool) "ascii non-trivial" true (String.length art > 100);
    let svg = Render.svg cell in
    Alcotest.(check bool) "svg has rects" true
      (String.length svg > 200 && String.sub svg 0 4 = "<svg")

(* --- columns ------------------------------------------------------------ *)

let rect_line r =
  Printf.sprintf "%s %d %d %d %d" (L.to_string r.G.layer) r.G.x0 r.G.y0 r.G.x1
    r.G.y1

let sorted_lines f xs = List.sort compare (List.map f xs)

(* The reference for every column-aware query: the same cell with its
   columns expanded into plain rectangles. *)
let expanded c =
  List.fold_left
    (fun acc p -> Cl.add_port acc ~net:p.Cl.net p.Cl.shape)
    (Cl.add_rects (Cl.empty "expanded") (Cl.flatten c))
    (List.rev (Cl.ports c))

(* A violation with its two shapes in a canonical order: which one the
   checker names first follows the order it met them in. *)
let violation_line v =
  let shapes =
    List.sort compare
      (rect_line v.Drc.a :: Option.to_list (Option.map rect_line v.Drc.b))
  in
  String.concat " | " (v.Drc.rule :: shapes)

let queries c =
  let x0, y0, x1, y1 = Cl.bbox c in
  let w, h = Cl.size c in
  String.concat "\n"
    ([ Printf.sprintf "bbox %d %d %d %d size %d %d rects %d" x0 y0 x1 y1 w h
         (Cl.rect_count c) ]
     @ List.map
         (fun l ->
           Printf.sprintf "%s area %d perim %d" (L.to_string l)
             (Cl.layer_area c l) (Cl.layer_perimeter c l))
         L.all
     @ sorted_lines (fun p -> p.Cl.net ^ " " ^ rect_line p.Cl.shape) (Cl.ports c)
     @ sorted_lines rect_line (Cl.flatten c)
     @ sorted_lines violation_line (Drc.check P.c06 c))

type gen_cell =
  | Gen_motif of E.mos_type * int * float * float
  | Gen_stack of E.mos_type * int list * float * float
  | Gen_pair of E.mos_type * Pair.style * int * float * float

let cell_of_gen = function
  | Gen_motif (mtype, nf, w, l) ->
    let dev =
      Device.Mos.make ~name:"m" ~mtype ~w ~l
        ~style:{ F.nf; drain_internal = nf mod 2 = 0 } ()
    in
    (Motif.generate P.c06
       { Motif.dev; d_net = "d"; g_net = "g"; s_net = "s"; b_net = "b";
         i_drain = 1e-3 }).Motif.cell
  | Gen_stack (mtype, units, unit_w, l) ->
    (Stack.generate P.c06
       { (mirror_spec ~units ~current:0.2e-3 ~unit_w ()) with Stack.mtype; l })
      .Stack.cell
  | Gen_pair (mtype, style, nf, w, l) ->
    (Pair.generate P.c06 { (pair_spec style nf) with Pair.mtype; w; l }).Pair.cell

let gen_cell =
  let open QCheck.Gen in
  let mtype = oneofl [ E.Nmos; E.Pmos ] in
  let um lo hi = map (fun x -> x *. 1e-6) (float_range lo hi) in
  oneof
    [
      map (fun (m, nf, w, l) -> Gen_motif (m, nf, w, l))
        (quad mtype (int_range 1 8) (um 2.0 40.0) (um 0.6 3.0));
      map (fun (m, units, w, l) -> Gen_stack (m, units, w, l))
        (quad mtype (list_size (int_range 1 3) (int_range 1 4)) (um 2.0 20.0)
           (um 0.6 3.0));
      map (fun ((m, style, nf), w, l) -> Gen_pair (m, style, nf, w, l))
        (triple
           (triple mtype (oneofl [ Pair.Interdigitated; Pair.Common_centroid ])
              (map (fun k -> 2 * k) (int_range 1 3)))
           (um 10.0 40.0) (um 0.6 3.0));
    ]

let print_gen g =
  let mos = function E.Nmos -> "nmos" | E.Pmos -> "pmos" in
  match g with
  | Gen_motif (m, nf, w, l) ->
    Printf.sprintf "%s motif nf=%d w=%g l=%g" (mos m) nf w l
  | Gen_stack (m, units, w, l) ->
    Printf.sprintf "%s stack %s w=%g l=%g" (mos m)
      (String.concat ":" (List.map string_of_int units)) w l
  | Gen_pair (m, style, nf, w, l) ->
    Printf.sprintf "%s pair %s nf=%d w=%g l=%g" (mos m)
      (Pair.style_to_string style) nf w l

(* Every cell operation commutes with expanding the columns: moving,
   normalising and merging a cell with columns answers every query as
   the same operations on its plain-rectangle expansion do. *)
let prop_columns_match_expansion =
  QCheck.Test.make ~name:"cell queries with columns equal their expansion"
    ~count:40
    (QCheck.make ~print:(fun (g, (dx, dy)) ->
       Printf.sprintf "%s dx=%d dy=%d" (print_gen g) dx dy)
       QCheck.Gen.(pair gen_cell (pair (int_range (-50) 50) (int_range (-50) 50))))
    (fun (g, (dx, dy)) ->
      let c = cell_of_gen g in
      let ops =
        [
          Fun.id;
          Cl.translate ~dx ~dy;
          (fun c -> Cl.normalize (Cl.translate ~dx ~dy c));
          (fun c ->
            let w, _ = Cl.size c in
            Cl.merge "m" [ c; Cl.translate ~dx:(w + 3 + abs dx) ~dy c ]);
        ]
      in
      List.for_all
        (fun op ->
          let q = queries (op c) in
          q = queries (expanded (op c)) && q = queries (op (expanded c)))
        ops)

(* Digests of the sorted flattened rectangles and of the DRC violations
   of the generation-mode layouts at the paper spec and of the Fig. 3
   mirror: how a cell stores its shapes must not change what is drawn. *)
let test_layout_golden () =
  let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines)) in
  let check label cell ~rects ~violations ~drc =
    Alcotest.(check string) (label ^ " rectangles") rects
      (digest (sorted_lines rect_line (Cl.flatten cell)));
    let vs = Drc.check P.c06 cell in
    Alcotest.(check int) (label ^ " violations") violations (List.length vs);
    Alcotest.(check string) (label ^ " violation digest") drc
      (digest (sorted_lines (Format.asprintf "%a" Drc.pp_violation) vs))
  in
  List.iter
    (fun (case, rects, violations, drc) ->
      let r =
        Core.Flow.run ~proc:P.c06 ~kind:Device.Model.Bsim_lite
          ~spec:Comdiac.Spec.paper_ota case
      in
      match r.Core.Flow.report.Plan.cell with
      | None -> Alcotest.fail "generation mode must emit a cell"
      | Some cell ->
        check (Core.Flow.case_label case) cell ~rects ~violations ~drc)
    [
      (Core.Flow.Case1, "343d24c2f046116ac05e7b795a9f5e78", 40,
       "adc88895eca25d20d093106f128de7f6");
      (Core.Flow.Case2, "912f9905116fb4295114959f73e7ee63", 34,
       "6e6f67fa674e0cd77c1fe8dd1b7b067e");
      (Core.Flow.Case3, "c7c8130942cb01658e163e94e26a6df3", 34,
       "fb0171eded9bcd927888de07c158211f");
      (Core.Flow.Case4, "65ae34990695de35616d4adac641a10c", 34,
       "bc5bef5e227d3e267ed3cc309e0b8fe2");
    ];
  let fig3 = Stack.generate P.c06 (mirror_spec ~unit_w:12e-6 ()) in
  check "Fig. 3 mirror" fig3.Stack.cell
    ~rects:"49e82d1def4e05d6e705733dc3d2e694" ~violations:0
    ~drc:"d41d8cd98f00b204e9800998ecf8427e"

(* A cell whose only shape is a column is not empty: its bbox spans the
   column, and the router puts its channel above it. *)
let test_column_only_cell () =
  let cut = G.rect L.Contact ~x0:4 ~y0:10 ~x1:6 ~y1:12 in
  let c = Cl.add_column (Cl.empty "col") ~count:3 ~pitch:5 cut in
  Alcotest.(check (list int)) "bbox spans the column" [ 4; 10; 6; 22 ]
    (let x0, y0, x1, y1 = Cl.bbox c in [ x0; y0; x1; y1 ]);
  Alcotest.(check int) "three cuts" 3 (Cl.rect_count c);
  let placed =
    Cl.add_port c ~net:"n1" (G.rect L.Metal1 ~x0:3 ~y0:10 ~x1:7 ~y1:12)
  in
  let r =
    Route.route P.c06 ~placed ~nets:[ { Route.net = "n1"; current = 1e-4 } ]
  in
  Alcotest.(check (list int)) "trunk above the column"
    [ 22 + P.c06.P.rules.Technology.Rules.metal2_space ]
    (List.map (fun w -> w.Route.trunk_y) r.Route.wires)

let suite =
  ( "layout",
    [
      case "rect basics" test_rect_basics;
      case "spacing and intersection" test_spacing;
      case "mirror" test_mirror;
      case "cell operations" test_cell_ops;
      case "motif ports" test_motif_ports;
      case "pmos gets a well" test_motif_pmos_has_well;
      case "EM strap widths" test_motif_em;
      case "required widths and contacts" test_required_widths;
      case "motif DRC clean" test_motif_drc_clean;
      case "shape pareto" test_shape_pareto;
      case "shape combine" test_shape_combine;
      case "slicing aspect constraint" test_slicing_aspect_constraint;
      case "interleave conserves units" test_interleave_conserves_units;
      case "mirror centroids (Fig. 3)" test_mirror_centroids;
      case "current-direction balance" test_mirror_orientation_balance;
      case "mirror generation" test_mirror_generate;
      case "mirror DRC" test_mirror_drc;
      case "interdigitated pair" test_pair_interdigitated;
      case "common-centroid pair" test_pair_common_centroid;
      case "odd common centroid rejected" test_pair_odd_cc_rejected;
      case "drc narrow wire" test_drc_detects_narrow_wire;
      case "drc close wires" test_drc_detects_close_wires;
      case "drc touching ok" test_drc_allows_touching;
      case "routing basics" test_route_basics;
      case "routing EM width" test_route_em_width;
      case "wire capacitance" test_cap_of_wire;
      case "plan parasitic mode" test_plan_parasitic_mode;
      case "plan shape constraint" test_plan_shape_constraint_changes_folds;
      case "plan generation mode" test_plan_generation_mode;
    ]
    @ qcheck_cases
        [
          prop_motif_area_matches_folding;
          prop_shape_merge_matches_cross;
          prop_stockmeyer_optimal;
          prop_placements_inside_box;
        ]
    @ [
        case "golden layouts and DRC" test_layout_golden;
        case "column-only cell is not empty" test_column_only_cell;
      ]
    @ qcheck_cases [ prop_columns_match_expansion ] )

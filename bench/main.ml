(* Paper reproduction: regenerates every table and figure of the paper's
   evaluation.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe table1     -- one experiment
     experiments: table1 fig1 fig2 fig3 fig4 fig5 ablation statistics

   Performance is measured by perfbench/ (see perfbench/README.md), not
   here.  Absolute numbers come from this repository's synthetic 0.6 um
   process and in-house simulator, so only the *shape* of each result is
   expected to match the paper (see EXPERIMENTS.md). *)

let proc = Technology.Process.c06
let kind = Device.Model.Bsim_lite
let spec = Comdiac.Spec.paper_ota

let hr () = Format.printf "%s@." (String.make 78 '-')

let section title =
  hr ();
  Format.printf "%s@." title;
  hr ()

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let flow_results = lazy (Core.Flow.run_all ~proc ~kind ~spec ())

let table1 () =
  section "Table 1 - sizing, layout and simulation results (paper vs this repo)";
  Format.printf "input spec: %a@." Comdiac.Spec.pp spec;
  let results = Lazy.force flow_results in
  List.iter
    (fun (r : Core.Flow.result) ->
      Format.printf "%s: %s -- %d layout call(s), %.1f s@."
        (Core.Flow.case_label r.Core.Flow.case)
        (Core.Flow.case_description r.Core.Flow.case)
        r.Core.Flow.layout_calls r.Core.Flow.elapsed)
    results;
  let r4 = List.nth results 3 in
  Format.printf
    "full case-4 synthesis (loop + generation + both verifications): %.2f s \
     -- paper bound %.0f s@."
    r4.Core.Flow.elapsed Paper_data.paper_sizing_time_bound_s;
  Format.printf
    "@.cells: synthesized (extracted); 'paper' row from DATE 2000 Table 1, \
     'ours' row measured here@.@.";
  let ours_values (p : Comdiac.Performance.t) =
    [
      p.Comdiac.Performance.dc_gain_db;
      p.Comdiac.Performance.gbw /. 1e6;
      p.Comdiac.Performance.phase_margin;
      p.Comdiac.Performance.slew_rate /. 1e6;
      p.Comdiac.Performance.cmrr_db;
      p.Comdiac.Performance.offset /. 1e-3;
      p.Comdiac.Performance.output_resistance /. 1e6;
      p.Comdiac.Performance.input_noise /. 1e-6;
      p.Comdiac.Performance.thermal_noise_density /. 1e-9;
      p.Comdiac.Performance.flicker_noise_density /. 1e-6;
      p.Comdiac.Performance.power /. 1e-3;
    ]
  in
  Format.printf "%-34s %-6s" "specification" "";
  List.iter
    (fun (r : Core.Flow.result) ->
      Format.printf " %16s" (Core.Flow.case_label r.Core.Flow.case))
    results;
  Format.printf "@.";
  List.iteri
    (fun row_i (row : Paper_data.row) ->
      Format.printf "%-34s %-6s" row.Paper_data.label "paper";
      Array.iter
        (fun cell ->
          match cell with
          | Some (s, e) -> Format.printf " %7.2f (%6.2f)" s e
          | None -> Format.printf " %16s" "n/a")
        row.Paper_data.cases;
      Format.printf "@.%-34s %-6s" "" "ours";
      List.iter
        (fun (r : Core.Flow.result) ->
          let s = List.nth (ours_values r.Core.Flow.synthesized) row_i in
          let e = List.nth (ours_values r.Core.Flow.extracted) row_i in
          Format.printf " %7.2f (%6.2f)" s e)
        results;
      Format.printf "@.")
    Paper_data.table1

(* ------------------------------------------------------------------ *)
(* Figure 1 - design flow comparison                                    *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  section "Figure 1 - traditional flow (a) vs layout-oriented flow (b)";
  let trad = Core.Traditional.run ~proc ~kind ~spec () in
  Format.printf
    "traditional flow: %d full layout generations, %d extracted-netlist \
     verifications, converged: %b, %.2f s@."
    trad.Core.Traditional.full_layouts
    trad.Core.Traditional.extracted_simulations trad.Core.Traditional.converged
    trad.Core.Traditional.elapsed;
  List.iter
    (fun (it : Core.Traditional.iteration) ->
      Format.printf "  iteration %d: extracted GBW %.1f MHz, PM %.1f deg%s@."
        it.Core.Traditional.index
        (it.Core.Traditional.gbw /. 1e6)
        it.Core.Traditional.pm
        (if it.Core.Traditional.met then "  <- meets spec" else ""))
    trad.Core.Traditional.iterations;
  let r4 = List.nth (Lazy.force flow_results) 3 in
  Format.printf
    "layout-oriented flow: %d parasitic-mode calls + 1 generation, %.2f s \
     (paper: %d layout-tool calls before convergence)@."
    r4.Core.Flow.layout_calls r4.Core.Flow.elapsed
    Paper_data.paper_layout_calls_case4;
  Format.printf
    "first-silicon quality: layout-oriented extracted GBW %.1f MHz / PM %.1f \
     deg without any full-layout iteration@."
    (r4.Core.Flow.extracted.Comdiac.Performance.gbw /. 1e6)
    r4.Core.Flow.extracted.Comdiac.Performance.phase_margin

(* ------------------------------------------------------------------ *)
(* Figure 2 - capacitance reduction factor                              *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  section "Figure 2 - capacitance reduction factor F vs number of folds";
  Format.printf
    "%4s  %-22s %-22s %-22s@." "Nf" "(a) even, internal" "(b) even, external"
    "(c) odd";
  Format.printf "%4s  %-10s %-11s %-10s %-11s %-10s %-11s@." "" "formula"
    "geometry" "formula" "geometry" "formula" "geometry";
  let module F = Device.Folding in
  let geometry_f nf ~drain_internal ~drain =
    let w = 60e-6 in
    F.effective_width proc ~w { F.nf; drain_internal } ~drain /. w
  in
  for nf = 1 to 20 do
    let cell case ~drain_internal ~drain =
      let odd_case = case = F.Odd in
      if odd_case <> (nf mod 2 = 1) then None
      else Some (F.reduction_factor case nf, geometry_f nf ~drain_internal ~drain)
    in
    let a = cell F.Even_internal ~drain_internal:true ~drain:true in
    let b = cell F.Even_external ~drain_internal:true ~drain:false in
    let c = cell F.Odd ~drain_internal:true ~drain:true in
    let pp = function
      | Some (f, g) -> Printf.sprintf "%-10.4f %-11.4f" f g
      | None -> Printf.sprintf "%-10s %-11s" "-" "-"
    in
    Format.printf "%4d  %s %s %s@." nf (pp a) (pp b) (pp c)
  done;
  Format.printf
    "@.shape check: F(a) is flat at 1/2; F(b) and F(c) drop steeply over \
     the first few folds, as in the paper's Fig. 2.@."

(* ------------------------------------------------------------------ *)
(* Figure 3 - current mirror M1:M2:M3 = 1:3:6                           *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  section "Figure 3 - matched current mirror, ratios M1:M2:M3 = 1:3:6";
  let module Stack = Cairo_layout.Stack in
  let mk_spec current =
    {
      Stack.elements =
        [
          { Stack.el_name = "1"; units = 1; drain_net = "d1";
            current = 1.0 *. current };
          { Stack.el_name = "2"; units = 3; drain_net = "d2";
            current = 3.0 *. current };
          { Stack.el_name = "3"; units = 6; drain_net = "d3";
            current = 6.0 *. current };
        ];
      mtype = Technology.Electrical.Nmos;
      unit_w = 12e-6;
      l = 2e-6;
      source_net = "vss";
      gate = Stack.Common "bias";
      bulk_net = "vss";
      dummies = true;
    }
  in
  (* high current density, as in the paper's example *)
  let r = Stack.generate proc (mk_spec 1.0e-3) in
  Format.printf "unit placement (D = dummy): %a@." Stack.pp_placement
    r.Stack.placement;
  List.iter
    (fun name ->
      Format.printf
        "  M%s: centroid offset %.2f unit pitches, current-direction \
         imbalance %d@."
        name
        (Stack.centroid_offset r.Stack.placement name)
        (Stack.orientation_imbalance r.Stack.placement name))
    [ "1"; "2"; "3" ];
  List.iter
    (fun (name, w) ->
      Format.printf "  M%s: EM-driven drain strap width %d lambda (%.2f um)@."
        name w
        (float_of_int w *. proc.Technology.Process.lambda *. 1e6))
    r.Stack.strap_widths;
  Format.printf "  contacts per diffusion strip: %d@." r.Stack.contacts_per_strip;
  let low = Stack.generate proc (mk_spec 0.05e-3) in
  Format.printf
    "  reliability check: at 20x lower current the M3 strap shrinks from %d \
     to %d lambda@."
    (List.assoc "3" r.Stack.strap_widths)
    (List.assoc "3" low.Stack.strap_widths);
  Format.printf "@.layout (ASCII; %s):@.%s@." Cairo_layout.Render.legend
    (Cairo_layout.Render.ascii ~max_cols:110 r.Stack.cell)

(* ------------------------------------------------------------------ *)
(* Figure 4 - the folded cascode OTA schematic                          *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  section "Figure 4 - folded cascode OTA (case 4 sizing, SPICE deck)";
  let r4 = List.nth (Lazy.force flow_results) 3 in
  let amp = r4.Core.Flow.design.Comdiac.Folded_cascode.amp in
  let circuit =
    Comdiac.Amp.add_to amp (Netlist.Circuit.create ~title:"folded cascode OTA")
  in
  Format.printf "%s@." (Netlist.Circuit.to_spice circuit);
  Format.printf "%a@." Comdiac.Folded_cascode.pp_design r4.Core.Flow.design

(* ------------------------------------------------------------------ *)
(* Figure 5 - the generated layout                                      *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  section "Figure 5 - generated layout of the case-4 OTA";
  let r4 = List.nth (Lazy.force flow_results) 3 in
  let report = r4.Core.Flow.report in
  let module Plan = Cairo_layout.Plan in
  Format.printf "floorplan: %d x %d lambda (%.0f x %.0f um), area %.3f mm^2@."
    report.Plan.total_w report.Plan.total_h
    (float_of_int report.Plan.total_w *. proc.Technology.Process.lambda *. 1e6)
    (float_of_int report.Plan.total_h *. proc.Technology.Process.lambda *. 1e6)
    (float_of_int (report.Plan.total_w * report.Plan.total_h)
     *. proc.Technology.Process.lambda *. proc.Technology.Process.lambda *. 1e6);
  List.iter
    (fun (name, style) ->
      Format.printf "  %-5s nf = %-2d drains %s@." name style.Device.Folding.nf
        (if style.Device.Folding.drain_internal then "internal" else "external"))
    report.Plan.device_styles;
  List.iter
    (fun (s : Plan.net_summary) ->
      if Plan.net_total s > 1e-15 then
        Format.printf "  net %-5s parasitic %s (well %s)@." s.Plan.net
          (Phys.Units.to_si_string "F" (Plan.net_total s))
          (Phys.Units.to_si_string "F" s.Plan.well_cap))
    report.Plan.nets;
  match report.Plan.cell with
  | None -> Format.printf "no cell (parasitic mode)@."
  | Some cell ->
    Format.printf "@.%s@.%s@." Cairo_layout.Render.legend
      (Cairo_layout.Render.ascii ~max_cols:110 cell)

(* ------------------------------------------------------------------ *)
(* Ablation - the design choices DESIGN.md calls out                    *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section "Ablation - pair style, model kind and shape constraint";
  let run_with options =
    Core.Flow.run ~options ~proc ~kind ~spec Core.Flow.Case4
  in
  let cc = List.nth (Lazy.force flow_results) 3 in
  let inter =
    run_with
      { Core.Layout_bridge.default_options with
        Core.Layout_bridge.pair_style = Cairo_layout.Pair.Interdigitated }
  in
  Format.printf
    "pair style      : common centroid GBW %.2f MHz / interdigitated %.2f MHz \
     (extracted)@."
    (cc.Core.Flow.extracted.Comdiac.Performance.gbw /. 1e6)
    (inter.Core.Flow.extracted.Comdiac.Performance.gbw /. 1e6);
  let lvl1 = Core.Flow.run ~proc ~kind:Device.Model.Level1 ~spec Core.Flow.Case4 in
  Format.printf
    "model kind      : bsim-lite power %.2f mW / level1 power %.2f mW \
     (same spec)@."
    (cc.Core.Flow.extracted.Comdiac.Performance.power /. 1e-3)
    (lvl1.Core.Flow.extracted.Comdiac.Performance.power /. 1e-3);
  let flat =
    run_with
      { Core.Layout_bridge.default_options with
        Core.Layout_bridge.aspect = None; max_h = Some 360 }
  in
  let module Plan = Cairo_layout.Plan in
  Format.printf
    "shape constraint: aspect [0.5,2.0] -> %dx%d lambda; module stack \
     capped at 360 -> %dx%d lambda incl. routing channel (folds re-chosen \
     by the optimiser)@."
    cc.Core.Flow.report.Plan.total_w cc.Core.Flow.report.Plan.total_h
    flat.Core.Flow.report.Plan.total_w flat.Core.Flow.report.Plan.total_h;
  let nf r name =
    (List.assoc name r.Core.Flow.report.Plan.device_styles).Device.Folding.nf
  in
  Format.printf "                  TAIL folds: %d (square) vs %d (flat)@."
    (nf cc "TAIL") (nf flat "TAIL")

(* ------------------------------------------------------------------ *)
(* Statistics - the paper's reliability verification interface          *)
(* ------------------------------------------------------------------ *)

let statistics () =
  section
    "Statistics - mismatch Monte Carlo and corner/temperature verification";
  let design =
    Comdiac.Folded_cascode.size ~proc ~kind ~spec
      ~parasitics:Comdiac.Parasitics.single_fold
  in
  let amp = design.Comdiac.Folded_cascode.amp in
  let mc = Comdiac.Montecarlo.run ~n:40 ~proc ~kind ~spec amp in
  Format.printf "%a@.@." Comdiac.Montecarlo.pp mc;
  let frozen = Comdiac.Robustness.run ~proc ~kind ~spec amp in
  Format.printf "frozen bias voltages:@.%a@.@." Comdiac.Robustness.pp frozen;
  let rebias p = Comdiac.Folded_cascode.rebias ~proc:p ~kind ~spec design in
  let tracking = Comdiac.Robustness.run ~rebias ~proc ~kind ~spec amp in
  Format.printf "tracking bias generator:@.%a@.@." Comdiac.Robustness.pp
    tracking;
  let tb = Comdiac.Testbench.make ~proc ~kind ~spec amp in
  Format.printf "PSRR %.1f dB@." (Sim.Measure.db (Comdiac.Testbench.psrr tb));
  let lo, hi = Comdiac.Testbench.common_mode_range tb in
  let slo, shi = spec.Comdiac.Spec.icmr in
  Format.printf
    "measured input common-mode range [%.2f, %.2f] V (spec [%.2f, %.2f] V;      the negative spec bound needs inputs below the rail, outside this      single-supply bench)@."
    lo hi slo shi

let experiments =
  [
    ("table1", table1);
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("ablation", ablation);
    ("statistics", statistics);
  ]

let () =
  let requested =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.map fst experiments
    | names -> names
  in
  match List.find_opt (fun n -> not (List.mem_assoc n experiments)) requested with
  | Some name ->
    Format.eprintf "bench: unknown experiment %s (have: %s)@." name
      (String.concat " " (List.map fst experiments));
    exit 2
  | None -> List.iter (fun name -> (List.assoc name experiments) ()) requested

(* The full layout-oriented synthesis flow (paper Fig. 1b) with a visible
   convergence trace.  The loop itself lives in [Core.Flow.run]; this
   example turns on the telemetry subsystem and reads the convergence
   trajectory, per-stage costs and Newton totals back out of it instead of
   instrumenting the loop by hand.

     dune exec examples/ota_flow.exe *)

module FC = Comdiac.Folded_cascode
module Plan = Cairo_layout.Plan
module Flow = Core.Flow

let proc = Technology.Process.c06
let kind = Device.Model.Bsim_lite
let spec = Comdiac.Spec.paper_ota

let () =
  Format.printf "layout-oriented synthesis of: %a@.@." Comdiac.Spec.pp spec;
  (* one execution context instead of loose ?jobs/?cache flags; telemetry
     turned on through it so the trajectory can be read back out below *)
  let ctx = Core.Ctx.make ~telemetry:true proc in
  let r = Flow.run ~ctx ~kind ~spec Flow.Case4 in
  (* the convergence trajectory, as telemetry recorded it: relative
     movement of the parasitic vector at each parasitic-mode layout call *)
  let deltas = Obs.Metrics.values "flow.parasitic_delta" in
  Format.printf "parasitic convergence trajectory (%d layout-tool calls):@."
    r.Flow.layout_calls;
  List.iteri
    (fun i d ->
      Format.printf "  call %d: parasitic movement vs previous estimate %5.1f%%%s@."
        (i + 1) (100.0 *. d)
        (if d < 0.02 then "  <- converged" else ""))
    deltas;
  Format.printf
    "sizing passes: %.0f  Newton iterations: %.0f  AC reductions: %.0f@.@."
    (Obs.Metrics.counter "flow.sizing_passes")
    (Obs.Metrics.counter "sim.dcop.newton_iters")
    (Obs.Metrics.counter "sim.acs.reductions");
  let report = r.Flow.report in
  Format.printf "floorplan %d x %d lambda@." report.Plan.total_w
    report.Plan.total_h;
  (match report.Plan.cell with
   | Some cell ->
     let path = "ota_layout.svg" in
     Out_channel.with_open_text path (fun oc ->
       output_string oc (Cairo_layout.Render.svg cell));
     Format.printf "wrote %s@." path
   | None -> ());
  (* verify the extracted netlist - the bracketed Table-1 values *)
  Format.printf "@.synthesized (extracted):@.%a@." Comdiac.Performance.pp_pair
    (r.Flow.synthesized, r.Flow.extracted);
  (* where the time went, straight from the span roll-up *)
  Format.printf "@.where the %.2f s went:@.%s" r.Flow.elapsed
    (Obs.Reporter.spans_table ())

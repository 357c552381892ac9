(* Reference values transcribed from the paper (DATE 2000, Table 1).
   Each case cell is (synthesized, extracted); [None] where the scanned
   text lost the number (the thermal-noise-density row). *)

type row = {
  label : string;
  cases : (float * float) option array;  (* 4 cases *)
}

let table1 : row list =
  [
    { label = "DC gain (dB)";
      cases = [| Some (70.1, 70.1); Some (55.0, 56.59); Some (66.1, 66.1);
                 Some (64.7, 64.7) |] };
    { label = "GBW (MHz)";
      cases = [| Some (64.9, 58.1); Some (66.5, 71.2); Some (65.0, 62.6);
                 Some (65.8, 66.1) |] };
    { label = "Phase margin (deg)";
      cases = [| Some (65.3, 56.3); Some (65.4, 72.4); Some (65.4, 64.4);
                 Some (65.15, 65.4) |] };
    { label = "Slew rate (V/us)";
      cases = [| Some (94.0, 86.5); Some (103.0, 98.1); Some (93.3, 93.3);
                 Some (93.0, 94.4) |] };
    { label = "CMRR (dB)";
      cases = [| Some (100.7, 100.7); Some (76.9, 79.6); Some (93.9, 93.9);
                 Some (91.6, 91.6) |] };
    { label = "Offset voltage (mV)";
      cases = [| Some (0.0, 0.0); Some (0.0, -0.1); Some (0.0, 0.0);
                 Some (0.0, 0.0) |] };
    { label = "Output resistance (Mohm)";
      cases = [| Some (2.4, 2.4); Some (0.38, 0.47); Some (1.5, 1.47);
                 Some (1.23, 1.23) |] };
    { label = "Input noise voltage (uV)";
      cases = [| Some (83.9, 96.1); Some (101.6, 85.6); Some (83.3, 87.8);
                 Some (82.7, 85.8) |] };
    { label = "Thermal noise density (nV/rtHz)";
      cases = [| None; None; None; None |] };
    { label = "Flicker noise at 1 Hz (uV/rtHz)";
      cases = [| Some (1.95, 3.64); Some (1.4, 8.1); Some (2.59, 4.85);
                 Some (2.82, 5.28) |] };
    { label = "Power dissipation (mW)";
      cases = [| Some (2.0, 2.0); Some (2.4, 2.2); Some (2.1, 2.1);
                 Some (2.1, 2.1) |] };
  ]

(* Paper flow statements used by the table1 and fig1 experiments. *)
let paper_layout_calls_case4 = 3
let paper_sizing_time_bound_s = 120.0

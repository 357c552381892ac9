module El = Netlist.Element

type contribution = {
  element : string;
  thermal : float;
  flicker : float;
}

(* Total and per-element output PSD from the adjoint solution at [freq]. *)
let psd_of dcop adj ~freq =
  let proc = Dcop.process dcop in
  let transfer_sq ~p ~n = Acs.injection_gain2 adj ~p ~n in
  let contributions =
    List.filter_map
      (fun e ->
        match e with
        | El.Mos { dev; d; s; _ } ->
          let op = Dcop.device_op dcop dev.Device.Mos.name in
          let eval = op.Device.Op.eval in
          let gm = eval.Device.Model.gm and ids = eval.Device.Model.ids in
          let zt2 = transfer_sq ~p:d ~n:s in
          let params = Device.Mos.params proc dev in
          let thermal = Device.Noise.thermal_current_psd gm *. zt2 in
          let flicker =
            Device.Noise.flicker_current_psd params ~l:dev.Device.Mos.l ~ids ~freq
            *. zt2
          in
          Some { element = dev.Device.Mos.name; thermal; flicker }
        | El.Resistor { name; p; n; r } ->
          let zt2 = transfer_sq ~p ~n in
          let psd =
            4.0 *. Phys.Const.boltzmann *. Phys.Const.room_temperature /. r
          in
          Some { element = name; thermal = psd *. zt2; flicker = 0.0 }
        | El.Capacitor _ | El.Isource _ | El.Vsource _ -> None)
      (Netlist.Circuit.elements (Dcop.circuit dcop))
  in
  let total =
    List.fold_left (fun acc c -> acc +. c.thermal +. c.flicker) 0.0 contributions
  in
  (total, contributions)

let output_psd dcop net ~out ~freq =
  psd_of dcop (Acs.adjoint net ~freq ~out) ~freq

let input_referred_psd dcop net ~out ~freq =
  let adj = Acs.adjoint net ~freq ~out in
  fst (psd_of dcop adj ~freq) /. Complex.norm2 (Acs.source_gain adj)

let integrated_output_noise dcop net ~out ~fmin ~fmax =
  let psd f = fst (output_psd dcop net ~out ~freq:f) in
  sqrt (Phys.Numerics.integrate_log ~points_per_decade:16 ~f:psd fmin fmax)

let integrated_input_noise dcop net ~out ~fmin ~fmax =
  let psd f = input_referred_psd dcop net ~out ~freq:f in
  sqrt (Phys.Numerics.integrate_log ~points_per_decade:16 ~f:psd fmin fmax)

type t = {
  eval : Model.eval;
  caps : Caps.t;
  geom : Folding.geom;
  bias : Model.bias;
}

let caps_at proc dev bias eval =
  let vdb_rev = Float.abs (bias.Model.vds -. bias.Model.vbs) in
  let vsb_rev = Float.abs bias.Model.vbs in
  let caps =
    Caps.of_operating_point proc dev.Mos.mtype ~w:dev.Mos.w ~l:dev.Mos.l
      ~style:dev.Mos.style ~region:eval.Model.region ~vdb_rev ~vsb_rev
  in
  (* When the extractor supplies as-drawn diffusions, recompute the
     junction terms from them. *)
  match dev.Mos.diffusion with
  | None -> caps
  | Some g ->
    let p = Mos.params proc dev in
    let module E = Technology.Electrical in
    let junction ~area ~perim ~vrev =
      Caps.junction_cap ~cj:p.E.cj ~cjsw:p.E.cjsw ~mj:p.E.mj
        ~mjsw:p.E.mjsw ~pb:p.E.pb ~area ~perim ~vrev
    in
    { caps with
      Caps.cdb = junction ~area:g.Folding.ad ~perim:g.Folding.pd ~vrev:vdb_rev;
      Caps.csb = junction ~area:g.Folding.as_ ~perim:g.Folding.ps ~vrev:vsb_rev }

(* Caps + geometry assembly shared by the exact and LUT paths. *)
let finish proc dev bias eval =
  { eval; caps = caps_at proc dev bias eval; geom = Mos.diffusion_geom proc dev;
    bias }

let compute ?(exact = false) proc kind dev bias =
  let p = Mos.params proc dev in
  let evaluate = if exact then Model.evaluate_exact else Model.evaluate in
  let eval = evaluate kind p ~w:dev.Mos.w ~l:dev.Mos.l bias in
  finish proc dev bias eval

let compute_lut proc kind dev bias =
  finish proc dev bias (Lut.eval proc kind dev bias)

let ft t =
  t.eval.Model.gm /. (2.0 *. Float.pi *. Caps.total_gate t.caps)

let intrinsic_gain t = t.eval.Model.gm /. t.eval.Model.gds

let pp fmt t =
  let e = t.eval in
  Format.fprintf fmt
    "ids=%s gm=%s gds=%s vth=%.3f V veff=%.3f V vdsat=%.3f V %s [%a]"
    (Phys.Units.to_si_string "A" e.Model.ids)
    (Phys.Units.to_si_string "S" e.Model.gm)
    (Phys.Units.to_si_string "S" e.Model.gds)
    e.Model.vth e.Model.veff e.Model.vdsat
    (Model.region_to_string e.Model.region)
    Caps.pp t.caps

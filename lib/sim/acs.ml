module Df = Linalg.Dense_f
module Hs = Linalg.Hessenberg
module El = Netlist.Element

type reduction = {
  g : Df.t;            (* LU factors of G *)
  piv : int array;
  hess : Hs.t;         (* 2 pi G⁻¹C = Q H Qᵀ, so Y = G (I + j f A) *)
  src : float array;   (* Qᵀ G⁻¹ b *)
}

type t = {
  idx : Indexing.t;
  b : float array;     (* the circuit's AC sources *)
  red : (reduction, Sim_error.t) result;
}

let analysis = "acs"

(* Conductance-style 4-point stamp through [add i j v]. *)
let quad add p q v =
  (match p with Some i -> add i i v | None -> ());
  (match q with Some j -> add j j v | None -> ());
  match (p, q) with
  | Some i, Some j ->
    add i j (-.v);
    add j i (-.v)
  | Some _, None | None, Some _ | None, None -> ()

(* Factor G and reduce A = G⁻¹ (2 pi C), 2 pi C given by rows. *)
let reduce g c b =
  let n = Df.rows g in
  let piv = Array.make n 0 in
  match Df.lu_factor_in_place g ~piv with
  | exception Linalg.Singular column ->
    Error (Sim_error.Singular_matrix { analysis; column })
  | () ->
    let hess = Hs.reduce (Df.lu_solve_rows g ~piv c) in
    let x = Array.make n 0.0 in
    Df.lu_solve_into g ~piv ~b ~x;
    Ok { g; piv; hess; src = Hs.project hess x }

let prepare dcop =
  if Obs.Config.enabled () then Obs.Metrics.incr "sim.acs.reductions";
  let idx = Dcop.indexing dcop in
  let n = Indexing.size idx in
  let ni name = Indexing.node_index idx name in
  let g = Df.create n n and c = Array.make_matrix n n 0.0 in
  let b = Array.make n 0.0 in
  let cond = quad (Df.add_to g) in
  let cap p q x =
    if x > 0.0 then
      quad (fun i j v -> c.(i).(j) <- c.(i).(j) +. v) p q (2.0 *. Float.pi *. x)
  in
  (* current gm (v_cp - v_cn) flows out_p -> out_n *)
  let vccs op on cp cn gm =
    let out node sign =
      match node with
      | None -> ()
      | Some i ->
        Option.iter (fun j -> Df.add_to g i j (sign *. gm)) cp;
        Option.iter (fun j -> Df.add_to g i j (-.sign *. gm)) cn
    in
    out op 1.0;
    out on (-1.0)
  in
  let handle = function
    | El.Resistor { p; n; r; _ } -> cond (ni p) (ni n) (1.0 /. r)
    | El.Capacitor { p; n; c = x; _ } -> cap (ni p) (ni n) x
    | El.Isource { p; n; i; _ } ->
      (* current p -> n: leaves p, enters n *)
      Option.iter (fun k -> b.(k) <- b.(k) -. i.El.ac) (ni p);
      Option.iter (fun k -> b.(k) <- b.(k) +. i.El.ac) (ni n)
    | El.Vsource { name; p; n; v; _ } ->
      let k = Indexing.vsource_index idx name in
      Option.iter (fun i -> Df.add_to g i k 1.0; Df.add_to g k i 1.0) (ni p);
      Option.iter (fun j -> Df.add_to g j k (-1.0); Df.add_to g k j (-1.0)) (ni n);
      b.(k) <- v.El.ac
    | El.Mos { dev; d; g = gate; s; b = bulk } ->
      let op = Dcop.device_op dcop dev.Device.Mos.name in
      let e = op.Device.Op.eval and cc = op.Device.Op.caps in
      let nd = ni d and ng = ni gate and ns = ni s and nb = ni bulk in
      cond nd ns e.Device.Model.gds;
      vccs nd ns ng ns e.Device.Model.gm;
      vccs nd ns nb ns e.Device.Model.gmb;
      cap ng ns cc.Device.Caps.cgs;
      cap ng nd cc.Device.Caps.cgd;
      cap ng nb cc.Device.Caps.cgb;
      cap nd nb cc.Device.Caps.cdb;
      cap ns nb cc.Device.Caps.csb
  in
  List.iter handle (Netlist.Circuit.elements (Dcop.circuit dcop));
  (* tiny gmin keeps G regular on nodes without a DC path *)
  for i = 0 to Indexing.node_count idx - 1 do
    Df.add_to g i i 1e-15
  done;
  { idx; b; red = reduce g c b }

let reduction net =
  match net.red with Ok r -> r | Error e -> raise (Sim_error.to_exn e)

let count_solve () =
  if Obs.Config.enabled () then Obs.Metrics.incr "sim.acs.solves"

(* w = (I + j f H)⁻ᵀ Qᵀ e_out, split into (re, im): V(out) for the
   excitation whose reduced right-hand side is c is wᵀ c. *)
let output_row net r ~freq o =
  count_solve ();
  let n = Indexing.size net.idx in
  let re = Array.make n 0.0 and im = Array.make n 0.0 in
  Hs.solve_t r.hess ~w:freq (Hs.row r.hess o) ~re ~im;
  (re, im)

let dot (re, im) c =
  let sr = ref 0.0 and si = ref 0.0 in
  for i = 0 to Array.length c - 1 do
    sr := !sr +. (re.(i) *. c.(i));
    si := !si +. (im.(i) *. c.(i))
  done;
  { Complex.re = !sr; im = !si }

let response net r ~freq c ~out =
  match Indexing.node_index net.idx out with
  | None -> Complex.zero
  | Some o -> dot (output_row net r ~freq o) c

let transfer net ~freq ~out =
  let r = reduction net in
  response net r ~freq r.src ~out

let transfer_result net ~freq ~out =
  match transfer net ~freq ~out with
  | v -> Ok v
  | exception e ->
    (match Sim_error.of_exn ~analysis e with
     | Some err -> Error err
     | None -> raise e)

let output_impedance net ~freq ~out =
  let r = reduction net in
  let n = Indexing.size net.idx in
  let e = Array.make n 0.0 and x = Array.make n 0.0 in
  Option.iter (fun o -> e.(o) <- 1.0) (Indexing.node_index net.idx out);
  Df.lu_solve_into r.g ~piv:r.piv ~b:e ~x;
  response net r ~freq (Hs.project r.hess x) ~out

type adjoint = { net : t; z_re : float array; z_im : float array }

(* Yᵀ = (I + j f Aᵀ) Gᵀ and Aᵀ = Q Hᵀ Qᵀ, so z = G⁻ᵀ Q w. *)
let adjoint net ~freq ~out =
  let r = reduction net in
  let n = Indexing.size net.idx in
  let z_re = Array.make n 0.0 and z_im = Array.make n 0.0 in
  Option.iter
    (fun o ->
      let re, im = output_row net r ~freq o in
      let v_re = Array.make n 0.0 and v_im = Array.make n 0.0 in
      Hs.lift r.hess ~re ~im ~x_re:v_re ~x_im:v_im;
      Df.lu_solve_t_into r.g ~piv:r.piv ~b:v_re ~x:z_re;
      Df.lu_solve_t_into r.g ~piv:r.piv ~b:v_im ~x:z_im)
    (Indexing.node_index net.idx out);
  { net; z_re; z_im }

let injection_gain2 a ~p ~n =
  let z z_part name =
    match Indexing.node_index a.net.idx name with
    | None -> 0.0
    | Some i -> z_part.(i)
  in
  let re = z a.z_re n -. z a.z_re p and im = z a.z_im n -. z a.z_im p in
  (re *. re) +. (im *. im)

let source_gain a = dot (a.z_re, a.z_im) a.net.b

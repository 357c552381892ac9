module R = Linalg.Real
module Df = Linalg.Dense_f
module Mdl = Device.Model
module El = Netlist.Element

type backend = Kernel | Reference

type mat = Unboxed of Df.t | Boxed of R.t

type ctx = {
  jac : mat;
  f : float array;
  x : float array;
}

(* The single accumulation primitive both backends share: everything below
   stamps through here, so the two matrix representations see the exact
   same sequence of additions and stay bit-identical. *)
let madd ctx i j v =
  match ctx.jac with
  | Unboxed m -> Df.add_to m i j v
  | Boxed m -> R.add_to m i j v

let device_bias dev ~vd ~vg ~vs ~vb =
  let sgn = Technology.Electrical.mos_type_sign dev.Device.Mos.mtype in
  { Mdl.vgs = sgn *. (vg -. vs);
    vds = sgn *. (vd -. vs);
    vbs = sgn *. (vb -. vs) }

(* ------------------------------------------------------------------ *)
(* Compiled stamp programs                                             *)
(* ------------------------------------------------------------------ *)

(* The circuit walk with every node name resolved to its MNA index
   (-1 = ground) and the per-device model card fetched once.  Compiling
   hoists the string-map lookups (and their [Some i] allocations) out of
   the Newton loop: an iterate touches only int indices and the flat
   buffers.  Sources keep their [El.source], so one program serves DC
   (scaled DC values, capacitors open) and transient (waveform values,
   capacitors as companions). *)
type pelem =
  | P_resistor of { pi : int; ni : int; g : float }
  | P_capacitor of { pi : int; ni : int; c : float }
  | P_isource of { pi : int; ni : int; src : El.source }
  | P_vsource of { row : int; pi : int; ni : int; src : El.source }
  | P_mos of {
      dev : Device.Mos.t;
      card : Technology.Electrical.mos_params;
      sgn : float;
      di : int;
      gi : int;
      si : int;
      bi : int;
    }

type prog = { proc : Technology.Process.t; elems : pelem array; nodes : int }

let compile proc idx circuit =
  let ridx name =
    match Indexing.node_index idx name with None -> -1 | Some i -> i
  in
  let elem = function
    | El.Resistor { p; n; r; _ } ->
      P_resistor { pi = ridx p; ni = ridx n; g = 1.0 /. r }
    | El.Capacitor { p; n; c; _ } -> P_capacitor { pi = ridx p; ni = ridx n; c }
    | El.Isource { p; n; i; _ } -> P_isource { pi = ridx p; ni = ridx n; src = i }
    | El.Vsource { name; p; n; v; _ } ->
      P_vsource
        { row = Indexing.vsource_index idx name; pi = ridx p; ni = ridx n; src = v }
    | El.Mos { dev; d; g; s; b } ->
      P_mos
        { dev;
          card = Device.Mos.params proc dev;
          sgn = Technology.Electrical.mos_type_sign dev.Device.Mos.mtype;
          di = ridx d;
          gi = ridx g;
          si = ridx s;
          bi = ridx b }
  in
  { proc;
    elems = Array.of_list (List.map elem (Netlist.Circuit.elements circuit));
    nodes = Indexing.node_count idx }

(* A backward-Euler companion i = g (vp - vn) + ieq, with g = c/dt and
   ieq = -g (vp - vn) at the previous time point. *)
type companion = { cp : int; cn : int; g : float; ieq : float }

type drive =
  | Dc of float
  | Tran of { time : float; comps : companion array array }
      (* [comps.(k)]: the companions of program element [k] *)

let dc alpha = Dc alpha

let transient kind prog ~time ~dt ~prev =
  let v i = if i < 0 then 0.0 else prev.(i) in
  let comp pi ni c =
    let g = c /. dt in
    { cp = pi; cn = ni; g; ieq = -.g *. (v pi -. v ni) }
  in
  let elem = function
    | P_capacitor { pi; ni; c } -> [| comp pi ni c |]
    | P_mos { dev; card; sgn; di; gi; si; bi } ->
      (* Device capacitances linearised at the previous time point: exact
         evaluation, since every step's bias is new to a memo. *)
      let bias =
        { Mdl.vgs = sgn *. (v gi -. v si);
          vds = sgn *. (v di -. v si);
          vbs = sgn *. (v bi -. v si) }
      in
      let e =
        Mdl.evaluate_exact kind card ~w:dev.Device.Mos.w ~l:dev.Device.Mos.l
          bias
      in
      let cc = Device.Op.caps_at prog.proc dev bias e in
      List.filter_map
        (fun (p, n, c) -> if c > 0.0 then Some (comp p n c) else None)
        [ (gi, si, cc.Device.Caps.cgs);
          (gi, di, cc.Device.Caps.cgd);
          (gi, bi, cc.Device.Caps.cgb);
          (di, bi, cc.Device.Caps.cdb);
          (si, bi, cc.Device.Caps.csb) ]
      |> Array.of_list
    | P_resistor _ | P_isource _ | P_vsource _ -> [||]
  in
  Tran { time; comps = Array.map elem prog.elems }

let xat ctx i = if i < 0 then 0.0 else Array.unsafe_get ctx.x i

let fadd ctx i v =
  if i >= 0 then ctx.f.(i) <- ctx.f.(i) +. v

let jadd ctx i j v = if i >= 0 && j >= 0 then madd ctx i j v

(* Linear branch i = g (vp - vn) + ieq; resistors pass ieq = 0.0, whose
   [+.] normalises a [-0.0] branch current exactly as a companion does. *)
let conduct ctx pi ni g ieq =
  let i = (g *. (xat ctx pi -. xat ctx ni)) +. ieq in
  fadd ctx pi i;
  fadd ctx ni (-.i);
  jadd ctx pi pi g;
  jadd ctx pi ni (-.g);
  jadd ctx ni ni g;
  jadd ctx ni pi (-.g)

(* Stamp one Newton iterate of [drive] into [ctx].  The walk keeps the
   element order, and within a MOS the drain stamp before its companions,
   so the floating-point accumulation order is fixed by the netlist. *)
let stamp kind prog ctx ~gmin drive =
  let value (s : El.source) =
    match drive with
    | Dc alpha -> alpha *. s.El.dc
    | Tran { time; _ } ->
      (match s.El.wave with Some w -> w time | None -> s.El.dc)
  in
  let companions k =
    match drive with
    | Dc _ -> ()
    | Tran { comps; _ } ->
      Array.iter (fun c -> conduct ctx c.cp c.cn c.g c.ieq) comps.(k)
  in
  Array.iteri
    (fun k pe ->
      match pe with
      | P_resistor { pi; ni; g } -> conduct ctx pi ni g 0.0
      | P_capacitor _ -> companions k
      | P_isource { pi; ni; src } ->
        let v = value src in
        fadd ctx pi v;
        fadd ctx ni (-.v)
      | P_vsource { row; pi; ni; src } ->
        fadd ctx pi ctx.x.(row);
        fadd ctx ni (-.(ctx.x.(row)));
        if pi >= 0 then madd ctx pi row 1.0;
        if ni >= 0 then madd ctx ni row (-1.0);
        ctx.f.(row) <- xat ctx pi -. xat ctx ni -. value src;
        if pi >= 0 then madd ctx row pi 1.0;
        if ni >= 0 then madd ctx row ni (-1.0)
      | P_mos { dev; card; sgn; di; gi; si; bi } ->
        let vd = xat ctx di
        and vg = xat ctx gi
        and vs = xat ctx si
        and vb = xat ctx bi in
        let bias =
          { Mdl.vgs = sgn *. (vg -. vs);
            vds = sgn *. (vd -. vs);
            vbs = sgn *. (vb -. vs) }
        in
        (* deliberately the unmemoized entry point: Newton iterates produce
           a fresh bias almost every call, so a memo here is all misses and
           LRU churn *)
        let e =
          Mdl.evaluate_exact kind card ~w:dev.Device.Mos.w ~l:dev.Device.Mos.l
            bias
        in
        let id_phys = sgn *. e.Mdl.ids in
        fadd ctx di id_phys;
        fadd ctx si (-.id_phys);
        (* dI_D/dvg = gm, /dvd = gds, /dvb = gmb, /dvs = -(gm + gds + gmb):
           the polarity signs cancel, so the entries are identical for both
           types. *)
        let gm = e.Mdl.gm and gds = e.Mdl.gds and gmb = e.Mdl.gmb in
        let gs = -.(gm +. gds +. gmb) in
        jadd ctx di gi gm;
        jadd ctx di di gds;
        jadd ctx di bi gmb;
        jadd ctx di si gs;
        jadd ctx si gi (-.gm);
        jadd ctx si di (-.gds);
        jadd ctx si bi (-.gmb);
        jadd ctx si si (-.gs);
        companions k)
    prog.elems;
  for i = 0 to prog.nodes - 1 do
    ctx.f.(i) <- ctx.f.(i) +. gmin *. ctx.x.(i);
    madd ctx i i gmin
  done

(* ------------------------------------------------------------------ *)
(* Bordered system                                                     *)
(* ------------------------------------------------------------------ *)

(* One extra unknown [u] (the last one) shifts voltage-source values by
   [k u], and one extra row pins a node: V(node) - target = 0. *)
type border = { shifts : (int * float) list; node : int; target : float }

let border ~shifts ~node ~target = { shifts; node; target }

let stamp_border ctx b =
  let col = Array.length ctx.x - 1 in
  let u = ctx.x.(col) in
  List.iter
    (fun (row, k) ->
      ctx.f.(row) <- ctx.f.(row) -. (k *. u);
      madd ctx row col (-.k))
    b.shifts;
  ctx.f.(col) <- ctx.x.(b.node) -. b.target;
  madd ctx col b.node 1.0

(* ------------------------------------------------------------------ *)
(* Newton update                                                       *)
(* ------------------------------------------------------------------ *)

type solver = { n : int; ws : Linalg.Ws.real option }

let solver backend n =
  match backend with
  | Kernel -> { n; ws = Some (Linalg.Ws.real n) }
  | Reference -> { n; ws = None }

let max_abs a = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 a

let stamp_all kind prog ctx ~gmin ?border drive =
  stamp kind prog ctx ~gmin drive;
  Option.iter (stamp_border ctx) border

let newton_update sv kind prog ~gmin ?border drive x =
  let n = sv.n in
  assert (Array.length x = n);
  match sv.ws with
  | Some w ->
    (* re-stamp the workspace, negate the residual in place (RHS is -f),
       then factor and solve without allocating *)
    Df.clear w.Linalg.Ws.jac;
    Array.fill w.Linalg.Ws.rhs 0 n 0.0;
    let f = w.Linalg.Ws.rhs in
    stamp_all kind prog { jac = Unboxed w.Linalg.Ws.jac; f; x } ~gmin ?border
      drive;
    for i = 0 to n - 1 do
      Array.unsafe_set f i (-.(Array.unsafe_get f i))
    done;
    Df.lu_factor_in_place w.Linalg.Ws.jac ~piv:w.Linalg.Ws.piv;
    Df.lu_solve_into w.Linalg.Ws.jac ~piv:w.Linalg.Ws.piv ~b:f
      ~x:w.Linalg.Ws.delta;
    (w.Linalg.Ws.delta, max_abs f)
  | None ->
    let m = R.create n n and f = Array.make n 0.0 in
    stamp_all kind prog { jac = Boxed m; f; x } ~gmin ?border drive;
    (R.solve m (Array.map (fun v -> -.v) f), max_abs f)

module R = Linalg.Real
module Df = Linalg.Dense_f
module Mdl = Device.Model

type backend = Kernel | Reference

type mat = Unboxed of Df.t | Boxed of R.t

type ctx = {
  idx : Indexing.t;
  jac : mat;
  f : float array;
  x : float array;
}

let make idx x =
  let n = Indexing.size idx in
  assert (Array.length x = n);
  { idx; jac = Boxed (R.create n n); f = Array.make n 0.0; x }

let make_ws idx (ws : Linalg.Ws.real) x =
  let n = Indexing.size idx in
  assert (Array.length x = n && Df.rows ws.Linalg.Ws.jac = n);
  Df.clear ws.Linalg.Ws.jac;
  Array.fill ws.Linalg.Ws.rhs 0 n 0.0;
  { idx; jac = Unboxed ws.Linalg.Ws.jac; f = ws.Linalg.Ws.rhs; x }

(* The single accumulation primitive both backends share: everything below
   stamps through here, so the two matrix representations see the exact
   same sequence of additions and stay bit-identical. *)
let madd ctx i j v =
  match ctx.jac with
  | Unboxed m -> Df.add_to m i j v
  | Boxed m -> R.add_to m i j v

let volt ctx node =
  match Indexing.node_index ctx.idx node with
  | None -> 0.0
  | Some i -> ctx.x.(i)

let with_idx ctx node k =
  match Indexing.node_index ctx.idx node with None -> () | Some i -> k i

let add_current ctx node value =
  with_idx ctx node (fun i -> ctx.f.(i) <- ctx.f.(i) +. value)

let add_jac ctx np nq value =
  match Indexing.node_index ctx.idx np with
  | None -> ()
  | Some i ->
    (match Indexing.node_index ctx.idx nq with
     | None -> ()
     | Some j -> madd ctx i j value)

let conductor ctx ~p ~n ~g ~i_extra =
  let i = g *. (volt ctx p -. volt ctx n) +. i_extra in
  add_current ctx p i;
  add_current ctx n (-.i);
  add_jac ctx p p g;
  add_jac ctx p n (-.g);
  add_jac ctx n n g;
  add_jac ctx n p (-.g)

let resistor ctx ~p ~n ~r = conductor ctx ~p ~n ~g:(1.0 /. r) ~i_extra:0.0

let isource ctx ~p ~n value =
  add_current ctx p value;
  add_current ctx n (-.value)

let vsource ctx ~row ~p ~n value =
  let k = row in
  add_current ctx p ctx.x.(k);
  add_current ctx n (-.(ctx.x.(k)));
  with_idx ctx p (fun i -> madd ctx i k 1.0);
  with_idx ctx n (fun i -> madd ctx i k (-1.0));
  ctx.f.(k) <- volt ctx p -. volt ctx n -. value;
  with_idx ctx p (fun i -> madd ctx k i 1.0);
  with_idx ctx n (fun i -> madd ctx k i (-1.0))

let gmin_all ctx gmin =
  for i = 0 to Indexing.node_count ctx.idx - 1 do
    ctx.f.(i) <- ctx.f.(i) +. gmin *. ctx.x.(i);
    madd ctx i i gmin
  done

let device_bias dev ~vd ~vg ~vs ~vb =
  let sgn = Technology.Electrical.mos_type_sign dev.Device.Mos.mtype in
  { Mdl.vgs = sgn *. (vg -. vs);
    vds = sgn *. (vd -. vs);
    vbs = sgn *. (vb -. vs) }

(* ------------------------------------------------------------------ *)
(* Compiled stamp programs                                             *)
(* ------------------------------------------------------------------ *)

(* The DC circuit walk with every node name resolved to its MNA index
   (-1 = ground) and the per-device model card fetched once.  Compiling
   hoists the string-map lookups (and their [Some i] allocations) out of
   the Newton loop: an iterate touches only int indices and the flat
   buffers.  The program preserves the element order and the exact
   floating-point operation sequence of the name-based stamps above, so
   both backends stay bit-identical to the uncompiled walk. *)
type pelem =
  | P_resistor of { pi : int; ni : int; g : float }
  | P_isource of { pi : int; ni : int; i : float }
  | P_vsource of { row : int; pi : int; ni : int; v : float }
  | P_mos of {
      dev : Device.Mos.t;
      card : Technology.Electrical.mos_params;
      sgn : float;
      di : int;
      gi : int;
      si : int;
      bi : int;
    }

type prog = pelem array

let compile proc idx circuit =
  let ridx name =
    match Indexing.node_index idx name with None -> -1 | Some i -> i
  in
  let module El = Netlist.Element in
  Array.of_list
    (List.filter_map
       (fun e ->
         match e with
         | El.Resistor { p; n; r; _ } ->
           Some (P_resistor { pi = ridx p; ni = ridx n; g = 1.0 /. r })
         | El.Capacitor _ -> None (* open at DC *)
         | El.Isource { p; n; i; _ } ->
           Some (P_isource { pi = ridx p; ni = ridx n; i = i.El.dc })
         | El.Vsource { name; p; n; v; _ } ->
           Some
             (P_vsource
                { row = Indexing.vsource_index idx name;
                  pi = ridx p;
                  ni = ridx n;
                  v = v.El.dc })
         | El.Mos { dev; d; g; s; b } ->
           Some
             (P_mos
                { dev;
                  card = Device.Mos.params proc dev;
                  sgn = Technology.Electrical.mos_type_sign dev.Device.Mos.mtype;
                  di = ridx d;
                  gi = ridx g;
                  si = ridx s;
                  bi = ridx b }))
       (Netlist.Circuit.elements circuit))

let xat ctx i = if i < 0 then 0.0 else Array.unsafe_get ctx.x i

let fadd ctx i v =
  if i >= 0 then ctx.f.(i) <- ctx.f.(i) +. v

let jadd ctx i j v = if i >= 0 && j >= 0 then madd ctx i j v

let run kind prog ctx ~gmin ~alpha =
  Array.iter
    (fun pe ->
      match pe with
      | P_resistor { pi; ni; g } ->
        (* the trailing [+. 0.0] replays [conductor]'s [i_extra] fold so a
           [-0.0] branch current normalises identically *)
        let i = (g *. (xat ctx pi -. xat ctx ni)) +. 0.0 in
        fadd ctx pi i;
        fadd ctx ni (-.i);
        jadd ctx pi pi g;
        jadd ctx pi ni (-.g);
        jadd ctx ni ni g;
        jadd ctx ni pi (-.g)
      | P_isource { pi; ni; i } ->
        let v = alpha *. i in
        fadd ctx pi v;
        fadd ctx ni (-.v)
      | P_vsource { row = k; pi; ni; v } ->
        fadd ctx pi ctx.x.(k);
        fadd ctx ni (-.(ctx.x.(k)));
        if pi >= 0 then madd ctx pi k 1.0;
        if ni >= 0 then madd ctx ni k (-1.0);
        ctx.f.(k) <- xat ctx pi -. xat ctx ni -. (alpha *. v);
        if pi >= 0 then madd ctx k pi 1.0;
        if ni >= 0 then madd ctx k ni (-1.0)
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
        let e =
          Mdl.evaluate_exact kind card ~w:dev.Device.Mos.w ~l:dev.Device.Mos.l
            bias
        in
        let id_phys = sgn *. e.Mdl.ids in
        fadd ctx di id_phys;
        fadd ctx si (-.id_phys);
        let gm = e.Mdl.gm and gds = e.Mdl.gds and gmb = e.Mdl.gmb in
        let gs = -.(gm +. gds +. gmb) in
        jadd ctx di gi gm;
        jadd ctx di di gds;
        jadd ctx di bi gmb;
        jadd ctx di si gs;
        jadd ctx si gi (-.gm);
        jadd ctx si di (-.gds);
        jadd ctx si bi (-.gmb);
        jadd ctx si si (-.gs))
    prog;
  gmin_all ctx gmin

let mos proc kind ctx ~dev ~d ~g ~s ~b =
  let vd = volt ctx d and vg = volt ctx g and vs = volt ctx s and vb = volt ctx b in
  let bias = device_bias dev ~vd ~vg ~vs ~vb in
  let p = Device.Mos.params proc dev in
  (* deliberately the unmemoized entry point: Newton iterates produce a
     fresh bias almost every call, so a memo here is all misses and LRU
     churn; repetition across whole solves is captured by the coarse
     memos (Monte Carlo samples, corner points, sizing results) *)
  let e = Mdl.evaluate_exact kind p ~w:dev.Device.Mos.w ~l:dev.Device.Mos.l bias in
  let sgn = Technology.Electrical.mos_type_sign dev.Device.Mos.mtype in
  let id_phys = sgn *. e.Mdl.ids in
  add_current ctx d id_phys;
  add_current ctx s (-.id_phys);
  (* dI_D/dvg = gm, /dvd = gds, /dvb = gmb, /dvs = -(gm + gds + gmb): the
     polarity signs cancel, so the entries are identical for both types. *)
  let gm = e.Mdl.gm and gds = e.Mdl.gds and gmb = e.Mdl.gmb in
  let gs = -.(gm +. gds +. gmb) in
  add_jac ctx d g gm; add_jac ctx d d gds; add_jac ctx d b gmb; add_jac ctx d s gs;
  add_jac ctx s g (-.gm); add_jac ctx s d (-.gds); add_jac ctx s b (-.gmb);
  add_jac ctx s s (-.gs)

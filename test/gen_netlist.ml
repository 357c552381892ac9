(* Random connected netlists shared by the solver property tests.

   A resistor spanning tree rooted at ground guarantees every node has a
   DC path to ground; on top of it a seeded mix of extra resistors,
   capacitors, current sources, grounded voltage sources and MOS devices
   exercises every stamp kind (including the structurally zero-diagonal
   voltage-source branch rows).  The same [(nodes, seed)] pair always
   builds the same circuit, so failures reproduce. *)

module Ckt = Netlist.Circuit
module El = Netlist.Element

let node i = Printf.sprintf "n%d" i

(* [make ~nodes ~seed] is a connected circuit over [nodes] named nodes
   plus ground, and a designated observation node for transfer-function
   style measurements. *)
let make ~nodes ~seed =
  assert (nodes >= 2);
  let st = Random.State.make [| 0x5EED; seed; nodes |] in
  let pick_node () = node (1 + Random.State.int st nodes) in
  let pick_or_gnd () =
    if Random.State.int st 5 = 0 then El.ground else pick_node ()
  in
  let c = ref (Ckt.create ~title:(Printf.sprintf "gen-%d-%d" nodes seed)) in
  (* spanning tree: node i hangs off a uniformly chosen earlier node *)
  for i = 1 to nodes do
    let parent =
      if i = 1 then El.ground else node (1 + Random.State.int st (i - 1))
    in
    c :=
      Ckt.add_resistor !c
        ~name:(Printf.sprintf "rt%d" i)
        ~p:(node i) ~n:parent
        ~r:(100.0 +. Random.State.float st 10_000.0)
  done;
  let extra = Random.State.int st (1 + (nodes / 2)) in
  for k = 1 to extra do
    let p = pick_node () and n = pick_or_gnd () in
    if p <> n then
      c :=
        Ckt.add_resistor !c
          ~name:(Printf.sprintf "rx%d" k)
          ~p ~n
          ~r:(100.0 +. Random.State.float st 50_000.0)
  done;
  let ncaps = Random.State.int st (1 + (nodes / 2)) in
  for k = 1 to ncaps do
    let p = pick_node () and n = pick_or_gnd () in
    if p <> n then
      c :=
        Ckt.add_capacitor !c
          ~name:(Printf.sprintf "c%d" k)
          ~p ~n
          ~c:(1e-13 +. Random.State.float st 1e-11)
  done;
  let nis = Random.State.int st 3 in
  for k = 1 to nis do
    let p = pick_node () and n = pick_or_gnd () in
    if p <> n then
      c :=
        Ckt.add_isource !c
          ~name:(Printf.sprintf "i%d" k)
          ~p ~n
          (El.dc_source (Random.State.float st 2e-4 -. 1e-4))
  done;
  (* grounded voltage sources on distinct nodes, the first carrying the
     AC drive *)
  c :=
    Ckt.add_vsource !c ~name:"v1" ~p:(node 1) ~n:El.ground
      (El.ac_source ~dc:(0.5 +. Random.State.float st 2.0) 1.0);
  if nodes > 2 && Random.State.bool st then
    c :=
      Ckt.add_vsource !c ~name:"v2" ~p:(node 2) ~n:El.ground
        (El.dc_source (Random.State.float st 3.0));
  (* MOS devices: gate and drain anywhere, bulk tied to source *)
  let nmos = Random.State.int st (1 + (nodes / 3)) in
  for k = 1 to nmos do
    let mtype =
      if Random.State.bool st then Technology.Electrical.Nmos
      else Technology.Electrical.Pmos
    in
    let dev =
      Device.Mos.make
        ~name:(Printf.sprintf "m%d" k)
        ~mtype
        ~w:(2e-6 +. Random.State.float st 20e-6)
        ~l:(1e-6 +. Random.State.float st 2e-6)
        ()
    in
    let d = pick_node () and g = pick_node () and s = pick_or_gnd () in
    c := Ckt.add_mos !c ~dev ~d ~g ~s ~b:s
  done;
  (!c, node (1 + Random.State.int st nodes))

(** Convenience instantiations of the dense linear algebra functor, plus
    the specialized unboxed kernel every analysis solves with.

    [Real]/[Cx] are the boxed functor-generic instances, kept as the
    kernel's test oracle; [Dense_f]/[Dense_c] are their bit-identical
    unboxed hot-path twins (flat [floatarray] storage, in-place LU,
    solves into caller-provided buffers) and [Ws] provides the
    per-domain reusable workspaces that make repeated solves
    allocation-free. *)

module Field = Field
module Dense = Dense

module Real = Dense.Make (Field.Real)
module Cx = Dense.Make (Field.Cx)

module Dense_f = Dense_f
module Dense_c = Dense_c
module Ws = Ws

exception Singular = Dense.Singular

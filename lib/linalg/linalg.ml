(** Convenience instantiations of the dense linear algebra functor, plus
    the specialized unboxed kernels every analysis solves with.

    [Real]/[Cx] are the boxed functor-generic instances, kept as test
    oracles; [Dense_f] is [Real]'s bit-identical unboxed hot-path twin
    (flat [floatarray] storage, in-place LU, solves into caller-provided
    buffers), [Ws] provides the per-domain reusable workspaces that make
    repeated real solves allocation-free, and [Hessenberg] reduces a
    real matrix once so that the complex systems of a frequency sweep
    are solved in O(n²) per point. *)

module Field = Field
module Dense = Dense

module Real = Dense.Make (Field.Real)
module Cx = Dense.Make (Field.Cx)

module Dense_f = Dense_f
module Hessenberg = Hessenberg
module Ws = Ws

exception Singular = Dense.Singular

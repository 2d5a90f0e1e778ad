(** Eigendecomposition of real symmetric matrices (cyclic Jacobi).

    Needed by CMA-ES (covariance sampling) and by the barrier level-set
    geometry (ellipsoid axes). *)

val symmetric : ?tol:float -> Mat.t -> Vec.t * Mat.t
(** [symmetric a] is [(eigenvalues, eigenvectors)] with eigenvalues in
    ascending order and eigenvectors as the *columns* of the returned
    matrix, so [a = V diag(λ) Vᵀ].  The input must be symmetric; only its
    lower triangle is trusted after symmetrization.  Convergence is
    quadratic; at most 64 sweeps run. *)

val sqrt_spd : Mat.t -> Mat.t
(** Symmetric square root of an SPD matrix: [sqrt_spd a] is the [s] with
    [s s = a].  Raises [Invalid_argument] if an eigenvalue is negative
    beyond tolerance. *)

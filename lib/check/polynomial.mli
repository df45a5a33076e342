(** Real polynomials, with a root finder specialized to real-rooted
    ones.

    The denominators produced by Padé approximation of RC-tree transfer
    functions have only real (negative) roots; for that class, roots of
    the derivative interlace roots of the polynomial, so all roots can
    be found by recursing through derivatives and bracketing with
    Brent — no complex arithmetic, no convergence surprises.

    Coefficients are stored low power first: [[| a0; a1; a2 |]] is
    [a0 + a1 x + a2 x²]. *)

type t = float array

val degree : t -> int
(** Ignoring trailing (high-order) zero coefficients; [-1] for the zero
    polynomial. *)

val eval : t -> float -> float
(** Horner evaluation. *)

val derivative : t -> t

val cauchy_bound : t -> float
(** All real roots lie within [±cauchy_bound p].
    Raises [Invalid_argument] on the zero polynomial. *)

val real_roots : ?tol:float -> t -> float array
(** Ascending real roots.  Complete when the polynomial is real-rooted
    (each root reported once, whatever its multiplicity); for general
    polynomials it returns the real roots it can bracket.  Degree 0
    yields [[||]].  Raises [Invalid_argument] on the zero polynomial. *)

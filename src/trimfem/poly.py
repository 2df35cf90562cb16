"""Exact polynomial algebra and Gauss-Legendre quadrature on [-1, 1]^n.

Differential forms (:class:`PolyForm`, one sparse dict of exact rational
coefficients per form; a scalar polynomial is a 0-form) are the one exact
polynomial type.  Floating point enters only at tabulation and quadrature:
:func:`monomial_table` rounds the coefficients of a list of forms once,
and :func:`evaluate` tabulates them at points as one product of a
monomial power table with that coefficient table.  The reference cell is
[-1, 1]^n throughout.
"""

from fractions import Fraction as Q
from functools import lru_cache

import numpy as np

QZERO = Q(0)


# ---------------------------------------------------------------------------
# component ordering for k-forms
# ---------------------------------------------------------------------------

#: Fixed component ordering of the k-form basis dx_sigma, per dimension.
#: 2-forms in 3D are ordered (dy^dz, dx^dz, dx^dy); everything else is
#: lexicographic on the index tuples.
FORM_COMPONENTS = {
    (2, 0): ((),),
    (2, 1): ((0,), (1,)),
    (2, 2): ((0, 1),),
    (3, 0): ((),),
    (3, 1): ((0,), (1,), (2,)),
    (3, 2): ((1, 2), (0, 2), (0, 1)),
    (3, 3): ((0, 1, 2),),
    (1, 0): ((),),
    (1, 1): ((0,),),
    (0, 0): ((),),
}


def form_components(n, k):
    """Ordered dx_sigma index tuples for k-forms in n dimensions."""
    try:
        return FORM_COMPONENTS[(n, k)]
    except KeyError:
        raise ValueError(f"no k-form components for n={n}, k={k}")


# ---------------------------------------------------------------------------
# differential forms with exact coefficients
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def legendre(j):
    """Legendre polynomial P_j as exact (power, coefficient) pairs.

    Built from the three-term recurrence
    j P_j = (2j-1) x P_{j-1} - (j-1) P_{j-2}; the powers run down from j
    in steps of two, since every other coefficient is zero.
    """
    if j < 0:
        raise ValueError("Legendre degree must be nonnegative")
    if j < 2:
        return ((j, Q(1)),)
    out = {p + 1: c * Q(2 * j - 1, j) for p, c in legendre(j - 1)}
    for p, c in legendre(j - 2):
        out[p] = out.get(p, QZERO) - c * Q(j - 1, j)
    return tuple(out.items())


def add_term(out, key, c):
    """Add c to the coefficient `out[key]` in place, dropping a zero sum."""
    s = out.get(key, QZERO) + c
    if s == 0:
        out.pop(key, None)
    else:
        out[key] = s


class PolyForm:
    """Differential k-form with polynomial coefficients on [-1, 1]^n.

    `coeffs` maps `(component, exponent)` to a nonzero rational: the
    coefficient of the monomial x^exponent in dx_sigma, sigma the
    component-th index tuple of :data:`FORM_COMPONENTS`.  The entries are
    kept grouped by component, in component order, so that tables number
    the monomials of a form component by component.  A scalar polynomial
    is a 0-form.  The same dict is the sparse vector that the exact
    eliminator, the traces and the exact L2 product work on.
    """

    __slots__ = ("n", "k", "coeffs")

    def __init__(self, n, k, coeffs=None):
        form_components(n, k)  # rejects an unknown (n, k)
        self.n = n
        self.k = k
        items = sorted((coeffs or {}).items(), key=lambda item: item[0][0])
        self.coeffs = {key: Q(c) for key, c in items if c}

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, PolyForm) and self.n == other.n
                and self.k == other.k and self.coeffs == other.coeffs)

    def __repr__(self):
        names = "xyz"
        terms = [[] for _ in form_components(self.n, self.k)]
        for (ci, exp), c in sorted(self.coeffs.items(),
                                   key=lambda item: (sum(item[0][1]), item[0][1])):
            mono = "".join(names[i] + (f"^{p}" if p > 1 else "")
                           for i, p in enumerate(exp) if p)
            terms[ci].append(f"{c}{'*' if mono else ''}{mono}")
        parts = []
        for comp, sigma in zip(terms, form_components(self.n, self.k)):
            if comp:
                d = "^".join(f"d{names[i]}" for i in sigma)
                parts.append(f"({' + '.join(comp)}){d}")
        return " + ".join(parts) or "0"


def exterior_derivative(f: PolyForm) -> PolyForm:
    """Exterior derivative df of a polynomial k-form, computed exactly."""
    if f.k >= f.n:
        raise ValueError("top-degree form has no exterior derivative")
    sigmas = form_components(f.n, f.k)
    out_sigmas = form_components(f.n, f.k + 1)
    out = {}
    for (ci, exp), c in f.coeffs.items():
        sigma = sigmas[ci]
        for axis, p in enumerate(exp):
            if not p or axis in sigma:
                continue
            merged = tuple(sorted(sigma + (axis,)))
            # sign of dx_axis ^ dx_sigma -> dx_merged
            sign = (-1) ** merged.index(axis)
            key = (out_sigmas.index(merged), exp[:axis] + (p - 1,) + exp[axis + 1:])
            add_term(out, key, c * p * sign)
    return PolyForm(f.n, f.k + 1, out)


def koszul(f: PolyForm) -> PolyForm:
    """Koszul operator: contraction of a k-form with the position field."""
    if f.k == 0:
        raise ValueError("0-forms have no Koszul contraction")
    sigmas = form_components(f.n, f.k)
    out_sigmas = form_components(f.n, f.k - 1)
    out = {}
    for (ci, exp), c in f.coeffs.items():
        sigma = sigmas[ci]
        for pos, axis in enumerate(sigma):
            key = (out_sigmas.index(sigma[:pos] + sigma[pos + 1:]),
                   exp[:axis] + (exp[axis] + 1,) + exp[axis + 1:])
            add_term(out, key, -c if pos % 2 else c)
    return PolyForm(f.n, f.k - 1, out)


# ---------------------------------------------------------------------------
# float tabulation
# ---------------------------------------------------------------------------

def monomial_table(forms):
    """Float coefficients of k-forms over the monomials they use.

    Returns `(exponents, coeffs)`: `exponents[i]` is the exponent tuple of
    the i-th monomial, shape (m, n), and `coeffs[i, f, c]` its coefficient
    in component c of form f, shape (m, forms, components).
    """
    n, ncomp = forms[0].n, len(form_components(forms[0].n, forms[0].k))
    index, entries = {}, []
    for f, form in enumerate(forms):
        for (c, exp), coeff in form.coeffs.items():
            entries.append((index.setdefault(exp, len(index)), f, c, float(coeff)))
    exponents = np.array(list(index), dtype=int).reshape(len(index), n)
    coeffs = np.zeros((len(index), len(forms), ncomp))
    for i, f, c, value in entries:
        coeffs[i, f, c] = value
    return exponents, coeffs


def evaluate(table, points):
    """Values of the forms of a :func:`monomial_table` at float points.

    `points` has shape (npts, n); returns shape (npts, forms, components),
    one product of the points' monomial powers with the coefficient table.
    """
    exponents, coeffs = table
    points = np.asarray(points, dtype=float)
    powers = np.ones((len(points), len(exponents)))
    for axis, exps in enumerate(exponents.T):
        powers *= (points[:, axis, None] ** np.arange(exps.max(initial=0) + 1))[:, exps]
    m, nforms, ncomp = coeffs.shape
    return (powers @ coeffs.reshape(m, nforms * ncomp)).reshape(len(points), nforms, ncomp)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

class QuadratureRule:
    """Tensor-product Gauss-Legendre rule on [-1, 1]^n."""

    __slots__ = ("n", "points", "weights")

    def __init__(self, n, points, weights):
        self.n = n
        self.points = points
        self.weights = weights


@lru_cache(maxsize=None)
def gauss_rule(n: int, m: int) -> QuadratureRule:
    """m-point-per-axis Gauss-Legendre rule on [-1, 1]^n.

    Exact for polynomials of per-variable degree <= 2m - 1.
    """
    if m < 1:
        raise ValueError("need at least one point per axis")
    x, w = np.polynomial.legendre.leggauss(m)
    pts_1d = [x] * n
    grids = np.meshgrid(*pts_1d, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)
    weights = np.prod(np.meshgrid(*([w] * n), indexing="ij"), axis=0).ravel()
    return QuadratureRule(n, points, weights)


def monomial_exponents(n, degree):
    """All exponent tuples in n variables with total degree exactly `degree`."""
    if n == 0:
        return [()] if degree == 0 else []
    out = []
    for first in range(degree + 1):
        for rest in monomial_exponents(n - 1, degree - first):
            out.append((first,) + rest)
    return out


def monomials_up_to(n, degree):
    """Exponent tuples with total degree <= degree, graded lexicographic."""
    out = []
    for d in range(degree + 1):
        out.extend(sorted(monomial_exponents(n, d)))
    return out

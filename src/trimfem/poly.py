"""Exact polynomial algebra and Gauss-Legendre quadrature on [-1, 1]^n.

Polynomials (:class:`PolyN`) and differential forms carry exact rational
coefficients.  Floating point enters only at tabulation and quadrature:
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
}


def form_components(n, k):
    """Ordered dx_sigma index tuples for k-forms in n dimensions."""
    try:
        return FORM_COMPONENTS[(n, k)]
    except KeyError:
        raise ValueError(f"no k-form components for n={n}, k={k}")


# ---------------------------------------------------------------------------
# multivariate polynomials with exact coefficients
# ---------------------------------------------------------------------------

class PolyN:
    """Polynomial in n variables, monomial basis, exact rational coefficients.

    Stored as a mapping from exponent tuples to nonzero rationals.
    Immutable; all arithmetic returns new instances.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs=None):
        self.n = n
        clean = {}
        for exp, c in (coeffs or {}).items():
            c = Q(c)
            if c != 0:
                clean[tuple(exp)] = c
        self.coeffs = clean

    @staticmethod
    def zero(n):
        return PolyN(n)

    @staticmethod
    def constant(n, c):
        return PolyN(n, {(0,) * n: c})

    @staticmethod
    def monomial(n, exponents, c=1):
        return PolyN(n, {tuple(exponents): c})

    @staticmethod
    def variable(n, axis):
        exp = [0] * n
        exp[axis] = 1
        return PolyN(n, {tuple(exp): 1})

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(sum(e) for e in self.coeffs)

    def __add__(self, other):
        if isinstance(other, PolyN):
            out = dict(self.coeffs)
            for exp, c in other.coeffs.items():
                s = out.get(exp, QZERO) + c
                if s == 0:
                    out.pop(exp, None)
                else:
                    out[exp] = s
            return PolyN(self.n, out)
        return self + PolyN.constant(self.n, other)

    __radd__ = __add__

    def __neg__(self):
        return PolyN(self.n, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, PolyN):
            return self + (-other)
        return self + PolyN.constant(self.n, -Q(other))

    def __mul__(self, other):
        if isinstance(other, PolyN):
            out = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    exp = tuple(a + b for a, b in zip(e1, e2))
                    s = out.get(exp, QZERO) + c1 * c2
                    if s == 0:
                        out.pop(exp, None)
                    else:
                        out[exp] = s
            return PolyN(self.n, out)
        c = Q(other)
        return PolyN(self.n, {e: v * c for e, v in self.coeffs.items()})

    __rmul__ = __mul__

    def diff(self, axis):
        out = {}
        for exp, c in self.coeffs.items():
            p = exp[axis]
            if p == 0:
                continue
            new = list(exp)
            new[axis] = p - 1
            out[tuple(new)] = c * p
        return PolyN(self.n, out)

    def __eq__(self, other):
        return isinstance(other, PolyN) and self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, frozenset(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        names = "xyzw"
        terms = []
        for exp in sorted(self.coeffs, key=lambda e: (sum(e), e)):
            c = self.coeffs[exp]
            mono = "".join(
                f"{names[i]}" + (f"^{p}" if p > 1 else "")
                for i, p in enumerate(exp) if p
            )
            terms.append(f"{c}{'*' if mono else ''}{mono}")
        return " + ".join(terms)


@lru_cache(maxsize=None)
def legendre_poly(n, axis, j):
    """Degree-j Legendre polynomial in variable `axis`, as an exact PolyN.

    Built from the three-term recurrence
    j P_j = (2j-1) x P_{j-1} - (j-1) P_{j-2}.
    """
    if j < 0:
        raise ValueError("Legendre degree must be nonnegative")
    if j == 0:
        return PolyN.constant(n, 1)
    x = PolyN.variable(n, axis)
    if j == 1:
        return x
    return (x * legendre_poly(n, axis, j - 1) * Q(2 * j - 1, j)
            - legendre_poly(n, axis, j - 2) * Q(j - 1, j))


# ---------------------------------------------------------------------------
# differential forms
# ---------------------------------------------------------------------------

class PolyForm:
    """Differential k-form with polynomial coefficients on [-1, 1]^n.

    `components[i]` is the coefficient of dx_sigma for the i-th index
    tuple in the fixed component ordering (:data:`FORM_COMPONENTS`).
    """

    __slots__ = ("n", "k", "components")

    def __init__(self, n, k, components=None):
        self.n = n
        self.k = k
        sigmas = form_components(n, k)
        if components is None:
            components = [PolyN.zero(n) for _ in sigmas]
        components = list(components)
        if len(components) != len(sigmas):
            raise ValueError(
                f"{k}-form in {n}D needs {len(sigmas)} components, got {len(components)}"
            )
        self.components = tuple(components)

    @staticmethod
    def from_monomial(n, k, sigma, poly):
        """Form poly * dx_sigma with sigma an increasing index tuple."""
        sigmas = form_components(n, k)
        comps = [PolyN.zero(n) for _ in sigmas]
        comps[sigmas.index(tuple(sigma))] = poly
        return PolyForm(n, k, comps)

    def is_zero(self):
        return all(c.is_zero() for c in self.components)

    def __add__(self, other):
        return PolyForm(self.n, self.k,
                        [a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        return PolyForm(self.n, self.k,
                        [a - b for a, b in zip(self.components, other.components)])

    def __mul__(self, scalar):
        return PolyForm(self.n, self.k, [c * scalar for c in self.components])

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __eq__(self, other):
        return (isinstance(other, PolyForm) and self.n == other.n
                and self.k == other.k and self.components == other.components)

    def __repr__(self):
        names = "xyz"[: self.n]
        parts = []
        for comp, sigma in zip(self.components, form_components(self.n, self.k)):
            if comp.is_zero():
                continue
            d = "^".join(f"d{names[i]}" for i in sigma) or ""
            parts.append(f"({comp}){d}" if d else f"({comp})")
        return " + ".join(parts) or "0"


def exterior_derivative(f: PolyForm) -> PolyForm:
    """Exterior derivative df of a polynomial k-form, computed exactly."""
    if f.k >= f.n:
        raise ValueError("top-degree form has no exterior derivative")
    out_sigmas = form_components(f.n, f.k + 1)
    out = [PolyN.zero(f.n) for _ in out_sigmas]
    for comp, sigma in zip(f.components, form_components(f.n, f.k)):
        if comp.is_zero():
            continue
        for axis in range(f.n):
            if axis in sigma:
                continue
            dcomp = comp.diff(axis)
            if dcomp.is_zero():
                continue
            merged = tuple(sorted(sigma + (axis,)))
            # sign of dx_axis ^ dx_sigma -> dx_merged
            sign = (-1) ** merged.index(axis)
            idx = out_sigmas.index(merged)
            out[idx] = out[idx] + dcomp * sign
    return PolyForm(f.n, f.k + 1, out)


def koszul(f: PolyForm) -> PolyForm:
    """Koszul operator: contraction of a k-form with the position field."""
    if f.k == 0:
        raise ValueError("0-forms have no Koszul contraction")
    out_sigmas = form_components(f.n, f.k - 1)
    out = [PolyN.zero(f.n) for _ in out_sigmas]
    for comp, sigma in zip(f.components, form_components(f.n, f.k)):
        if comp.is_zero():
            continue
        for pos, axis in enumerate(sigma):
            rest = tuple(a for a in sigma if a != axis)
            idx = out_sigmas.index(rest)
            term = comp * PolyN.variable(f.n, axis)
            out[idx] = out[idx] + term * ((-1) ** pos)
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
    n, ncomp = forms[0].n, len(forms[0].components)
    index, entries = {}, []
    for f, form in enumerate(forms):
        for c, comp in enumerate(form.components):
            for exp, coeff in comp.coeffs.items():
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

    def __len__(self):
        return len(self.weights)


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
    weights = np.ones(m**n)
    for axis in range(n):
        wg = np.meshgrid(*([w] * n), indexing="ij")[axis].ravel()
        weights *= wg
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

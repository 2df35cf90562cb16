"""Reference elements on [-1, 1]^n for two cubical element families.

Both families have explicit entity bases built by one product rule
(:func:`_entity_forms`): a form f dx_sigma whose coefficient f is a
product of 1D factors, the Legendre polynomial P_i(x_a) on the axes of
sigma, the bubble (1 - x_a^2) P_i(x_a) on the other tangential axes of
the entity, and a hat (1 + s x_a) for each axis fixed at side s.  The
tensor-product family (Lagrange, RTCE/RTCF, NCE/NCF, DQ) takes every
entity basis from that rule with box index sets.  The trimmed serendipity
family takes its 0-forms, top forms and the k-forms on k-dimensional
entities from it with graded index sets; its remaining sets are split
from the span of exact generators (polynomial forms, Koszul images of
linear-degree monomial form spaces, and exterior derivatives thereof): a
basis function belongs to the unique lowest-dimensional sub-entity on
which its trace does not vanish, and the split runs in exact rational
arithmetic, so unisolvence and trace association hold to machine
precision by construction.
"""

from functools import lru_cache
from itertools import product
from numbers import Integral

import numpy as np

from ._exact import (
    SpanBasis,
    gram_solve,
    rational_kernel,
    rational_solve,
    vec_add,
    vec_content_normalize,
)
from .poly import (
    Q,
    QZERO,
    PolyForm,
    add_term,
    evaluate,
    exterior_derivative,
    form_components,
    koszul,
    legendre,
    monomial_exponents,
    monomial_table,
    monomials_up_to,
)

TRIMMED_SERENDIPITY = "TrimmedSerendipity"
TENSOR_PRODUCT = "TensorProduct"

_FAMILIES = (TRIMMED_SERENDIPITY, TENSOR_PRODUCT)


# ---------------------------------------------------------------------------
# reference cube topology
# ---------------------------------------------------------------------------

class Entity:
    """A sub-entity of the reference cube.

    `axes` are the tangential axes (ascending); `fixed` is a tuple of
    (axis, value) pairs with value in {-1, +1}, e.g. the edge
    {y=1} & {z=1} is Entity(axes=(0,), fixed=((1, 1), (2, 1))).
    """

    __slots__ = ("axes", "fixed")

    def __init__(self, axes, fixed):
        self.axes = tuple(axes)
        self.fixed = tuple(sorted(fixed))

    @property
    def dim(self):
        return len(self.axes)

    def __eq__(self, other):
        return (isinstance(other, Entity) and self.axes == other.axes
                and self.fixed == other.fixed)

    def __hash__(self):
        return hash((self.axes, self.fixed))

    def __repr__(self):
        names = "xyz"
        planes = ", ".join(f"{names[a]}={v:+d}" for a, v in self.fixed)
        return f"<{self.dim}-entity {{{planes}}}>" if planes else "<cell>"


class CellTopology:
    """Entity enumeration of the n-cube, ordered dimension-major.

    The entities of dimension d come in the order of their tangential axes
    in `form_components(n, d)`, so edges are grouped by tangent axis and
    3D faces by normal axis (the 2-form order dy^dz, dx^dz, dx^dy); the
    fixed coordinates are enumerated -1 before +1 (first fixed axis
    slowest).
    """

    def __init__(self, n):
        if n not in (1, 2, 3):
            raise ValueError("only 1-, 2- and 3-cubes are supported")
        self.n = n
        ents = {d: [] for d in range(n + 1)}
        for d in range(n + 1):
            for axes in form_components(n, d):
                rest = [a for a in range(n) if a not in axes]
                for vals in product((-1, 1), repeat=len(rest)):
                    ents[d].append(Entity(axes, tuple(zip(rest, vals))))
        self.entities = ents

    def all_entities(self):
        for d in range(self.n + 1):
            yield from self.entities[d]

    def counts(self):
        return {d: len(self.entities[d]) for d in range(self.n + 1)}


@lru_cache(maxsize=None)
def cell_topology(n):
    return CellTopology(n)


# ---------------------------------------------------------------------------
# form vectors and traces
# ---------------------------------------------------------------------------
# A k-form vector is the sparse dict `PolyForm.coeffs`,
# {(component_index, exponent_tuple): rational}.

def _key_order(key):
    ci, exp = key
    return (sum(exp), ci, exp)


def vec_l2(a, b):
    """Exact L2 inner product of two form vectors over [-1, 1]^n."""
    total = QZERO
    if len(a) > len(b):
        a, b = b, a
    by_comp = {}
    for (ci, exp), c in b.items():
        by_comp.setdefault(ci, []).append((exp, c))
    for (ci, e1), c1 in a.items():
        for e2, c2 in by_comp.get(ci, ()):
            term = c1 * c2
            for p1, p2 in zip(e1, e2):
                s = p1 + p2
                if s % 2:
                    term = QZERO
                    break
                term = term * Q(2, s + 1)
            total += term
    return total


def trace_vec(vec, n, k, entity: Entity):
    """Pullback of a k-form vector onto a sub-entity, in intrinsic keys.

    Components dx_sigma with sigma not contained in the entity's tangential
    axes vanish; fixed coordinates are substituted exactly.  Returns a
    sparse vector over (intrinsic component, intrinsic exponent) keys.
    """
    d = entity.dim
    if k > d:
        return {}
    axes = entity.axes
    pos = {a: i for i, a in enumerate(axes)}
    sigmas = form_components(n, k)
    out_sigmas = form_components(d, k)
    out = {}
    for (ci, exp), c in vec.items():
        sigma = sigmas[ci]
        if any(a not in pos for a in sigma):
            continue
        val = c
        new_exp = [0] * d
        for a, p in enumerate(exp):
            if not p:
                continue
            if a in pos:
                new_exp[pos[a]] = p
            else:
                fixed_val = dict(entity.fixed)[a]
                if fixed_val == -1 and p % 2:
                    val = -val
        key = (out_sigmas.index(tuple(pos[a] for a in sigma)), tuple(new_exp))
        add_term(out, key, val)
    return out


def transform_vec(vec, n, k, axis_map, signs):
    """Push a k-form vector through a signed axis permutation.

    `axis_map[a]` is the image axis of a, `signs[a]` in {-1, +1} the
    reflection sign, i.e. the map sends x_a to signs[a] * x_{axis_map[a]}.
    """
    sigmas = form_components(n, k)
    out = {}
    for (ci, exp), c in vec.items():
        sigma = sigmas[ci]
        new_sigma_raw = [axis_map[a] for a in sigma]
        parity = 1
        arr = list(new_sigma_raw)
        for i in range(len(arr)):  # bubble parity of the sorting permutation
            for j in range(len(arr) - 1 - i):
                if arr[j] > arr[j + 1]:
                    arr[j], arr[j + 1] = arr[j + 1], arr[j]
                    parity = -parity
        coeff = c * parity
        for a in sigma:
            coeff *= signs[a]
        new_exp = [0] * n
        for a, p in enumerate(exp):
            new_exp[axis_map[a]] = p
            if signs[a] == -1 and p % 2:
                coeff = -coeff
        key = (sigmas.index(tuple(arr)), tuple(new_exp))
        add_term(out, key, coeff)
    return out


def entity_transform(src: Entity, dst: Entity):
    """Signed axis permutation carrying one entity onto another of its type.

    Tangential axes are matched in ascending order (no reflection), fixed
    axes in ascending order with the reflection sign needed to match the
    fixed values.
    """
    if src.dim != dst.dim:
        raise ValueError("entities of different dimension")
    n = len(src.axes) + len(src.fixed)
    axis_map = [None] * n
    signs = [1] * n
    for a_src, a_dst in zip(src.axes, dst.axes):
        axis_map[a_src] = a_dst
    for (a_src, v_src), (a_dst, v_dst) in zip(src.fixed, dst.fixed):
        axis_map[a_src] = a_dst
        signs[a_src] = v_src * v_dst
    return axis_map, signs


# ---------------------------------------------------------------------------
# generator spaces: P_r, H_{d,l}, J_r and the serendipity sums
# ---------------------------------------------------------------------------

def _linear_degree(exp, sigma):
    """Number of variables appearing linearly and not among the form axes."""
    return sum(1 for a, p in enumerate(exp) if p == 1 and a not in sigma)


def _h_space(n, k, degree, min_ldeg):
    """Monomial k-forms of exact polynomial degree with linear degree >= l."""
    sigmas = form_components(n, k)
    out = []
    for exp in monomial_exponents(n, degree):
        for ci, sigma in enumerate(sigmas):
            if _linear_degree(exp, sigma) >= min_ldeg:
                out.append(PolyForm(n, k, {(ci, exp): 1}))
    return out


def _j_space(n, k, r):
    """J_r Lambda^k: Koszul images of high-linear-degree (k+1)-form spaces."""
    if k + 1 > n or r < 1:
        return []
    out = []
    max_l = n - (k + 1)
    for l in range(1, max_l + 1):
        out += [koszul(f) for f in _h_space(n, k + 1, r + l - 1, l)]
    return out


def serendipity_gens(n, k, r):
    """Generators of the (non-trimmed) cubical serendipity k-form space."""
    if r < 0:
        return []
    gens = [f for d in range(r + 1) for f in _h_space(n, k, d, 0)]
    gens += _j_space(n, k, r)
    if k >= 1:
        gens += [exterior_derivative(f) for f in _j_space(n, k - 1, r + 1)]
    return gens


def trimmed_serendipity_gens(n, k, r):
    """Generators of the trimmed serendipity k-form space of order r."""
    if r < 1:
        raise ValueError("order must be >= 1")
    gens = serendipity_gens(n, k, r - 1)
    if k + 1 <= n:
        gens += [koszul(f) for f in _h_space(n, k + 1, r - 1, 0)]
    gens += _j_space(n, k, r)
    if k >= 1:
        gens += [exterior_derivative(f) for f in _j_space(n, k - 1, r)]
    return gens


@lru_cache(maxsize=None)
def trimmed_space(n, k, r):
    """Reduced echelon basis of the trimmed serendipity space."""
    span = SpanBasis(key_order=_key_order)
    for g in trimmed_serendipity_gens(n, k, r):
        span.add(g.coeffs)
    return span


def superlinear_degree(exp):
    """Degree ignoring variables that enter linearly."""
    return sum(p for p in exp if p >= 2)


def superlinear_monomials(n, r):
    """Exponent tuples of superlinear degree <= r (scalar serendipity)."""
    # each exponent is either 1 (linear) or contributes itself, so no
    # exponent can exceed max(r, 1)
    cap = max(r, 1)
    out = []
    for exp in product(range(cap + 1), repeat=n):
        if superlinear_degree(exp) <= r:
            out.append(exp)
    return sorted(out, key=lambda e: (sum(e), e))


# ---------------------------------------------------------------------------
# explicit entity bases: one product rule for both families
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bubble(j):
    """(1 - x^2) P_j(x) as exact (power, coefficient) pairs."""
    out = dict(legendre(j))
    for p, c in legendre(j):
        out[p + 2] = out.get(p + 2, QZERO) - c
    return tuple(out.items())


def _entity_forms(n, k, entity: Entity, sigma, axes, indices, hat):
    """Explicit k-forms f dx_sigma on one entity, one per index tuple.

    For an index tuple i (one index per axis in `axes`, in that order), f
    is the product of P_i(x_a) over the axes a in sigma and of the bubble
    (1 - x_a^2) P_i(x_a) over the other axes, times hat * (1 + s x_a) for
    each axis a that the entity fixes at side s.  Every axis carries one
    1D factor, so f is built axis by axis from their nonzero coefficients.
    """
    ci = form_components(n, k).index(sigma)
    hats = [(a, ((0, hat), (1, s * hat))) for a, s in entity.fixed]
    out = []
    for idx in indices:
        factors = [(a, legendre(i) if a in sigma else _bubble(i)) for a, i in zip(axes, idx)]
        f = {(0,) * n: Q(1)}
        for a, factor in factors + hats:
            f = {exp[:a] + (p,) + exp[a + 1:]: c * c1
                 for exp, c in f.items() for p, c1 in factor}
        out.append(PolyForm(n, k, {(ci, exp): c for exp, c in f.items()}))
    return out


def _tensor_entity(n, k, r, entity: Entity):
    """Entity basis of Q^-_r Lambda^k: box products for each tangent dx_sigma.

    Indices run below r on the axes of sigma and below r - 1 on the other
    tangential axes, in axis order, except that a 3D cell lists the axes
    of sigma first.
    """
    out = []
    for sigma in form_components(n, k):
        if not set(sigma) <= set(entity.axes):
            continue
        axes = entity.axes
        if entity.dim == 3:
            axes = sigma + tuple(a for a in axes if a not in sigma)
        ranges = [range(r if a in sigma else r - 1) for a in axes]
        out += _entity_forms(n, k, entity, sigma, axes, product(*ranges), Q(1, 2))
    return out


# ---------------------------------------------------------------------------
# generic entity split for the trimmed family
# ---------------------------------------------------------------------------

def _combine(coeffs, vecs, start=None):
    """start + sum of coeffs[i] * vecs[i] over a sparse coefficient dict, in its order."""
    v = start or {}
    for i, c in coeffs.items():
        v = vec_add(v, vecs[i], c)
    return v


def _trace_rows(traces):
    """Sparse rows {i: coefficient}, one per trace key, of vectors' traces."""
    rows = {}
    for i, t in enumerate(traces):
        for key, c in t.items():
            rows.setdefault(key, {})[i] = c
    return rows


def _entity_split_generic(n, k, r, entity: Entity, space: SpanBasis, topo):
    """Basis functions associated to one entity, from the exact span.

    Finds the subspace of the element space whose k-form trace vanishes on
    every other entity of dimension <= dim(entity), computes a canonical
    orthogonal basis of its trace space on the entity, and lifts each trace
    back, orthogonally to the fully-vanishing subspace.
    """
    basis_vecs = space.echelon_rows()
    others = [e for dd in range(k, entity.dim + 1) for e in topo.entities[dd] if e != entity]
    other_traces = [{(e, key): c for e in others for key, c in trace_vec(bv, n, k, e).items()}
                    for bv in basis_vecs]
    kernel = rational_kernel(list(_trace_rows(other_traces).values()), len(basis_vecs))
    s_vecs = [_combine(coeffs, basis_vecs) for coeffs in kernel]
    if not s_vecs:
        return []

    # traces on the entity itself
    traces = [trace_vec(v, n, k, entity) for v in s_vecs]
    tspan = SpanBasis(key_order=_key_order)
    for t in traces:
        tspan.add(t)
    if tspan.dim == 0:
        return []
    # canonical orthogonal trace basis: echelon rows, then Gram-Schmidt
    # under the exact L2 inner product of the entity cube
    echelon = tspan.echelon_rows()
    ortho = []
    for t in echelon:
        v = dict(t)
        for o in ortho:
            num = vec_l2(v, o)
            if num != 0:
                v = vec_add(v, o, -num / vec_l2(o, o))
        ortho.append(v)
    ortho = [vec_content_normalize(o) for o in ortho]

    # lift every canonical trace in one solve, then remove the component
    # in the fully-vanishing subspace (L2-orthogonal lift)
    trace_rows = _trace_rows(traces)
    index = {key: i for i, key in enumerate(trace_rows)}
    rows = list(trace_rows.values())
    z_vecs = [_combine(coeffs, s_vecs) for coeffs in rational_kernel(rows, len(s_vecs))]
    alphas = rational_solve(rows, [{index[key]: c for key, c in tau.items()} for tau in ortho])
    if None in alphas:
        raise RuntimeError("entity trace not reachable; split failed")
    lifts = [_combine(alpha, s_vecs) for alpha in alphas]
    if z_vecs:
        zgram = [{j: vec_l2(a, b) for j, b in enumerate(z_vecs)} for a in z_vecs]
        betas = gram_solve(zgram, [{j: vec_l2(v0, z) for j, z in enumerate(z_vecs)}
                                   for v0 in lifts])
        lifts = [_combine({j: -b for j, b in beta.items()}, z_vecs, v0)
                 for beta, v0 in zip(betas, lifts)]
    return [PolyForm(n, k, vec_content_normalize(v0)) for v0 in lifts]


def _check_entity_traces(forms, n, k, entity, topo):
    """Assert the defining trace property of entity-associated functions."""
    d = entity.dim
    for f in forms:
        for dd in range(k, d + 1):
            for e in topo.entities[dd]:
                if e == entity:
                    continue
                if trace_vec(f.coeffs, n, k, e):
                    raise RuntimeError(
                        f"basis function for {entity} has a nonzero trace on {e}"
                    )


def _trimmed_entity_sets(n, k, r):
    """Entity -> basis functions for the trimmed serendipity element.

    0-forms, top forms and the k-forms on k-dimensional entities are
    explicit products with graded index sets; the other sets are split
    from the exact span.
    """
    topo = cell_topology(n)
    if k == 0:  # each bubble factor spends degree 2 of the superlinear r
        return {e: _entity_forms(n, 0, e, (), e.axes,
                                 monomials_up_to(e.dim, r - 2 * e.dim), Q(1, 2))
                for e in topo.all_entities()}
    if k == n:
        cell = topo.entities[n][0]
        return {cell: _entity_forms(n, n, cell, cell.axes, cell.axes,
                                    monomials_up_to(n, r - 1), 1)}

    space = trimmed_space(n, k, r)
    sets = {}
    for d in range(k, n + 1):
        ents = topo.entities[d]
        if d == k:
            for e in ents:
                forms = _entity_forms(n, k, e, e.axes, e.axes,
                                      monomials_up_to(d, r - 1), 1)
                for f in forms:
                    if not space.contains(f.coeffs):
                        raise RuntimeError(f"explicit basis for {e} not in the span")
                _check_entity_traces(forms, n, k, e, topo)
                sets[e] = forms
        else:
            # split one representative exactly, transport to the others
            rep = ents[0]
            rep_forms = _entity_split_generic(n, k, r, rep, space, topo)
            sets[rep] = rep_forms
            for e in ents[1:]:
                axis_map, signs = entity_transform(rep, e)
                sets[e] = [PolyForm(n, k, transform_vec(f.coeffs, n, k, axis_map, signs))
                           for f in rep_forms]
    return sets


# ---------------------------------------------------------------------------
# element container
# ---------------------------------------------------------------------------

class Element:
    """A reference finite element with an entity-associated basis.

    The basis is ordered entity-major (vertices, edges, faces, interior;
    entities in :class:`CellTopology` order).  `mapping` selects the
    push-forward rule used at assembly time; it does not affect the
    reference basis itself.
    """

    def __init__(self, family, n, k, r, basis, layout, mapping):
        self.family = family
        self.n = n
        self.k = k
        self.r = r
        self.basis = tuple(basis)
        self.layout = tuple(layout)  # (Entity, start, stop) triples
        self.mapping = mapping
        self._tables = {}

    @property
    def dim(self):
        return len(self.basis)

    @property
    def ncomp(self):
        return len(form_components(self.n, self.k))

    def entity_range(self, entity):
        for e, start, stop in self.layout:
            if e == entity:
                return start, stop
        raise KeyError(entity)

    def __repr__(self):
        fam = "S^-" if self.family == TRIMMED_SERENDIPITY else "Q^-"
        return f"<Element {fam}_{self.r} Lambda^{self.k}(cube_{self.n}), dim {self.dim}>"

    # -- tabulation -------------------------------------------------------

    def _table(self, derivative):
        """The :func:`monomial_table` of the basis forms, or of their d."""
        if derivative not in self._tables:
            forms = self.basis
            if derivative:
                forms = [exterior_derivative(f) for f in forms]
            self._tables[derivative] = monomial_table(forms)
        return self._tables[derivative]


def tabulate(element: Element, points, derivative=False) -> np.ndarray:
    """Evaluate all basis forms, or their exterior derivatives, at points.

    Returns `table[p, b, c]`: the c-th component (in `form_components`
    order) of basis form b at reference point p, or of d(basis form b) when
    `derivative` is set.  Scalar-valued forms have one component.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[None, :]
    if points.shape[1] != element.n:
        raise ValueError("points have the wrong spatial dimension")
    if np.any(np.abs(points) > 1 + 1e-12):
        raise ValueError("points must lie in the reference cube [-1, 1]^n")
    return evaluate(element._table(derivative), points)


# ---------------------------------------------------------------------------
# element construction
# ---------------------------------------------------------------------------

def _fitting_mappings(n, k):
    """The push-forwards that fit k-forms in n dimensions, the default first.

    Only the 1-forms in 2D have a choice: they are (n-1)-forms too.
    """
    fits = {"h1": k == 0, "l2": k == n, "contravariant": k == n - 1, "covariant": k == 1}
    return [m for m, fit in fits.items() if fit]


@lru_cache(maxsize=None)
def _build_entity_sets(family, n, k, r):
    if family == TRIMMED_SERENDIPITY:
        return _trimmed_entity_sets(n, k, r)
    return {e: _tensor_entity(n, k, r, e) for e in cell_topology(n).all_entities()}


@lru_cache(maxsize=None)
def _build_element_cached(family, n, k, r, mapping):
    sets = _build_entity_sets(family, n, k, r)
    topo = cell_topology(n)
    basis = []
    layout = []
    for e in topo.all_entities():
        forms = sets.get(e, [])
        layout.append((e, len(basis), len(basis) + len(forms)))
        basis.extend(forms)
    # per-dimension counts must agree across entities of equal dimension
    for d in range(n + 1):
        counts = {len(sets.get(e, [])) for e in topo.entities[d]}
        if len(counts) > 1:
            raise RuntimeError(f"inconsistent dof counts on dimension-{d} entities")
    # global independence of the assembled basis
    span = SpanBasis(key_order=_key_order)
    for f in basis:
        if not span.add(f.coeffs):
            raise RuntimeError("assembled basis is linearly dependent")
    if family == TRIMMED_SERENDIPITY and 0 < k < n:
        expected = trimmed_space(n, k, r).dim
        if len(basis) != expected:
            raise RuntimeError(
                f"entity split produced {len(basis)} functions, "
                f"space has dimension {expected}"
            )
    return Element(family, n, k, r, basis, layout, mapping)


def build_element(family, n, k, r, mapping=None) -> Element:
    """Build a reference element.

    Parameters mirror the family notation: `family` is one of
    TrimmedSerendipity / TensorProduct, `n` the spatial dimension (2 or 3),
    `k` the form degree (0..n) and `r >= 1` the order.  `mapping` must
    fit the form degree: `h1` for k = 0, `covariant` for k = 1,
    `contravariant` for k = n - 1 and `l2` for k = n.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; use one of {_FAMILIES}")
    if n not in (2, 3):
        raise ValueError(f"unsupported dimension n={n}; only 2 and 3")
    if not (0 <= k <= n):
        raise ValueError(f"form degree k={k} out of range for n={n}")
    if not isinstance(r, Integral) or r < 1:
        raise ValueError(f"order r={r} must be an integer >= 1")
    r = int(r)
    fitting = _fitting_mappings(n, k)
    if mapping is None:
        mapping = fitting[0]
    if mapping not in fitting:
        raise ValueError(
            f"mapping {mapping!r} does not fit {k}-forms in {n}D; use {' or '.join(fitting)}"
        )
    return _build_element_cached(family, n, k, r, mapping)


def entity_dof_counts(element: Element):
    """Per-entity DOF count for each sub-entity dimension."""
    out = {}
    for e, start, stop in element.layout:
        d = e.dim
        count = stop - start
        if d in out and out[d] != count:
            raise RuntimeError("inconsistent per-entity counts")
        out.setdefault(d, count)
    return out


# ---------------------------------------------------------------------------
# exact discrete exterior derivative
# ---------------------------------------------------------------------------

def coboundary_fit(e_k: Element, e_k1: Element):
    """Exact coefficients of d(basis of e_k) in the basis of e_k1.

    Returns D (rows: dim e_k, columns: dim e_k1), an object array of
    Fractions with d(phi_i) = sum_j D[i, j] psi_j, and the residual 0.0;
    assembly takes `D.astype(float)`.  Raises ValueError if the psi_j are
    dependent or some d(phi_i) lies outside their span.
    """
    if e_k.k + 1 != e_k1.k:
        raise ValueError("form degrees are not consecutive")
    if (e_k.family, e_k.n, e_k.r) != (e_k1.family, e_k1.n, e_k1.r):
        raise ValueError("elements must share family, dimension and order")
    # eliminate the psi_j once, each tagged by the key (None, j); the tags
    # order last, so a row pivots on a tag only if some combination vanishes
    span = SpanBasis(key_order=lambda k: (1, k[1]) if k[0] is None else (0, _key_order(k)))
    for j, psi in enumerate(e_k1.basis):
        span.add({**psi.coeffs, (None, j): Q(1)})
    if any(p[0] is None for p in span.rows):
        raise ValueError("basis not linearly independent")
    D = np.full((e_k.dim, e_k1.dim), QZERO, dtype=object)
    for i, phi in enumerate(e_k.basis):
        # what reduction leaves of d(phi_i) is -D[i, j] on each tag (None, j)
        for (ci, j), c in span.reduce(exterior_derivative(phi).coeffs).items():
            if ci is not None:
                raise ValueError(f"d of basis form {i} of {e_k!r} leaves the span of {e_k1!r}")
            D[i, j] = -c
    return D, 0.0


# ---------------------------------------------------------------------------
# element names (CLI identifiers)
# ---------------------------------------------------------------------------

#: name -> (family, k as function of n, mapping, order shift)
_NAME_TABLE = {
    "Lagrange": (TENSOR_PRODUCT, lambda n: 0, "h1", 0),
    "S": (TRIMMED_SERENDIPITY, lambda n: 0, "h1", 0),
    "RTCE": (TENSOR_PRODUCT, lambda n: 1 if n == 2 else None, "covariant", 0),
    "RTCF": (TENSOR_PRODUCT, lambda n: 1 if n == 2 else None, "contravariant", 0),
    "NCE": (TENSOR_PRODUCT, lambda n: 1 if n == 3 else None, "covariant", 0),
    "NCF": (TENSOR_PRODUCT, lambda n: 2 if n == 3 else None, "contravariant", 0),
    "DQ": (TENSOR_PRODUCT, lambda n: n, "l2", 1),
    "SminusCurl": (TRIMMED_SERENDIPITY, lambda n: 1, "covariant", 0),
    "SminusDiv": (TRIMMED_SERENDIPITY, lambda n: n - 1, "contravariant", 0),
    "DPC": (TRIMMED_SERENDIPITY, lambda n: n, "l2", 1),
}


def element_names():
    return tuple(_NAME_TABLE)


def element_by_name(name, n, order) -> Element:
    """Build an element from its usage name (Lagrange, NCE, SminusDiv, ...).

    For the L2 elements DQ and DPC the usage order counts polynomial
    degree, one below the order of the family member they belong to.
    Returns the element `build_element` caches for those parameters.
    """
    if name not in _NAME_TABLE:
        raise ValueError(
            f"unknown element {name!r}; valid names: {', '.join(_NAME_TABLE)}"
        )
    family, kfun, mapping, shift = _NAME_TABLE[name]
    k = kfun(n)
    if k is None:
        raise ValueError(f"element {name!r} does not exist in {n}D")
    r = order + shift
    if r < 1:
        raise ValueError(f"order {order} too low for element {name!r}")
    return build_element(family, n, k, r, mapping=mapping)


def element_dump(element: Element) -> str:
    """Text report: every basis function, its entity and exact coefficients."""
    fam = "S^-" if element.family == TRIMMED_SERENDIPITY else "Q^-"
    lines = [
        f"{fam}_{element.r} Lambda^{element.k} on the {element.n}-cube, "
        f"dimension {element.dim}, mapping {element.mapping}",
    ]
    for e, start, stop in element.layout:
        if stop == start:
            continue
        lines.append(f"  {e!r}: {stop - start} function(s)")
        for i in range(start, stop):
            lines.append(f"    [{i}] {element.basis[i]!r}")
    return "\n".join(lines)

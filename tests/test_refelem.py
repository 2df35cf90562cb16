"""Reference elements: dimensions, entity association, traces, complexes."""

import hashlib
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from trimfem import refelem
from trimfem._exact import vec_add
from trimfem.poly import (
    PolyForm,
    evaluate,
    exterior_derivative,
    form_components,
    gauss_rule,
    monomial_table,
    monomials_up_to,
)
from trimfem.refelem import (
    TENSOR_PRODUCT,
    TRIMMED_SERENDIPITY,
    Element,
    Entity,
    build_element,
    cell_topology,
    coboundary_fit,
    element_by_name,
    element_dump,
    element_names,
    entity_dof_counts,
    family_label,
    superlinear_monomials,
    tabulate,
    trace_vec,
)

KNOWN_DIMS = {  # dim S^-_r Lambda^k (cube_3) for r = 1..3, k = 0..3
    1: [8, 12, 6, 1],
    2: [20, 36, 21, 4],
    3: [32, 66, 45, 10],
}


@pytest.mark.parametrize("r", [1, 2, 3])
def test_low_order_dimensions(r):
    dims = [build_element(TRIMMED_SERENDIPITY, 3, k, r).dim for k in range(4)]
    assert dims == KNOWN_DIMS[r]


def test_cell_topology_counts():
    def counts(n):
        return {d: len(ents) for d, ents in cell_topology(n).entities.items()}

    assert counts(3) == {0: 8, 1: 12, 2: 6, 3: 1}
    assert counts(2) == {0: 4, 1: 4, 2: 1}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cell_topology_follows_form_components(n):
    # the dimension-d entities list their tangential axes in the order of
    # the d-form components; 3D faces are therefore grouped by normal axis
    topo = cell_topology(n)
    for d in range(n + 1):
        axes = [e.axes for e in topo.entities[d]]
        per_type = 2 ** (n - d)
        assert axes[::per_type] == list(form_components(n, d))
    assert [e.fixed for e in cell_topology(3).entities[2]] == [
        ((a, s),) for a in range(3) for s in (-1, 1)]


def test_build_element_accepts_numpy_integer_order():
    e = build_element(TRIMMED_SERENDIPITY, 2, 1, np.int64(2))
    assert e is build_element(TRIMMED_SERENDIPITY, 2, 1, 2)
    assert type(e.r) is int


@pytest.mark.parametrize("order", [True, np.True_], ids=["bool", "numpy-bool"])
def test_a_bool_is_not_an_order(order):
    # a bool is an Integral, and True + 0 an integer: each built order 1
    with pytest.raises(ValueError, match=re.escape(f"order r={order} must be an integer")):
        build_element(TRIMMED_SERENDIPITY, 2, 0, order)
    for name in ("S", "DPC"):
        with pytest.raises(ValueError, match=re.escape(
                f"order {order} of element {name!r} must be an integer")):
            element_by_name(name, 2, order)


def test_short_family_spellings_build_the_full_names_element():
    for short, full, label in (("S", TRIMMED_SERENDIPITY, "S^-"), ("Q", TENSOR_PRODUCT, "Q^-")):
        e = build_element(short, 2, 1, 2)
        assert e is build_element(full, 2, 1, 2)
        assert e.family == full
        assert family_label(short) == family_label(full) == label
        assert repr(e) == f"<Element {label}_2 Lambda^1(cube_2), dim {e.dim}>"
    with pytest.raises(ValueError, match="use one of TrimmedSerendipity, TensorProduct, S, Q$"):
        build_element("s", 2, 1, 2)


def test_entities_sort_their_fixed_planes_and_compare_by_value():
    e = Entity((0,), [(2, 1), (1, 1)])
    assert e == Entity(axes=(0,), fixed=((1, 1), (2, 1)))
    assert e.fixed == ((1, 1), (2, 1)) and e.dim == 1
    assert hash(e) == hash(Entity((0,), ((1, 1), (2, 1))))
    assert e != Entity((0,), ((1, -1), (2, 1)))
    assert repr(e) == "<1-entity {y=+1, z=+1}>"
    assert repr(Entity((0, 1, 2), ())) == "<cell>"


def test_one_entity_count_rule_in_the_builder_and_the_report(monkeypatch):
    e = build_element(TENSOR_PRODUCT, 2, 1, 2)
    (e0, a0, b0), (e1, _, b1) = e.layout[4:6]  # the first two edges
    uneven = list(e.layout)
    uneven[4:6] = [(e0, a0, b0 - 1), (e1, b0 - 1, b1)]
    with pytest.raises(RuntimeError, match="inconsistent dof counts on dimension-1 entities"):
        entity_dof_counts(Element(e.family, 2, 1, 2, e.basis, uneven, e.mapping))

    sets = {ent: e.basis[a:b] for ent, a, b in e.layout}
    sets[e0] = sets[e0][:-1]
    monkeypatch.setattr(refelem, "_build_entity_sets", lambda *args: sets)
    with pytest.raises(RuntimeError, match="inconsistent dof counts on dimension-1 entities"):
        refelem._build_element_cached.__wrapped__(TENSOR_PRODUCT, 2, 1, 2, "covariant")


def test_build_element_examples():
    e = build_element(TRIMMED_SERENDIPITY, 3, 1, 2)
    assert e.dim == 36
    assert entity_dof_counts(e) == {0: 0, 1: 2, 2: 2, 3: 0}

    e = build_element(TRIMMED_SERENDIPITY, 3, 2, 2)
    assert e.dim == 21
    assert entity_dof_counts(e)[3] == 3  # (r^3 - 2r^2 + 3r)/2 at r=2

    e = build_element(TRIMMED_SERENDIPITY, 3, 0, 1)
    assert e.dim == 8
    assert entity_dof_counts(e) == {0: 1, 1: 0, 2: 0, 3: 0}

    e = build_element(TRIMMED_SERENDIPITY, 3, 3, 2)
    assert e.dim == 4
    assert entity_dof_counts(e) == {0: 0, 1: 0, 2: 0, 3: 4}

    e = build_element(TENSOR_PRODUCT, 3, 1, 2)
    assert e.dim == 54  # 3 r (r+1)^2


def test_entity_dof_count_examples():
    e = build_element(TRIMMED_SERENDIPITY, 3, 1, 3)
    assert e.dim == 66
    assert entity_dof_counts(e) == {0: 0, 1: 3, 2: 5, 3: 0}

    e = build_element(TRIMMED_SERENDIPITY, 3, 2, 3)
    assert e.dim == 45
    counts = entity_dof_counts(e)
    assert counts[2] == math.comb(4, 2) and counts[3] == 9

    e = build_element(TRIMMED_SERENDIPITY, 3, 2, 1)
    assert e.dim == 6
    assert entity_dof_counts(e) == {0: 0, 1: 0, 2: 1, 3: 0}


@pytest.mark.parametrize("r", range(1, 7))
def test_one_forms_carry_r_dofs_per_edge(r):
    e = build_element(TRIMMED_SERENDIPITY, 3, 1, r)
    assert entity_dof_counts(e)[1] == r


@pytest.mark.parametrize("r", range(2, 7))
def test_two_form_face_and_interior_formulas(r):
    e = build_element(TRIMMED_SERENDIPITY, 3, 2, r)
    counts = entity_dof_counts(e)
    assert counts[2] == math.comb(r + 1, 2)
    assert counts[3] == (r**3 - 2 * r**2 + 3 * r) // 2


@pytest.mark.parametrize("r", range(1, 7))
def test_scalar_dim_equals_superlinear_count(r):
    e = build_element(TRIMMED_SERENDIPITY, 3, 0, r)
    assert e.dim == len(superlinear_monomials(3, r))
    e2 = build_element(TRIMMED_SERENDIPITY, 2, 0, r)
    assert e2.dim == len(superlinear_monomials(2, r))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("r", range(1, 7))
def test_top_form_dim_is_full_polynomial_space(n, r):
    e = build_element(TRIMMED_SERENDIPITY, n, n, r)
    assert e.dim == math.comb(r - 1 + n, n)


def test_build_element_rejects_bad_input():
    with pytest.raises(ValueError, match="family"):
        build_element("Simplicial", 3, 0, 1)
    with pytest.raises(ValueError, match="dimension"):
        build_element(TRIMMED_SERENDIPITY, 1, 0, 1)
    with pytest.raises(ValueError, match="form degree"):
        build_element(TRIMMED_SERENDIPITY, 2, 3, 1)
    with pytest.raises(ValueError, match="order"):
        build_element(TRIMMED_SERENDIPITY, 3, 1, 0)
    # a mapping must fit the form degree; only 2D 1-forms have a choice
    for n, k, mapping in [(3, 0, "l2"), (3, 1, "contravariant"), (2, 0, "covariant"),
                          (3, 2, "covariant"), (2, 2, "contravariant"), (3, 3, "h1"),
                          (3, 1, "piola")]:
        with pytest.raises(ValueError, match="does not fit"):
            build_element(TRIMMED_SERENDIPITY, n, k, 1, mapping=mapping)


# ---------------------------------------------------------------------------
# trace association
# ---------------------------------------------------------------------------

def _entity_points(entity, n, count=20, seed=11):
    """Random points on a sub-entity of the reference cube."""
    rng = np.random.default_rng(seed + entity.dim)
    pts = np.zeros((count, n))
    for a, v in entity.fixed:
        pts[:, a] = v
    for a in entity.axes:
        pts[:, a] = rng.uniform(-1, 1, size=count)
    return pts


def _trace_values(element, entity, pts):
    """k-form trace components at points of an entity, per basis function."""
    n, k = element.n, element.k
    tab = tabulate(element, pts)

    sigmas = form_components(n, k)
    keep = [i for i, s in enumerate(sigmas) if set(s) <= set(entity.axes)]
    if k == 0:
        keep = [0]
    return tab[:, :, keep]


@pytest.mark.parametrize("family", [TRIMMED_SERENDIPITY, TENSOR_PRODUCT])
@pytest.mark.parametrize("n,k,r", [
    (2, 0, 3), (2, 1, 3), (3, 0, 2), (3, 1, 2), (3, 1, 3), (3, 2, 2), (3, 2, 3),
])
def test_trace_association_by_sampling(family, n, k, r):
    element = build_element(family, n, k, r)
    topo = cell_topology(n)
    for e_own, start, stop in element.layout:
        if stop == start:
            continue
        for d in range(k, e_own.dim + 1):
            for other in topo.entities[d]:
                if other == e_own or other.dim < k:
                    continue
                pts = _entity_points(other, n)
                vals = _trace_values(element, other, pts)
                assert np.max(np.abs(vals[:, start:stop, :])) <= 1e-12, (
                    f"{family} n={n} k={k} r={r}: functions of {e_own} "
                    f"do not vanish on {other}"
                )


def test_trace_association_exact_for_trimmed():
    element = build_element(TRIMMED_SERENDIPITY, 3, 1, 4)
    topo = cell_topology(3)
    for e_own, start, stop in element.layout:
        for i in range(start, stop):
            vec = element.basis[i].coeffs
            for d in range(1, e_own.dim + 1):
                for other in topo.entities[d]:
                    if other != e_own:
                        assert not trace_vec(vec, 3, 1, other)


def _clear_element_caches():
    for cache in (refelem._build_element_cached, refelem._build_entity_sets,
                  refelem.trimmed_space):
        cache.cache_clear()


def test_each_split_entity_solves_its_trace_system_once(monkeypatch):
    """A cold build lifts all traces of a split entity in one solve, which
    also gives the fully-vanishing subspace, so the only kernel per split
    entity is that of its other-entity traces."""
    _clear_element_caches()
    solve, kernel = refelem.rational_solve, refelem.rational_kernel
    rhs_counts, kernels = [], []

    def counted(rows, rhs, ncols):
        rhs_counts.append(len(rhs))
        return solve(rows, rhs, ncols)

    def counted_kernel(*args):
        kernels.append(args)
        return kernel(*args)

    monkeypatch.setattr(refelem, "rational_solve", counted)
    monkeypatch.setattr(refelem, "rational_kernel", counted_kernel)
    element = build_element(TRIMMED_SERENDIPITY, 3, 1, 3)
    # one representative face and the cell are split; those with DOFs solve
    counts = entity_dof_counts(element)
    split = [counts[d] for d in (2, 3) if counts[d]]
    assert max(split) > 1
    assert rhs_counts == split
    # one kernel per split entity, whether or not it has DOFs
    assert len(kernels) == 2


# ---------------------------------------------------------------------------
# linear independence / conditioning
# ---------------------------------------------------------------------------

def _weighted_values(element, rule):
    """Basis values as a (points * components, basis) matrix, with the
    quadrature weights repeated per component."""
    tab = tabulate(element, rule.points)
    phi = tab.transpose(0, 2, 1).reshape(-1, element.dim)
    return phi, np.repeat(rule.weights, element.ncomp)


def _gram(element):
    phi, w = _weighted_values(element, gauss_rule(element.n, element.r + 2))
    return phi.T @ (w[:, None] * phi)


@pytest.mark.parametrize("family", [TRIMMED_SERENDIPITY, TENSOR_PRODUCT])
@pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3)])
@pytest.mark.parametrize("r", [1, 2, 4, 6])
def test_gram_matrix_has_full_rank(family, n, k, r):
    element = build_element(family, n, k, r)
    sv = np.linalg.svd(_gram(element), compute_uv=False)
    assert sv.min() > 1e-10


# ---------------------------------------------------------------------------
# polynomial inclusion
# ---------------------------------------------------------------------------

def _projection_residual(element, form):
    """L2 distance from a k-form to the element span, via quadrature."""
    n = element.n
    deg = max((sum(exp) for _, exp in form.coeffs), default=0)
    m = max(element.r + 2, (deg + element.r + 3) // 2 + 1)
    rule = gauss_rule(n, m)
    phi, w = _weighted_values(element, rule)
    gvals = evaluate(monomial_table([form]), rule.points).ravel()
    coeff = np.linalg.solve(phi.T @ (w[:, None] * phi), phi.T @ (w * gvals))
    resid = gvals - phi @ coeff
    res_sq = float(w @ resid**2)
    return math.sqrt(max(res_sq, 0.0))


@pytest.mark.parametrize("family", [TRIMMED_SERENDIPITY, TENSOR_PRODUCT])
@pytest.mark.parametrize("n,k,r", [
    (2, 0, 2), (2, 1, 2), (2, 2, 3), (3, 0, 2), (3, 1, 2), (3, 2, 2), (3, 3, 2),
    (2, 1, 3), (3, 1, 3),
])
def test_full_polynomial_forms_are_reproduced(family, n, k, r):
    rng = np.random.default_rng(5)
    element = build_element(family, n, k, r)
    exps = monomials_up_to(n, r - 1)
    for _ in range(3):
        form = PolyForm(n, k, {(ci, e): int(rng.integers(-3, 4))
                               for ci in range(element.ncomp) for e in exps})
        assert _projection_residual(element, form) <= 1e-10


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_scalar_superlinear_monomials_are_reproduced(r):
    element = build_element(TRIMMED_SERENDIPITY, 3, 0, r)
    for exp in superlinear_monomials(3, r):
        form = PolyForm(3, 0, {(0, exp): 1})
        assert _projection_residual(element, form) <= 1e-10


# ---------------------------------------------------------------------------
# tabulation
# ---------------------------------------------------------------------------

def test_tabulate_edge_function_values():
    # the first basis function of the edge {y=1, z=1} is (y+1)(z+1) dx
    from trimfem.refelem import Entity

    e = build_element(TRIMMED_SERENDIPITY, 3, 1, 2)
    edge = Entity((0,), ((1, 1), (2, 1)))
    ((start, stop),) = [(start, stop) for ent, start, stop in e.layout if ent == edge]
    assert stop - start == 2
    tab = tabulate(e, [[0.0, 0.0, 0.0]])
    assert tab[0, start] == pytest.approx([1.0, 0.0, 0.0], abs=1e-14)
    # vanishing on the plane y = -1
    rng = np.random.default_rng(1)
    pts = np.column_stack([rng.uniform(-1, 1, 10), np.full(10, -1.0), rng.uniform(-1, 1, 10)])
    tab = tabulate(e, pts)
    assert np.max(np.abs(tab[:, start:stop, :])) <= 1e-14


def test_lowest_order_vertex_functions_sum_to_one():
    e = build_element(TRIMMED_SERENDIPITY, 3, 0, 1)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, size=(15, 3))
    tab = tabulate(e, pts)
    assert np.sum(tab[:, :, 0], axis=1) == pytest.approx(np.ones(15), abs=1e-13)


def _exact_values(element, point):
    """Basis values at a float point, summed exactly in rationals."""
    xs = [Fraction(float(x)) for x in point]
    monomials = {}

    def values(form):
        totals = [Fraction(0)] * element.ncomp
        for (ci, exp), c in form.coeffs.items():
            if exp not in monomials:
                monomials[exp] = math.prod(x**p for x, p in zip(xs, exp))
            totals[ci] += c * monomials[exp]
        return [float(t) for t in totals]

    return np.array([values(f) for f in element.basis])


@pytest.mark.parametrize("family", [TRIMMED_SERENDIPITY, TENSOR_PRODUCT])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_high_order_tabulation_matches_exact_evaluation(family, k):
    e = build_element(family, 3, k, 6)
    pts = np.random.default_rng(k).uniform(-1, 1, size=(3, 3))
    exact = np.stack([_exact_values(e, p) for p in pts])
    assert np.max(np.abs(tabulate(e, pts) - exact)) <= 1e-13 * np.max(np.abs(exact))


@pytest.mark.parametrize("family", [TRIMMED_SERENDIPITY, TENSOR_PRODUCT])
def test_derivative_tables_match_finite_differences(family):
    # d(basis) from central differences of the value table, each partial
    # derivative moved into its (k+1)-form component with the sign of
    # dx_axis ^ dx_sigma
    rng = np.random.default_rng(4)
    h = 1e-6
    for n in (2, 3):
        pts = rng.uniform(-0.9, 0.9, size=(5, n))
        for k in range(n):
            e = build_element(family, n, k, 2)
            sigmas, out_sigmas = form_components(n, k), form_components(n, k + 1)
            fd = np.zeros((len(pts), e.dim, len(out_sigmas)))
            for axis in range(n):
                step = h * np.eye(n)[axis]
                partial = (tabulate(e, pts + step) - tabulate(e, pts - step)) / (2 * h)
                for c, sigma in enumerate(sigmas):
                    if axis in sigma:
                        continue
                    merged = tuple(sorted(sigma + (axis,)))
                    sign = (-1) ** merged.index(axis)
                    fd[:, :, out_sigmas.index(merged)] += sign * partial[:, :, c]
            tab = tabulate(e, pts, derivative=True)
            assert np.max(np.abs(fd - tab)) <= 1e-5, (n, k)


def test_tabulate_rejects_outside_points():
    e = build_element(TRIMMED_SERENDIPITY, 2, 0, 1)
    with pytest.raises(ValueError, match="reference cube"):
        tabulate(e, [[1.5, 0.0]])


@pytest.mark.parametrize("shape", [(4, 2, 2), (4, 2, 1), (2,), (4, 3)])
def test_tabulate_takes_only_points_of_shape_p_by_n(shape):
    # (4, 2, 2) failed inside the evaluation with numpy's broadcast error,
    # (4, 2, 1) with an IndexError, and (2,) was taken as one point
    e = build_element(TRIMMED_SERENDIPITY, 2, 2, 2)
    with pytest.raises(ValueError, match=re.escape(f"points of shape {shape} are not (P, 2)")):
        tabulate(e, np.zeros(shape))


@pytest.mark.parametrize("k", [0, 2])
def test_transport_carries_only_1_forms(k):
    # the face x = -1 onto x = +1 reflects x: x dx + x dy -> x dx - x dy
    faces = cell_topology(3).entities[2]
    axis_map, signs = refelem.entity_transform(faces[0], faces[1])
    vec = {(0, (1, 0, 0)): Fraction(1), (1, (1, 0, 0)): Fraction(1)}
    assert refelem.transform_vec(vec, 3, 1, axis_map, signs) == {
        (0, (1, 0, 0)): 1, (1, (1, 0, 0)): -1}
    with pytest.raises(ValueError):
        refelem.transform_vec(vec, 3, k, axis_map, signs)


# ---------------------------------------------------------------------------
# exact coboundary matrices (discrete complex)
# ---------------------------------------------------------------------------

def _exact_coboundary(family, n, k, r):
    """coboundary_fit's D for the k -> k+1 pair, after asserting that
    d(phi_i) = sum_j D[i, j] psi_j holds exactly for every row and that
    the residual is exactly 0."""
    ek = build_element(family, n, k, r)
    ek1 = build_element(family, n, k + 1, r)
    D, residual = coboundary_fit(ek, ek1)
    assert D.shape == (ek.dim, ek1.dim)
    assert residual == 0.0
    for i, phi in enumerate(ek.basis):
        combo = {}
        for psi, c in zip(ek1.basis, D[i]):
            combo = vec_add(combo, psi.coeffs, c)
        assert exterior_derivative(phi) == PolyForm(n, k + 1, combo), \
            f"{family} n={n} k={k} r={r}: row {i}"
    return D


@pytest.mark.parametrize("family", [TRIMMED_SERENDIPITY, TENSOR_PRODUCT])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_coboundary_residuals_vanish(family, n, r):
    for k in range(n):
        _exact_coboundary(family, n, k, r)


def test_coboundaries_of_3d_trimmed_order_4_are_exact_and_compose_to_zero():
    # tier-1's other exactness checks stop at r = 3
    D = [_exact_coboundary(TRIMMED_SERENDIPITY, 3, k, 4) for k in range(3)]
    for Dk, Dk1 in zip(D, D[1:]):
        assert not (Dk @ Dk1).any()


def test_coboundary_fit_is_one_exact_solve(monkeypatch):
    e1 = build_element(TRIMMED_SERENDIPITY, 3, 1, 2)
    e2 = build_element(TRIMMED_SERENDIPITY, 3, 2, 2)
    solves, spans = [], []
    rational_solve = refelem.rational_solve

    def counting_solve(*args):
        solves.append(args)
        return rational_solve(*args)

    class CountingSpan(refelem.SpanBasis):
        def __init__(self, *args, **kwargs):
            spans.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(refelem, "rational_solve", counting_solve)
    monkeypatch.setattr(refelem, "SpanBasis", CountingSpan)
    D, _ = coboundary_fit(e1, e2)
    assert len(solves) == 1 and not spans
    assert D.shape == (e1.dim, e2.dim)


def test_coboundary_of_constant_combination_is_zero():
    e0 = build_element(TRIMMED_SERENDIPITY, 3, 0, 1)
    e1 = build_element(TRIMMED_SERENDIPITY, 3, 1, 1)
    D, _ = coboundary_fit(e0, e1)
    # the vertex functions sum to the constant 1; d(1) = 0
    assert all(s == 0 for s in D.sum(axis=0))


def test_coboundary_rejects_derivative_outside_target_span():
    e0 = build_element(TRIMMED_SERENDIPITY, 2, 0, 2)
    e1 = build_element(TRIMMED_SERENDIPITY, 2, 1, 2)
    short = Element(e1.family, e1.n, e1.k, e1.r, e1.basis[:-1], e1.layout, e1.mapping)
    with pytest.raises(ValueError, match="d of basis form .* leaves the span"):
        coboundary_fit(e0, short)


# SHA-256 of the exact coboundary matrices as text: for each family
# (trimmed serendipity first), n in {2, 3}, r in {1, 2} and k in 0..n-1,
# a header line "family n k r", then one line per row of D with its
# Fractions separated by spaces
GOLDEN_COBOUNDARY_SHA256 = "baca24c8fa39731af5527b5fa66755df7f7034c09000f7213a4bd113afa3648f"


def test_exact_coboundaries_match_golden_digest():
    lines = []
    for family in (TRIMMED_SERENDIPITY, TENSOR_PRODUCT):
        for n in (2, 3):
            for r in (1, 2):
                for k in range(n):
                    D, _ = coboundary_fit(build_element(family, n, k, r),
                                          build_element(family, n, k + 1, r))
                    lines.append(f"{family} {n} {k} {r}")
                    lines += [" ".join(map(str, row)) for row in D]
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_COBOUNDARY_SHA256


def test_coboundary_rejects_mismatched_elements():
    e0 = build_element(TRIMMED_SERENDIPITY, 3, 0, 2)
    e2 = build_element(TRIMMED_SERENDIPITY, 3, 2, 2)
    with pytest.raises(ValueError, match="consecutive"):
        coboundary_fit(e0, e2)
    eq = build_element(TENSOR_PRODUCT, 3, 1, 2)
    with pytest.raises(ValueError, match="family"):
        coboundary_fit(e0, eq)


def test_coboundary_detects_dependent_basis():
    e0 = build_element(TRIMMED_SERENDIPITY, 2, 0, 1)
    e1 = build_element(TRIMMED_SERENDIPITY, 2, 1, 1)
    dup = Element(
        e1.family, e1.n, e1.k, e1.r,
        e1.basis[:-1] + (e1.basis[0],), e1.layout, e1.mapping,
    )
    with pytest.raises(ValueError, match="not linearly independent"):
        coboundary_fit(e0, dup)


# ---------------------------------------------------------------------------
# element names
# ---------------------------------------------------------------------------

def test_element_names_follow_usage_table():
    assert element_by_name("Lagrange", 2, 2).dim == 9
    assert element_by_name("S", 2, 2).dim == 8
    assert element_by_name("NCE", 3, 2).dim == 54
    assert element_by_name("NCF", 3, 1).dim == 6
    assert element_by_name("SminusCurl", 3, 2).dim == 36
    assert element_by_name("SminusDiv", 3, 2).dim == 21
    # L2 elements: usage order is the polynomial degree (family order - 1)
    assert element_by_name("DPC", 2, 1).dim == 3
    assert element_by_name("DQ", 2, 1).dim == 4
    assert element_by_name("DPC", 3, 2).dim == 10


def test_element_by_name_rejects_an_order_below_the_family():
    with pytest.raises(ValueError, match=re.escape("order -1 too low for element 'DQ'")):
        element_by_name("DQ", 2, -1)


def test_element_by_name_returns_the_cached_element():
    assert element_by_name("NCE", 3, 2) is build_element(
        TENSOR_PRODUCT, 3, 1, 2, mapping="covariant")
    assert element_by_name("DQ", 2, 1) is build_element(TENSOR_PRODUCT, 2, 2, 2)
    assert element_by_name("DPC", 3, 2) is build_element(TRIMMED_SERENDIPITY, 3, 3, 3)


# SHA-256 of the concatenated element_dump text of every element with
# n in {2, 3}, k in 0..n and r in 1..4, trimmed serendipity first
GOLDEN_DUMP_SHA256 = "a5ed77274cf8ee70b10d16137d5818b9bb3aea06ea8ff9dfe494609e43db434e"


def test_exact_bases_match_golden_digest():
    """Every exact basis coefficient is byte-identical to the recorded dumps."""
    text = "".join(
        element_dump(build_element(family, n, k, r))
        for family in (TRIMMED_SERENDIPITY, TENSOR_PRODUCT)
        for n in (2, 3)
        for k in range(n + 1)
        for r in range(1, 5)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DUMP_SHA256


# SHA-256 of the concatenated element_dump text of the 3D elements whose
# exact eliminations are the largest that build in seconds: S^- for
# k in {1, 2} and r in {5, 6} (k, then r), then Q^- for k in {1, 2} at r = 5
GOLDEN_HIGH_ORDER_DUMP_SHA256 = (
    "121cfdd26edc88f59e93276c1eb570fd7a395724ba11f3c2b7d8d7bda8fa2cb0")


def test_high_order_exact_bases_match_golden_digest():
    """The r = 5, 6 bases are byte-identical to the recorded dumps."""
    cases = [(TRIMMED_SERENDIPITY, k, r) for k in (1, 2) for r in (5, 6)]
    cases += [(TENSOR_PRODUCT, k, 5) for k in (1, 2)]
    text = "".join(element_dump(build_element(f, 3, k, r)) for f, k, r in cases)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_HIGH_ORDER_DUMP_SHA256


def test_element_name_orientations():
    assert element_by_name("RTCE", 2, 2).mapping == "covariant"
    assert element_by_name("RTCF", 2, 2).mapping == "contravariant"
    assert element_by_name("SminusDiv", 2, 2).mapping == "contravariant"
    # same reference basis, rotated only at the assembly boundary
    a = element_by_name("SminusCurl", 2, 2)
    b = element_by_name("SminusDiv", 2, 2)
    assert a.basis == b.basis


def test_unknown_element_name_lists_valid_ones():
    with pytest.raises(ValueError) as err:
        element_by_name("Nedelec", 3, 1)
    for name in element_names():
        assert name in str(err.value)
    with pytest.raises(ValueError, match="does not exist"):
        element_by_name("RTCE", 3, 1)


def test_element_dump_mentions_exact_coefficients():
    lines = element_dump(build_element(TRIMMED_SERENDIPITY, 2, 1, 1)).splitlines()
    assert lines[0] == "S^-_1 Lambda^1 on the 2-cube, dimension 4, mapping contravariant"
    assert lines[1::2] == [
        f"  <1-entity {{{plane}}}>: 1 function(s)"
        for plane in ("y=-1", "y=+1", "x=-1", "x=+1")
    ]
    assert [line.strip() for line in lines[2::2]] == [
        "[0] (1 + -1*y)dx",
        "[1] (1 + 1*y)dx",
        "[2] (1 + -1*x)dy",
        "[3] (1 + 1*x)dy",
    ]

"""Exact rational linear algebra over sparse coefficient vectors.

Vectors are dicts mapping hashable keys to nonzero rationals: (component,
exponent-tuple) pairs of monomial forms in the reference element
construction, column indices in the matrix routines below.  One
eliminator, `SpanBasis`, keeps the reduced row echelon basis of a span;
kernels, particular solutions and Gram solves all read theirs from it.
No floating point enters, so unisolvence and trace tests hold at machine
precision.
"""

from .poly import Q, QZERO


def vec_add(a, b, scale=1):
    """a + scale * b for sparse dict vectors."""
    out = dict(a)
    scale = Q(scale)
    for k, v in b.items():
        s = out.get(k, QZERO) + scale * v
        if s == 0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def vec_scale(a, scale):
    scale = Q(scale)
    if scale == 0:
        return {}
    return {k: v * scale for k, v in a.items()}


def vec_content_normalize(a):
    """Scale so coefficients are integers with gcd 1; fixes an overall sign."""
    if not a:
        return a
    from math import gcd

    nums = [v.numerator for v in a.values()]
    dens = [v.denominator for v in a.values()]
    g = 0
    for x in nums:
        g = gcd(g, int(x))
    l = 1
    for x in dens:
        l = l * int(x) // gcd(l, int(x))
    scale = Q(l, g) if g else Q(1)
    out = {k: v * scale for k, v in a.items()}
    first = min(out)
    if out[first] < 0:
        out = {k: -v for k, v in out.items()}
    return out


class SpanBasis:
    """Reduced row echelon basis of the span of sparse vectors.

    Each row has coefficient 1 at its pivot, its least key under
    `key_order`, and no entry at any other row's pivot.  This basis is
    unique, so it depends on the span and the key order only, not on the
    order in which vectors were added.
    """

    def __init__(self, key_order=None):
        self.rows = {}  # pivot key -> reduced row (pivot coefficient 1)
        self.key_order = key_order or (lambda k: k)

    def reduce(self, vec):
        """Residual of vec after elimination against every row of the span."""
        # rows hold no other row's pivot, so one pass clears every pivot
        for p in [p for p in vec if p in self.rows]:
            vec = vec_add(vec, self.rows[p], -vec[p])
        return vec

    def add(self, vec):
        """Insert a vector; returns True if it enlarged the span."""
        residual = self.reduce(vec)
        if not residual:
            return False
        pivot = min(residual, key=self.key_order)
        residual = vec_scale(residual, Q(1) / residual[pivot])
        # back-substitute into existing rows to keep reduced form
        for p, row in list(self.rows.items()):
            c = row.get(pivot)
            if c:
                self.rows[p] = vec_add(row, residual, -c)
        self.rows[pivot] = residual
        return True

    def contains(self, vec):
        return not self.reduce(vec)

    @property
    def dim(self):
        return len(self.rows)

    def echelon_rows(self):
        """Rows ordered by pivot key (canonical reduced echelon basis)."""
        return [self.rows[p] for p in sorted(self.rows, key=self.key_order)]


def _row_span(rows):
    """SpanBasis of dense rational rows, keyed by column index."""
    span = SpanBasis()
    for row in rows:
        span.add({j: Q(v) for j, v in enumerate(row) if v})
    return span


def rational_kernel(rows, ncols):
    """Kernel basis of a dense rational matrix given as lists of length ncols.

    Returns one kernel vector per free column, in ascending column order,
    with that free variable set to 1 and the other free variables to 0.
    """
    pivots = _row_span(rows).rows
    kernel = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [QZERO] * ncols
        v[f] = Q(1)
        for pc, row in pivots.items():
            v[pc] = -row.get(f, QZERO)
        kernel.append(v)
    return kernel


def rational_solve(rows, rhs):
    """One particular solution of a consistent rational system, or None.

    `rows` is a list of dense rational rows, `rhs` the right-hand sides.
    Free variables are set to zero.
    """
    ncols = len(rows[0]) if rows else 0
    pivots = _row_span([*r, b] for r, b in zip(rows, rhs)).rows
    if ncols in pivots:
        return None  # a row reduces to 0 = 1
    x = [QZERO] * ncols
    for pc, row in pivots.items():
        x[pc] = row.get(ncols, QZERO)
    return x


def gram_solve(gram, rhs):
    """Solve a symmetric positive-definite rational system exactly.

    Raises ValueError unless the Gram matrix has full rank, also when the
    right-hand side happens to lie in its range.
    """
    n = len(gram)
    pivots = _row_span([*r, b] for r, b in zip(gram, rhs)).rows
    if sorted(pivots) != list(range(n)):
        raise ValueError("singular Gram matrix")
    return [pivots[i].get(n, QZERO) for i in range(n)]

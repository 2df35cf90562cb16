"""Exact rational linear algebra over sparse coefficient vectors.

Vectors are dicts mapping hashable keys (here: (component, exponent-tuple)
pairs of monomial forms) to nonzero rationals.  Used by the reference
element construction, where unisolvence and trace tests must hold at
machine precision and so the basis is assembled without floating point.
"""

from .poly import Q, QZERO


def vec_add(a, b, scale=1):
    """a + scale * b for sparse dict vectors."""
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, QZERO) + Q(scale) * v
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
    """Row-echelon span of sparse vectors with deterministic pivoting."""

    def __init__(self, key_order=None):
        self.rows = {}  # pivot key -> reduced row (pivot coefficient 1)
        self.key_order = key_order or (lambda k: k)

    def reduce(self, vec):
        """Residual of vec after elimination against the current span."""
        vec = dict(vec)
        while vec:
            pivot = min(vec, key=self.key_order)
            row = self.rows.get(pivot)
            if row is None:
                return vec, pivot
            vec = vec_add(vec, row, -vec[pivot])
        return vec, None

    def add(self, vec):
        """Insert a vector; returns True if it enlarged the span."""
        residual, pivot = self.reduce(vec)
        if pivot is None:
            return False
        residual = vec_scale(residual, 1 / residual[pivot])
        # back-substitute into existing rows to keep reduced form
        for p, row in list(self.rows.items()):
            c = row.get(pivot)
            if c:
                self.rows[p] = vec_add(row, residual, -c)
        self.rows[pivot] = residual
        return True

    def contains(self, vec):
        residual, _ = self.reduce(vec)
        return not residual

    @property
    def dim(self):
        return len(self.rows)

    def echelon_rows(self):
        """Rows ordered by pivot key (canonical reduced echelon basis)."""
        return [self.rows[p] for p in sorted(self.rows, key=self.key_order)]


def _rref(rows, ncols):
    """Reduced row echelon form over the first `ncols` columns of `rows`.

    Plain Gauss-Jordan elimination with exact rational division; the pivot
    of each column is its first nonzero entry at or below the current row.
    Returns the reduced matrix and its pivot columns, ascending; row i has
    its leading 1 in column pivots[i].
    """
    mat = [list(map(Q, r)) for r in rows]
    pivots = []
    for col in range(ncols):
        row_i = len(pivots)
        if row_i == len(mat):
            break
        sel = next((i for i in range(row_i, len(mat)) if mat[i][col] != 0), None)
        if sel is None:
            continue
        mat[row_i], mat[sel] = mat[sel], mat[row_i]
        piv = mat[row_i][col]
        mat[row_i] = [v / piv for v in mat[row_i]]
        for i in range(len(mat)):
            if i != row_i and mat[i][col] != 0:
                c = mat[i][col]
                mat[i] = [a - c * b for a, b in zip(mat[i], mat[row_i])]
        pivots.append(col)
    return mat, pivots


def rational_kernel(rows, ncols):
    """Kernel basis of a dense rational matrix given as lists of length ncols.

    Returns one kernel vector per free column, in ascending column order,
    with that free variable set to 1 and the other free variables to 0.
    """
    mat, pivots = _rref(rows, ncols)
    kernel = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [QZERO] * ncols
        v[f] = Q(1)
        for r, pc in enumerate(pivots):
            v[pc] = -mat[r][f]
        kernel.append(v)
    return kernel


def rational_solve(rows, rhs):
    """One particular solution of a consistent rational system, or None.

    `rows` is a list of dense rational rows, `rhs` the right-hand sides.
    Free variables are set to zero; deterministic pivoting by column order.
    """
    ncols = len(rows[0]) if rows else 0
    mat, pivots = _rref([list(r) + [b] for r, b in zip(rows, rhs)], ncols)
    if any(row[ncols] != 0 for row in mat[len(pivots):]):
        return None  # inconsistent
    x = [QZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = mat[r][ncols]
    return x


def gram_solve(gram, rhs):
    """Solve a symmetric positive-definite rational system exactly."""
    x = rational_solve(gram, rhs)
    if x is None:
        raise ValueError("singular Gram matrix")
    return x

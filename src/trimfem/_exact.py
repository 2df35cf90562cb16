"""Exact rational linear algebra over sparse coefficient vectors.

Vectors are dicts mapping hashable keys to nonzero rationals: (component,
exponent-tuple) pairs of monomial forms in the reference element
construction, column indices in the matrix routines below.  A matrix is
a list of such sparse rows, a right-hand side a sparse vector over row
indices.  One eliminator, `_eliminate` over a `SpanBasis` (the reduced
row echelon basis of a span), and one reader of its pivots,
`rational_solve`, give every kernel, particular solution and Gram solve,
the entity split's and the coboundary matrices' too, with every
right-hand side in one pass.  No floating point enters, so unisolvence
and trace tests hold at machine precision.
"""

import math

from .poly import Q, add_term


def vec_add(a, b, scale=1):
    """a + scale * b for sparse dict vectors."""
    out = dict(a)
    scale = Q(scale)
    for k, v in b.items():
        add_term(out, k, scale * v)
    return out


def vec_content_normalize(a):
    """Scale so coefficients are integers with gcd 1; fixes an overall sign."""
    if not a:
        return a
    g = math.gcd(*(int(v.numerator) for v in a.values()))
    scale = Q(math.lcm(*(int(v.denominator) for v in a.values())), g) if g else Q(1)
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
        scale = Q(1) / residual[pivot]
        residual = {k: v * scale for k, v in residual.items()}
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


def _eliminate(rows, rhs, ncols):
    """Pivot rows of [rows | rhs], right-hand side j in column ncols + j.

    `rows` are sparse {column: rational} rows, each right-hand side a
    sparse {row index: rational} vector.
    """
    aug = [{j: Q(v) for j, v in row.items() if v} for row in rows]
    for j, b in enumerate(rhs):
        for i in filter(b.get, b):  # the rows where b is nonzero
            aug[i][ncols + j] = Q(b[i])
    span = SpanBasis()
    for row in aug:
        span.add(row)
    return span.rows


def rational_kernel(rows, ncols):
    """Kernel basis of sparse rows over ncols columns (see `rational_solve`)."""
    return rational_solve(rows, (), ncols)[0]


def rational_solve(rows, rhs, ncols):
    """(kernel, solutions) of sparse rows over ncols columns, in one pass.

    The kernel holds one sparse vector per free column (a column no row
    touches is free), in ascending column order, with that variable 1 and
    the other free ones 0.  Right-hand sides are sparse and pivot after
    every matrix column, so they leave the kernel unchanged; each solution
    sets the free variables to 0, or is None where it is inconsistent.
    Every vector's keys ascend.
    """
    pivots = _eliminate(rows, rhs, ncols)
    kernel = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = {pc: -row[f] for pc, row in pivots.items() if f in row}
        v[f] = Q(1)
        kernel.append(dict(sorted(v.items())))
    # a pivot past ncols is a row 0 = b; every rhs with an entry there fails
    bad = {c for pc, row in pivots.items() if pc >= ncols for c in row}
    return kernel, [None if ncols + j in bad else
                    {pc: row[ncols + j] for pc, row in sorted(pivots.items())
                     if pc < ncols and ncols + j in row} for j in range(len(rhs))]


def gram_solve(gram, rhs):
    """Solve a symmetric positive-definite rational system exactly.

    `gram` is given as sparse rows, `rhs` as a list of sparse right-hand
    sides; returns one sparse solution per right-hand side.  Raises
    ValueError unless the Gram matrix has full rank, also when a
    right-hand side happens to lie in its range.
    """
    kernel, solutions = rational_solve(gram, rhs, len(gram))
    if kernel:
        raise ValueError("singular Gram matrix")
    return solutions

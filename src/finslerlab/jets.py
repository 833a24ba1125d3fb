"""Dense truncated multivariate Taylor ("jet") arithmetic.

A jet stores the Taylor coefficients f_alpha = (d^alpha f)(p) / alpha! of a
scalar function around an expansion point p, for every multi-index alpha with
|alpha| <= order, in a graded lexicographic layout.  Sums, products and the
elementary functions sqrt/exp/ln/pow act on jets exactly (to roundoff), so
any partial derivative up to the truncation order can be read off without
discretisation error.

Coefficients are Taylor-normalised (factorials divided out), which keeps the
truncated Cauchy product free of factorial bookkeeping; factorials reappear
only in :meth:`Jet.derivative` and :func:`extract_derivative`.  Unary
functions go through Horner evaluation of the univariate Taylor polynomial of
the outer function at the order-0 value.

A space may limit the joint degree of its first ``x_vars`` variables to
``x_degree`` (``jet_space(n_vars, order, x_vars, x_degree)``): it keeps the
multi-indices of the full graded-lex list that obey the limit, in the same
order, and the product terms among them, in the same order, so every
coefficient it keeps is bit-identical to the full space's.  Truncation rule:
no kept coefficient of a product, a unary function or a derivative depends
on a dropped one.  Derivative rule: a derivative along the limited
variables uses up x-degree, so d^gamma lands in the space whose limit is
lower by the x-part of gamma -- a derivative along x of an x-linear jet has
no x-linear coefficient, which could not be computed from what the jet
carries.  Jets of different limits do not mix (``ValueError``); callers
truncate explicitly with :meth:`Jet.truncated`.

Index work is done by gather tables, built once per :class:`JetSpace` with
numpy from one position map (the radix keys of the multi-indices): the
product table, which :meth:`JetSpace.multiply` and :func:`jet_einsum` reduce
with ``np.bincount``, and one table per derivative multi-index gamma, which
makes :meth:`Jet.derivative` one gather scaled by exact integer factors.
The tables list their terms in a fixed order, so every product and
derivative is bit-identical from run to run and to the per-multi-index
loops kept as references in the tests.

Jets are built by :meth:`JetSpace.constant` and :meth:`JetSpace.variable`
on a space from :func:`jet_space`.  At a flag point a tensor of jets is a
numpy object array of :class:`Jet`, for :func:`jet_values`,
:func:`jet_truncated`, :func:`jet_matrix_inverse` and :func:`jet_matrix_det`.
On a fibre chart it is one float array ``(*slots, size)`` over one space,
for :func:`jet_einsum` and :func:`neumann_inverse`; :func:`jet_compose`
makes one from flag-point jets and the :func:`monomial_basis` of the offsets.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "MAX_ORDER",
    "MAX_VARS",
    "Jet",
    "JetDomainError",
    "MonomialBasis",
    "monomial_basis",
    "jet_space",
    "extract_derivative",
    "jet_values",
    "jet_truncated",
    "jet_compose",
    "jet_einsum",
    "neumann_inverse",
    "jet_matrix_inverse",
    "jet_matrix_det",
]

MAX_ORDER = 8
MAX_VARS = 8


class JetDomainError(ArithmeticError):
    """A jet operation left its domain (sqrt/ln/div/pow at order 0)."""

    def __init__(self, fn: str, value: float):
        super().__init__(f"{fn}() undefined at order-0 value {value!r}")
        self.fn = fn
        self.value = value


_FACTORIALS = np.array([math.factorial(k) for k in range(MAX_ORDER + 1)], dtype=np.int64)


def _compositions(total, parts, capped=0, cap=0):
    """The compositions of ``total`` into ``parts`` in graded-lex order (first
    part descending), keeping those whose first ``capped`` parts sum to at
    most ``cap``."""
    if parts == 1:
        if not capped or total <= cap:
            yield (total,)
        return
    for head in range(min(total, cap) if capped else total, -1, -1):
        rest = (capped - 1, cap - head) if capped else (0, 0)
        for tail in _compositions(total - head, parts - 1, *rest):
            yield (head,) + tail


_SPACES: dict[tuple[int, int, int, int], "JetSpace"] = {}


def jet_space(n_vars: int, order: int, x_vars: int = 0, x_degree: int = 1) -> "JetSpace":
    """The shared index tables for jets of this signature, one object per
    space: the first ``x_vars`` variables (none by default) enter with joint
    degree at most ``x_degree``.  At order 0 the limit keeps only the
    constant whatever its value, so it is stored as 0."""
    key = (n_vars, order, x_vars, x_degree if x_vars and order else 0)
    space = _SPACES.get(key)
    if space is None:
        space = _SPACES[key] = JetSpace(*key)
    return space


class JetSpace:
    """Index tables for all jets of a fixed (n_vars, order, x_vars, x_degree).

    Holds the graded-lex multi-index list, its inverse as a vectorised
    position map, and the gather tables built from that map: the sparse
    convolution table used by multiplication and one derivative table per
    multi-index gamma.  With ``x_vars`` > 0 the list keeps only the
    multi-indices whose first ``x_vars`` entries sum to at most
    ``x_degree``.  Instances are obtained through :func:`jet_space` so the
    tables are built once per signature.
    """

    def __init__(self, n_vars: int, order: int, x_vars: int = 0, x_degree: int = 0):
        if not 1 <= n_vars <= MAX_VARS:
            raise ValueError(f"n_vars must be in [1, {MAX_VARS}], got {n_vars}")
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"order must be in [0, {MAX_ORDER}], got {order}")
        if not 0 <= x_vars < n_vars or x_degree < 0:
            raise ValueError(f"x_vars must be in [0, {n_vars}) and x_degree >= 0")
        self.n_vars = n_vars
        self.order = order
        self.x_vars = x_vars
        self.x_degree = x_degree
        indices: list[tuple[int, ...]] = []
        offsets = [0]
        for total in range(order + 1):
            indices.extend(_compositions(total, n_vars, x_vars, x_degree))
            offsets.append(len(indices))
        self.multi_indices = tuple(indices)
        self.index_of = {alpha: i for i, alpha in enumerate(indices)}
        self.size = len(indices)
        # grade_offsets[g] is the index of the first multi-index of degree g;
        # the layout is prefix-closed, which truncation relies on.
        self.grade_offsets = tuple(offsets)
        # Position map: a multi-index of degree <= order has digits <= order,
        # so its radix-(order + 1) key is unique, and keys add without carry
        # when the multi-indices do.
        self._alphas = np.array(indices, dtype=np.int64).reshape(self.size, n_vars)
        self._x_degrees = self._alphas[:, :x_vars].sum(axis=1)
        self._radix = (order + 1) ** np.arange(n_vars - 1, -1, -1, dtype=np.int64)
        self._keys = self._alphas @ self._radix
        self._key_order = np.argsort(self._keys)
        self._sorted_keys = self._keys[self._key_order]
        self._mul_table: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._derivative_tables: dict[tuple[int, ...], tuple[JetSpace, np.ndarray, np.ndarray]] = {}
        self._restrictions: dict[JetSpace, np.ndarray] = {}

    def __repr__(self):
        if not self.x_vars:
            return f"JetSpace({self.n_vars}, {self.order})"
        limit = f"x_vars={self.x_vars}, x_degree={self.x_degree}"
        return f"JetSpace({self.n_vars}, {self.order}, {limit})"

    def _positions(self, keys: np.ndarray) -> np.ndarray:
        """Layout positions of the multi-indices with these radix keys."""
        return self._key_order[np.searchsorted(self._sorted_keys, keys)]

    def _mul(self):
        """Triples (i, j, k) with alpha_i + alpha_j = alpha_k, ordered by i and
        then j, so that every product sums its terms in the same order.  The
        x-degree limit only drops triples, so every kept coefficient sums the
        same terms in the same order as in the space without the limit."""
        if self._mul_table is None:
            offsets = np.asarray(self.grade_offsets, dtype=np.intp)
            degree = np.repeat(np.arange(self.order + 1), np.diff(offsets))
            counts = offsets[self.order - degree + 1]
            ii = np.repeat(np.arange(self.size, dtype=np.intp), counts)
            starts = np.cumsum(counts) - counts
            jj = np.arange(ii.size, dtype=np.intp) - np.repeat(starts, counts)
            if self.x_vars:
                keep = self._x_degrees[ii] + self._x_degrees[jj] <= self.x_degree
                ii, jj = ii[keep], jj[keep]
            kk = self._positions(self._keys[ii] + self._keys[jj])
            self._mul_table = (ii, jj, kk)
        return self._mul_table

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ii, jj, kk = self._mul()
        return np.bincount(kk, weights=a[ii] * b[jj], minlength=self.size)

    def derivative_table(self, gamma: tuple[int, ...]) -> tuple["JetSpace", np.ndarray, np.ndarray]:
        """The gather table of d^gamma: the result space, and for each of its
        multi-indices beta the position of beta + gamma here and the factor
        (beta + gamma)! / beta!, an exact integer.

        A derivative along x uses up x-degree: the result space allows
        ``x_degree`` minus the x-part of gamma, so no coefficient it holds
        depends on a coefficient this space does not carry.
        """
        table = self._derivative_tables.get(gamma)
        if table is None:
            if len(gamma) != self.n_vars:
                raise ValueError("gamma must have one entry per variable")
            total = sum(gamma)
            if total > self.order:
                raise ValueError(f"|gamma| = {total} exceeds jet order {self.order}")
            x_part = sum(gamma[: self.x_vars])
            if x_part > self.x_degree:
                raise ValueError(f"x-degree {x_part} of gamma exceeds the limit {self.x_degree}")
            space = jet_space(self.n_vars, self.order - total, self.x_vars, self.x_degree - x_part)
            beta = space._alphas
            alpha = beta + np.array(gamma, dtype=np.int64)
            factor = _FACTORIALS[alpha].prod(axis=1) // _FACTORIALS[beta].prod(axis=1)
            table = (space, self._positions(alpha @ self._radix), factor.astype(float))
            self._derivative_tables[gamma] = table
        return table

    def restriction(self, space: "JetSpace") -> np.ndarray:
        """Positions here of the multi-indices of ``space``, a space of the
        same variables whose order and x-degree limit are no higher."""
        src = self._restrictions.get(space)
        if src is None:
            if (space.n_vars, space.x_vars) != (self.n_vars, self.x_vars) or (
                space.order > self.order or space.x_degree > self.x_degree
            ):
                raise ValueError("can only restrict to a lower order or x-degree")
            src = self._restrictions[space] = self._positions(space._alphas @ self._radix)
        return src

    def constant(self, value: float) -> "Jet":
        coeffs = np.zeros(self.size)
        coeffs[0] = float(value)
        return Jet(self, coeffs)

    def variable(self, i: int, value: float) -> "Jet":
        """Jet of the i-th coordinate function (i is 1-based)."""
        if not 1 <= i <= self.n_vars:
            raise ValueError(f"variable index {i} out of range [1, {self.n_vars}]")
        jet = self.constant(value)
        if self.order >= 1:
            unit = tuple(1 if k == i - 1 else 0 for k in range(self.n_vars))
            jet.coeffs[self.index_of[unit]] = 1.0
        return jet


class Jet:
    """A truncated multivariate Taylor expansion with float coefficients.

    Jets are value types: operations return new instances and never mutate
    their operands, so shared use across threads is safe.  Arithmetic only
    combines jets from the same space (identical n_vars and order).
    """

    __slots__ = ("space", "coeffs")

    def __init__(self, space: JetSpace, coeffs: np.ndarray):
        self.space = space
        self.coeffs = coeffs

    # -- basic queries ----------------------------------------------------

    @property
    def value(self) -> float:
        """Order-0 coefficient, i.e. the plain evaluation at the base point."""
        return float(self.coeffs[0])

    @property
    def n_vars(self) -> int:
        return self.space.n_vars

    @property
    def order(self) -> int:
        return self.space.order

    def __repr__(self):
        return f"Jet(n_vars={self.n_vars}, order={self.order}, value={self.value:.6g})"

    # -- ring operations --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.space is not self.space:
                raise ValueError(
                    "jet arithmetic requires matching variable count and order, and the "
                    f"same x-degree limit: {self.space!r} vs {other.space!r}"
                )
            return other.coeffs
        if isinstance(other, (int, float, np.floating, np.integer)):
            c = np.zeros(self.space.size)
            c[0] = float(other)
            return c
        return None

    def __add__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return Jet(self.space, self.coeffs + c)

    __radd__ = __add__

    def __sub__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return Jet(self.space, self.coeffs - c)

    def __rsub__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return Jet(self.space, c - self.coeffs)

    def __neg__(self):
        return Jet(self.space, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(self.space, self.space.multiply(self.coeffs, self._coerce(other)))
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet(self.space, self.coeffs * float(other))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        if isinstance(other, (int, float, np.floating, np.integer)):
            if float(other) == 0.0:
                raise JetDomainError("div", 0.0)
            return Jet(self.space, self.coeffs / float(other))
        return NotImplemented

    def __rtruediv__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return Jet(self.space, c) * self.reciprocal()

    def __pow__(self, exponent):
        if isinstance(exponent, Jet):
            raise TypeError("jet exponents are not supported; use a real number")
        e = float(exponent)
        if e == int(e):
            return self._int_pow(int(e))
        f0 = self.value
        if f0 <= 0.0:
            raise JetDomainError(f"pow[{e}]", f0)
        series = [f0 ** e]
        for k in range(1, self.order + 1):
            series.append(series[-1] * (e - (k - 1)) / (k * f0))
        return self._compose_outer(series)

    def _int_pow(self, n: int) -> "Jet":
        if n < 0:
            return self.reciprocal()._int_pow(-n)
        result = self.space.constant(1.0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- univariate composition and elementary functions -------------------

    def _compose_outer(self, series: Sequence[float]) -> "Jet":
        """Horner evaluation of sum_k series[k] * h^k with h the nilpotent part."""
        h = self.coeffs.copy()
        h[0] = 0.0
        out = np.zeros(self.space.size)
        out[0] = series[-1]
        for k in range(len(series) - 2, -1, -1):
            out = self.space.multiply(out, h)
            out[0] += series[k]
        return Jet(self.space, out)

    def reciprocal(self) -> "Jet":
        f0 = self.value
        if f0 == 0.0:
            raise JetDomainError("div", f0)
        series = [1.0 / f0]
        for _ in range(self.order):
            series.append(-series[-1] / f0)
        return self._compose_outer(series)

    def sqrt(self) -> "Jet":
        f0 = self.value
        if f0 <= 0.0:
            raise JetDomainError("sqrt", f0)
        series = [math.sqrt(f0)]
        for k in range(1, self.order + 1):
            series.append(series[-1] * (0.5 - (k - 1)) / (k * f0))
        return self._compose_outer(series)

    def exp(self) -> "Jet":
        e0 = math.exp(self.value)
        series = [e0]
        for k in range(1, self.order + 1):
            series.append(series[-1] / k)
        return self._compose_outer(series)

    def ln(self) -> "Jet":
        f0 = self.value
        if f0 <= 0.0:
            raise JetDomainError("ln", f0)
        series = [math.log(f0)]
        sign = 1.0
        for k in range(1, self.order + 1):
            series.append(sign / (k * f0 ** k))
            sign = -sign
        return self._compose_outer(series)

    # -- structural operations ---------------------------------------------

    def truncated(self, order: int, x_degree: int | None = None) -> "Jet":
        """Copy of this jet truncated to a lower order and, if given, to a
        lower x-degree limit."""
        here = self.space
        if order > here.order:
            raise ValueError(f"cannot extend a jet from order {here.order} to {order}")
        x_degree = here.x_degree if x_degree is None else x_degree
        space = jet_space(here.n_vars, order, here.x_vars, x_degree)
        if space is here:
            return self
        if space.x_degree == here.x_degree:  # the layout is prefix-closed
            return Jet(space, self.coeffs[: space.size].copy())
        return Jet(space, self.coeffs[here.restriction(space)])

    def derivative(self, gamma: Sequence[int]) -> "Jet":
        """The jet of the partial derivative d^gamma f, of order reduced by |gamma|."""
        space, src, factor = self.space.derivative_table(tuple(int(g) for g in gamma))
        return Jet(space, self.coeffs[src] * factor)


class MonomialBasis(NamedTuple):
    """From :func:`monomial_basis`: ``rows[k]`` holds, in ``space``, the
    monomial delta^alpha of the k-th multi-index alpha of ``rows_space``, the
    space of the expanded variables to the order of the deltas."""

    space: JetSpace
    rows_space: JetSpace
    rows: np.ndarray


def monomial_basis(space: JetSpace, deltas, x_vars: int = 0, x_degree: int = 1) -> MonomialBasis:
    """Every monomial, up to their order, of the deltas: one row of
    coefficients in ``space`` per expanded variable, with no order-0 part.
    The monomials are those of the jets with this x-degree limit; each grade
    is one product of the monomials a grade lower and their first deltas."""
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 2 or not len(deltas) or deltas.shape[1] != space.size:
        raise ValueError("one delta jet is required per variable; they share one jet space")
    if np.any(deltas[:, 0] != 0.0):
        raise ValueError("delta jets must have zero order-0 coefficient")
    src = jet_space(len(deltas), space.order, x_vars, x_degree)
    first = np.argmax(src._alphas != 0, axis=1)
    sub = src._positions(src._keys - src._radix[first])
    rows = np.zeros((src.size, space.size))
    rows[0, 0] = 1.0
    for lo, hi in zip(src.grade_offsets[1:-1], src.grade_offsets[2:]):
        rows[lo:hi] = jet_einsum(space, "r,r->r", rows[sub[lo:hi]], deltas[first[lo:hi]])
    return MonomialBasis(space, src, rows)


def jet_compose(jets: Sequence[Jet], basis: MonomialBasis) -> np.ndarray:
    """Substitute the deltas of ``basis``, built for the x-degree limit of
    the jets, for the variables of each jet: one row per jet of the
    coefficients of its composition in the space of the deltas."""
    here = jets[0].space
    rows = basis.rows_space
    if rows.n_vars != here.n_vars:
        raise ValueError("one delta jet is required per variable")
    if rows is not jet_space(here.n_vars, rows.order, here.x_vars, here.x_degree):
        raise ValueError("the monomial basis is built for another x-degree limit")
    if any(jet.space is not here for jet in jets):
        raise ValueError("the composed jets must share one jet space")
    limit = here.grade_offsets[min(basis.space.order, here.order) + 1]
    coeffs = np.array([jet.coeffs[:limit] for jet in jets])
    return (coeffs[:, :, None] * basis.rows[:limit]).sum(axis=1)  # in layout order


def jet_einsum(space: JetSpace, subscripts: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.einsum(subscripts, a, b)`` over the slot axes of two arrays of
    jets, with the jet product of ``space`` along their last axis.  Each
    product-table term is contracted over the slots, then summed in table
    order by one offset ``np.bincount``: with no summed index every entry is
    :meth:`JetSpace.multiply` of its operands, bit for bit."""
    ii, jj, kk = space._mul()
    left, right, out = subscripts.replace("->", ",").split(",")
    terms = np.einsum(f"{left}Z,{right}Z->{out}Z", a[..., ii], b[..., jj])
    rows = math.prod(terms.shape[:-1])
    slots = (np.arange(rows)[:, None] * space.size + kk).ravel()
    summed = np.bincount(slots, weights=terms.ravel(), minlength=rows * space.size)
    return summed.reshape(terms.shape[:-1] + (space.size,))


def neumann_inverse(space: JetSpace, a: np.ndarray) -> np.ndarray:
    """Inverse of an (m, m) matrix of jets over ``space`` with an invertible
    value matrix a0: a = a0 + N with N nilpotent, so the Neumann series
    sum_k (-a0^-1 N)^k a0^-1 ends at k = order (summed by Horner's rule)."""
    out = np.zeros_like(a)
    out[..., 0] = np.linalg.inv(a[..., 0])
    lead = out.copy()
    step = -np.einsum("ab,bcz->acz", lead[..., 0], a)
    step[..., 0] = 0.0
    for _ in range(space.order):
        out = lead + jet_einsum(space, "ab,bc->ac", step, out)
    return out


def extract_derivative(jet: Jet, alpha: Sequence[int]) -> float:
    """Return d^alpha f at the expansion point, i.e. alpha! * coeffs[alpha]."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != jet.n_vars:
        raise ValueError("alpha must have one entry per variable")
    if sum(alpha) > jet.order:
        raise ValueError(f"|alpha| = {sum(alpha)} exceeds jet order {jet.order}")
    if alpha not in jet.space.index_of:
        raise ValueError(f"alpha = {alpha} exceeds the x-degree limit of the jet")
    factor = 1.0
    for a in alpha:
        factor *= math.factorial(a)
    return float(jet.coeffs[jet.space.index_of[alpha]] * factor)


def jet_values(array) -> np.ndarray:
    """The order-0 coefficients of an array of jets, as a float array."""
    return np.vectorize(lambda jet: jet.value, otypes=[float])(array)


def jet_truncated(array, order: int, x_degree: int | None = None) -> np.ndarray:
    """An array of jets with every entry truncated to ``order`` (and to the
    x-degree limit ``x_degree``, if given)."""
    return np.vectorize(lambda jet: jet.truncated(order, x_degree), otypes=[object])(array)


# -- linear algebra over the jet ring ---------------------------------------


def _as_jet_matrix(matrix) -> list[list[Jet]]:
    rows = [list(row) for row in matrix]
    space = rows[0][0].space
    for row in rows:
        if len(row) != len(rows):
            raise ValueError("matrix must be square")
        for entry in row:
            if not isinstance(entry, Jet) or entry.space is not space:
                raise ValueError("matrix entries must be jets from one space")
    return rows


def jet_matrix_inverse(matrix) -> list[list[Jet]]:
    """Invert a small square matrix of jets by Gauss-Jordan elimination.

    Pivots are chosen by the magnitude of the order-0 coefficients; the
    matrix is invertible in the jet ring iff its order-0 part is invertible.
    """
    a = _as_jet_matrix(matrix)
    n = len(a)
    space = a[0][0].space
    inv = [[space.constant(1.0 if i == j else 0.0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(a[r][col].value))
        if abs(a[pivot_row][col].value) < 1e-14:
            raise JetDomainError("matrix_inverse", a[pivot_row][col].value)
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        scale = a[col][col].reciprocal()
        a[col] = [entry * scale for entry in a[col]]
        inv[col] = [entry * scale for entry in inv[col]]
        for r in range(n):
            if r == col:
                continue
            factor = a[r][col]
            if not np.any(factor.coeffs):
                continue
            a[r] = [ar - factor * ac for ar, ac in zip(a[r], a[col])]
            inv[r] = [ir - factor * ic for ir, ic in zip(inv[r], inv[col])]
    return inv


def jet_matrix_det(matrix) -> Jet:
    """Determinant of a small square matrix of jets (forward elimination)."""
    a = _as_jet_matrix(matrix)
    n = len(a)
    space = a[0][0].space
    det = space.constant(1.0)
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(a[r][col].value))
        if abs(a[pivot_row][col].value) < 1e-14:
            raise JetDomainError("matrix_det", a[pivot_row][col].value)
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            det = -det
        det = det * a[col][col]
        inv_pivot = a[col][col].reciprocal()
        for r in range(col + 1, n):
            factor = a[r][col] * inv_pivot
            if not np.any(factor.coeffs):
                continue
            a[r] = [ar - factor * ac for ar, ac in zip(a[r], a[col])]
    return det

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

Index work is done by gather tables, built once per :class:`JetSpace` with
numpy from one position map (the radix keys of the multi-indices): the
product table, which :meth:`JetSpace.multiply` reduces with one
``np.bincount``, and one table per derivative multi-index gamma, which makes
:meth:`Jet.derivative` one gather scaled by exact integer factors.  The
tables list their terms in a fixed order, so every product and derivative is
bit-identical from run to run and to the per-multi-index loops kept as
references in the tests.  :meth:`Jet.compose` forms the monomials of its
deltas once, as a :func:`monomial_basis` that every composition with the same
deltas can share.

The module also provides a Richardson-extrapolated central-difference
estimator, used by the test suite as an oracle that is independent of the
jet arithmetic, and Gaussian elimination helpers for small matrices with jet
entries.  Tensors of jets are numpy object arrays; :func:`jet_values` and
:func:`jet_truncated` act on them entrywise.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "MAX_ORDER",
    "MAX_VARS",
    "Jet",
    "JetDomainError",
    "MonomialBasis",
    "monomial_basis",
    "jet_space",
    "seed_variable",
    "constant",
    "extract_derivative",
    "jet_values",
    "jet_truncated",
    "finite_difference_oracle",
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


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


@lru_cache(maxsize=None)
def jet_space(n_vars: int, order: int) -> "JetSpace":
    """Shared (cached) index tables for jets with this variable count and order."""
    return JetSpace(n_vars, order)


class JetSpace:
    """Index tables for all jets of a fixed (n_vars, order).

    Holds the graded-lex multi-index list, its inverse as a vectorised
    position map, and the gather tables built from that map: the sparse
    convolution table used by multiplication and one derivative table per
    multi-index gamma.  Instances are obtained through :func:`jet_space` so
    the tables are built once per signature.
    """

    def __init__(self, n_vars: int, order: int):
        if not 1 <= n_vars <= MAX_VARS:
            raise ValueError(f"n_vars must be in [1, {MAX_VARS}], got {n_vars}")
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"order must be in [0, {MAX_ORDER}], got {order}")
        self.n_vars = n_vars
        self.order = order
        indices: list[tuple[int, ...]] = []
        offsets = [0]
        for total in range(order + 1):
            indices.extend(_compositions(total, n_vars))
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
        self._radix = (order + 1) ** np.arange(n_vars - 1, -1, -1, dtype=np.int64)
        self._keys = self._alphas @ self._radix
        self._key_order = np.argsort(self._keys)
        self._sorted_keys = self._keys[self._key_order]
        self._mul_table: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._derivative_tables: dict[tuple[int, ...], tuple[JetSpace, np.ndarray, np.ndarray]] = {}

    def _positions(self, keys: np.ndarray) -> np.ndarray:
        """Layout positions of the multi-indices with these radix keys."""
        return self._key_order[np.searchsorted(self._sorted_keys, keys)]

    def _mul(self):
        """Triples (i, j, k) with alpha_i + alpha_j = alpha_k, ordered by i and
        then j, so that every product sums its terms in the same order."""
        if self._mul_table is None:
            offsets = np.asarray(self.grade_offsets, dtype=np.intp)
            degree = np.repeat(np.arange(self.order + 1), np.diff(offsets))
            counts = offsets[self.order - degree + 1]
            ii = np.repeat(np.arange(self.size, dtype=np.intp), counts)
            starts = np.cumsum(counts) - counts
            jj = np.arange(ii.size, dtype=np.intp) - np.repeat(starts, counts)
            kk = self._positions(self._keys[ii] + self._keys[jj])
            self._mul_table = (ii, jj, kk)
        return self._mul_table

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ii, jj, kk = self._mul()
        return np.bincount(kk, weights=a[ii] * b[jj], minlength=self.size)

    def derivative_table(self, gamma: tuple[int, ...]) -> tuple["JetSpace", np.ndarray, np.ndarray]:
        """The gather table of d^gamma: the result space, and for each of its
        multi-indices beta the position of beta + gamma here and the factor
        (beta + gamma)! / beta!, an exact integer."""
        table = self._derivative_tables.get(gamma)
        if table is None:
            if len(gamma) != self.n_vars:
                raise ValueError("gamma must have one entry per variable")
            total = sum(gamma)
            if total > self.order:
                raise ValueError(f"|gamma| = {total} exceeds jet order {self.order}")
            space = jet_space(self.n_vars, self.order - total)
            beta = space._alphas
            alpha = beta + np.array(gamma, dtype=np.int64)
            factor = _FACTORIALS[alpha].prod(axis=1) // _FACTORIALS[beta].prod(axis=1)
            table = (space, self._positions(alpha @ self._radix), factor.astype(float))
            self._derivative_tables[gamma] = table
        return table


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

    # -- construction ---------------------------------------------------

    @staticmethod
    def constant(value: float, n_vars: int, order: int) -> "Jet":
        space = jet_space(n_vars, order)
        coeffs = np.zeros(space.size)
        coeffs[0] = float(value)
        return Jet(space, coeffs)

    @staticmethod
    def variable(i: int, value: float, n_vars: int, order: int) -> "Jet":
        """Jet of the i-th coordinate function (i is 1-based)."""
        if not 1 <= i <= n_vars:
            raise ValueError(f"variable index {i} out of range [1, {n_vars}]")
        space = jet_space(n_vars, order)
        coeffs = np.zeros(space.size)
        coeffs[0] = float(value)
        if order >= 1:
            unit = tuple(1 if k == i - 1 else 0 for k in range(n_vars))
            coeffs[space.index_of[unit]] = 1.0
        return Jet(space, coeffs)

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
                    "jet arithmetic requires matching variable count and order: "
                    f"({self.n_vars}, {self.order}) vs ({other.n_vars}, {other.order})"
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
            if other.space is not self.space:
                raise ValueError(
                    "jet arithmetic requires matching variable count and order"
                )
            return Jet(self.space, self.space.multiply(self.coeffs, other.coeffs))
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
        result = Jet.constant(1.0, self.n_vars, self.order)
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

    def truncated(self, order: int) -> "Jet":
        """Copy of this jet truncated to a lower order."""
        if order == self.order:
            return self
        if order > self.order:
            raise ValueError(f"cannot extend a jet from order {self.order} to {order}")
        space = jet_space(self.n_vars, order)
        return Jet(space, self.coeffs[: space.size].copy())

    def derivative(self, gamma: Sequence[int]) -> "Jet":
        """The jet of the partial derivative d^gamma f, of order reduced by |gamma|."""
        space, src, factor = self.space.derivative_table(tuple(int(g) for g in gamma))
        return Jet(space, self.coeffs[src] * factor)

    def compose(self, deltas: "Sequence[Jet] | MonomialBasis") -> "Jet":
        """Substitute nilpotent jets for the variables of this expansion.

        ``deltas[i]`` stands for the offset of variable i from the expansion
        point and must have a zero order-0 coefficient; all deltas share one
        jet space, which is also the space of the result.  Passing the
        :func:`monomial_basis` of the deltas instead lets every composition
        with the same deltas share their monomials.
        """
        basis = deltas if isinstance(deltas, MonomialBasis) else monomial_basis(deltas)
        if basis.n_vars != self.n_vars:
            raise ValueError("one delta jet is required per variable")
        limit = self.space.grade_offsets[min(basis.space.order, self.order) + 1]
        # the terms are summed in layout order, row after row
        out = (self.coeffs[:limit, None] * basis.rows[:limit]).sum(axis=0)
        return Jet(basis.space, out)


class MonomialBasis(NamedTuple):
    """The monomials delta^alpha of a set of nilpotent delta jets.

    ``rows[k]`` holds the coefficients, in ``space``, of the monomial of the
    k-th multi-index of ``jet_space(n_vars, space.order)``; monomials of
    higher degree vanish.  Built by :func:`monomial_basis`.
    """

    space: JetSpace
    n_vars: int
    rows: np.ndarray


def monomial_basis(deltas: Sequence[Jet]) -> MonomialBasis:
    """Every monomial of the deltas up to their order, each one product of a
    lower monomial and the delta of its first variable."""
    if not deltas:
        raise ValueError("one delta jet is required per variable")
    uspace = deltas[0].space
    for d in deltas:
        if d.space is not uspace:
            raise ValueError("delta jets must share one jet space")
        if d.coeffs[0] != 0.0:
            raise ValueError("delta jets must have zero order-0 coefficient")
    src = jet_space(len(deltas), uspace.order)
    first = np.argmax(src._alphas != 0, axis=1)
    sub = src._positions(src._keys - src._radix[first])
    zero = [not np.any(d.coeffs) for d in deltas]
    rows = np.zeros((src.size, uspace.size))
    rows[0, 0] = 1.0
    live = np.zeros(src.size, dtype=bool)  # rows that are not identically zero
    live[0] = True
    for k in range(1, src.size):
        i, s = first[k], sub[k]
        if zero[i] or not live[s]:
            continue
        live[k] = True
        rows[k] = deltas[i].coeffs if s == 0 else uspace.multiply(rows[s], deltas[i].coeffs)
    return MonomialBasis(uspace, len(deltas), rows)


# -- spec-level convenience wrappers ---------------------------------------


def seed_variable(i: int, value: float, n_vars: int, order: int) -> Jet:
    """Jet of the i-th coordinate function (1-based index)."""
    return Jet.variable(i, value, n_vars, order)


def constant(value: float, n_vars: int, order: int) -> Jet:
    return Jet.constant(value, n_vars, order)


def extract_derivative(jet: Jet, alpha: Sequence[int]) -> float:
    """Return d^alpha f at the expansion point, i.e. alpha! * coeffs[alpha]."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != jet.n_vars:
        raise ValueError("alpha must have one entry per variable")
    if sum(alpha) > jet.order:
        raise ValueError(f"|alpha| = {sum(alpha)} exceeds jet order {jet.order}")
    factor = 1.0
    for a in alpha:
        factor *= math.factorial(a)
    return float(jet.coeffs[jet.space.index_of[alpha]] * factor)


def jet_values(array) -> np.ndarray:
    """The order-0 coefficients of an array of jets, as a float array."""
    return np.vectorize(lambda jet: jet.value, otypes=[float])(array)


def jet_truncated(array, order: int) -> np.ndarray:
    """An array of jets with every entry truncated to ``order``."""
    return np.vectorize(lambda jet: jet.truncated(order), otypes=[object])(array)


def finite_difference_oracle(
    f: Callable[[np.ndarray], float],
    point: Sequence[float],
    alpha: Sequence[int],
    step: float,
) -> float:
    """Central-difference estimate of d^alpha f at ``point``.

    Mixed derivatives are built by recursive first-order central differences;
    one Richardson extrapolation level removes the leading h^2 error term.
    Intended as a test oracle, independent of the jet arithmetic.
    """
    alpha = [int(a) for a in alpha]
    if sum(alpha) > 4:
        raise ValueError("the finite-difference oracle supports |alpha| <= 4")
    if step <= 0:
        raise ValueError("step must be positive")
    base = [float(v) for v in point]

    def estimate(h: float) -> float:
        def rec(p: list[float], a: list[int]) -> float:
            for i, ai in enumerate(a):
                if ai:
                    break
            else:
                return float(f(np.asarray(p)))
            a2 = a.copy()
            a2[i] -= 1
            pp = p.copy()
            pm = p.copy()
            pp[i] += h
            pm[i] -= h
            return (rec(pp, a2) - rec(pm, a2)) / (2.0 * h)

        return rec(base, alpha)

    coarse = estimate(step)
    fine = estimate(step / 2.0)
    return (4.0 * fine - coarse) / 3.0


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
    inv = [
        [Jet.constant(1.0 if i == j else 0.0, space.n_vars, space.order) for j in range(n)]
        for i in range(n)
    ]
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
    det = Jet.constant(1.0, space.n_vars, space.order)
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

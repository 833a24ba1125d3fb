"""Dense truncated multivariate Taylor ("jet") arithmetic.

A jet stores the Taylor coefficients f_alpha = (d^alpha f)(p) / alpha! of a
scalar function around an expansion point p, for every multi-index alpha with
|alpha| <= order, in a graded lexicographic layout.  Sums, products and the
elementary functions sqrt/exp/ln/pow act on jets exactly (to roundoff), so
any partial derivative up to the truncation order can be read off without
discretisation error.

Coefficients are Taylor-normalised (factorials divided out), which keeps the
truncated Cauchy product free of factorial bookkeeping; factorials reappear
only in the derivative tables (:meth:`JetSpace.derivative_table`).  The
quotient and the elementary functions are computed one degree at a time from
the lower degrees of their result, by the Taylor recurrences of Griewank &
Walther (*Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13), each read
off an identity that holds degree by degree: with |i| and |j| the degrees of
the two factors of a product-table term and d that of its result,

    q = u / v        v_0 q_d = u_d - sum v_i q_j
    p = a^r          d a_0 p_d = sum (r|i| - |j|) a_i p_j       (sqrt: r = 1/2)
    e = exp(a)       d e_d = sum |i| a_i e_j
    l = ln(a)        a_0 l_d = a_d - sum |j| a_i l_j / d

where each sum runs over the terms that land at degree d with a left factor
of degree 1..grade(a), so q_j, p_j, e_j and l_j are of lower degree.  Each
term is summed once; floating-point errors follow the caller's
``np.errstate``, as those of :meth:`JetSpace.multiply` do.

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
truncate explicitly, by a prefix of the coefficients (the layout is
prefix-closed) or by a :meth:`JetSpace.restriction` of them.

Index work is done by gather tables, built once per :class:`JetSpace` with
numpy from one position map (the radix keys of the multi-indices): the
product table, which :meth:`JetSpace.multiply` and :func:`jet_einsum` reduce
with ``np.bincount``, and one table per derivative multi-index gamma, which
makes :func:`jet_partials` one gather scaled by exact integer factors.
The tables list their terms in a fixed order, so every product and
derivative is bit-identical from run to run and to the per-multi-index
loops kept as references in the tests.

The array kernels look up a plan built once per call signature and kept on
the space: :func:`jet_partials` the stacked derivative tables of its tuple
of gammas, :func:`jet_einsum` the einsum spec, output shape and offset
``np.bincount`` bins of its subscripts and operand shapes, and
:func:`neumann_inverse` and the recurrences (per grade of their argument)
one sub-table of the product table per degree.  A
plan moves index work out of the call and leaves the arithmetic and its
order as they were, so each result is bit-identical to the one the call
would give building its index work anew (the tests keep those bodies).

A :class:`Jet` carries a ``grade``, an upper bound on the degree of its
nonzero coefficients: 0 for a constant, 1 for a variable, the larger grade
for a sum, ``min(order, ga + gb)`` for a product, the order for a quotient
or an elementary function of a jet that is not constant, and the order when
built from raw coefficients.  A product of grades ``(ga, gb)`` reduces the terms
of the product table whose left factor has degree at most ``ga`` and whose
right factor at most ``gb`` -- a sub-table cached per grade pair, in the
full table's order.  Every skipped term has an exactly zero factor, so for
finite coefficients it is a signed zero; ``np.bincount`` sums from +0.0,
a sum that starts at +0.0 never becomes -0.0, and adding a zero to it
changes no bit.  The graded product is therefore bit-identical to the full
one.  (An infinite coefficient would make a skipped term ``inf * 0 = nan``
in the full table; the CLI rejects a non-finite point.)

Jets are built by :meth:`JetSpace.constant` and :meth:`JetSpace.variable`
on a space from :func:`jet_space`; they are the scalars the expression
evaluator runs on.  A tensor of jets is one float array ``(points, *slots,
size)`` of coefficients over one space; a single point is a batch of one.
:func:`jet_partials` gathers its derivatives, :meth:`JetSpace.restriction`
its coefficients in a smaller space, :func:`jet_einsum` contracts two such
arrays (point by point, with the plan of one), :func:`neumann_inverse`
inverts a matrix of jets, and :func:`jet_compose` substitutes each point's
:func:`monomial_basis` of a set of offsets into the rows of such an array.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "MAX_ORDER",
    "MAX_VARS",
    "Jet",
    "JetDomainError",
    "MonomialBasis",
    "monomial_basis",
    "jet_space",
    "jet_partials",
    "jet_compose",
    "jet_einsum",
    "neumann_inverse",
]

MAX_ORDER = 8
MAX_VARS = 8


class JetDomainError(ArithmeticError):
    """A jet operation left its domain (sqrt/ln/div/pow at order 0), or its
    order-0 value overflowed there (exp/pow)."""

    def __init__(self, fn: str, value: float, overflows: bool = False):
        state = "overflows" if overflows else "undefined"
        super().__init__(f"{fn}() {state} at order-0 value {value!r}")
        self.fn = fn
        self.value = value
        self.overflows = overflows


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
        self._graded_tables: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}
        self._derivative_tables: dict[tuple[int, ...], tuple[JetSpace, np.ndarray, np.ndarray]] = {}
        self._restrictions: dict[JetSpace, np.ndarray] = {}
        # kernel plans, one per call signature: see jet_partials, jet_einsum
        # and neumann_inverse
        self._partial_plans: dict[tuple | None, tuple[np.ndarray, np.ndarray]] = {}
        self._einsum_plans: dict[tuple, _Contraction] = {}
        self._neumann_plans: dict[int, list[_Contraction]] = {}
        self._recurrence_plans: dict[int, _Recurrence] = {}

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

    def _graded_mul(self, ga: int, gb: int) -> tuple[np.ndarray, ...]:
        """The terms of :meth:`_mul` with a factor of degree at most ``ga``
        on the left and at most ``gb`` on the right, in the same order: a
        prefix of the table (the terms are ordered by i, which is ordered by
        degree), filtered by the degree of j unless ``gb`` is the order."""
        table = self._mul()
        if ga < self.order:
            end = np.searchsorted(table[0], self.grade_offsets[ga + 1])
            table = tuple(column[:end] for column in table)
        if gb < self.order:
            keep = table[1] < self.grade_offsets[gb + 1]
            table = tuple(column[keep] for column in table)
        return table

    def multiply(
        self, a: np.ndarray, b: np.ndarray, ga: int = MAX_ORDER, gb: int = MAX_ORDER
    ) -> np.ndarray:
        """The truncated product of two coefficient arrays that are zero above
        degree ``ga`` and ``gb`` (by default no zero is known): the terms of
        the product table with a zero factor are skipped."""
        table = self._graded_tables.get((ga, gb))
        if table is None:
            grades = min(ga, self.order), min(gb, self.order)
            table = self._graded_tables[ga, gb] = self._graded_mul(*grades)
        ii, jj, kk = table
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

    def _partials_plan(self, gammas) -> tuple[np.ndarray, np.ndarray]:
        """The stacked derivative tables of :func:`jet_partials`, keyed by
        the gammas as a tuple (``None``: every first partial)."""
        key = None if gammas is None else tuple(gammas)
        plan = self._partial_plans.get(key)
        if plan is None:
            if gammas is None:
                gammas = [tuple(map(int, unit)) for unit in np.eye(self.n_vars, dtype=int)]
            tables = [self.derivative_table(gamma) for gamma in gammas]
            if any(table[0] is not tables[0][0] for table in tables):
                raise ValueError("the derivatives must share one result space")
            plan = tuple(np.array([table[k] for table in tables]) for k in (1, 2))
            self._partial_plans[key] = plan
        return plan

    def _einsum_plan(self, subscripts: str, a_shape: tuple, b_shape: tuple) -> "_Contraction":
        """The contraction of :func:`jet_einsum`, the plan of one point, for
        operands of these shapes after the batch axis."""
        key = (subscripts, a_shape, b_shape)
        plan = self._einsum_plans.get(key)
        if plan is None:
            left, right, out = subscripts.replace("->", ",").split(",")
            if (len(a_shape), len(b_shape)) != (len(left) + 1, len(right) + 1):
                raise ValueError(
                    f"{subscripts!r} needs operands of a batch axis, its slot axes and the "
                    f"coefficients; got {a_shape} and {b_shape} after the batch axis"
                )
            # numpy's own broadcast of the slot axes, so plan and contraction agree
            slots = np.zeros(a_shape[:-1]), np.zeros(b_shape[:-1])
            shape = np.einsum(f"{left},{right}->{out}", *slots).shape
            plan = _contraction(f"P{left}Z,P{right}Z->P{out}Z", *self._mul(), shape, self.size)
            self._einsum_plans[key] = plan
        return plan

    def _neumann_plan(self, m: int) -> list["_Contraction"]:
        """Per degree d >= 1, the contraction of :func:`neumann_inverse` for
        (m, m) matrices: the product-table terms that land at degree d and
        whose left factor has degree >= 1, in table order."""
        plan = self._neumann_plans.get(m)
        if plan is None:
            ii, jj, kk = self._mul()
            plan = []
            for lo, hi in zip(self.grade_offsets[1:-1], self.grade_offsets[2:]):
                keep = (kk >= lo) & (kk < hi) & (ii >= self.grade_offsets[1])
                plan.append(_contraction("PabZ,PbcZ->PacZ", ii[keep], jj[keep], kk[keep] - lo, (m, m), hi - lo))
            self._neumann_plans[m] = plan
        return plan

    def _recurrence_plan(self, grade: int) -> "_Recurrence":
        """The terms of :meth:`Jet._recur` for a jet of this grade >= 1: per
        degree d >= 1, the product-table terms that land at degree d and
        whose left factor has degree 1..grade, in table order."""
        plan = self._recurrence_plans.get(grade)
        if plan is None:
            ii, jj, kk = self._mul()
            offsets = self.grade_offsets
            degree = np.repeat(np.arange(self.order + 1.0), np.diff(offsets))
            left = (ii >= offsets[1]) & (ii < offsets[min(grade, self.order) + 1])
            lefts, degrees, start = [], [], 0
            for d in range(1, self.order + 1):
                lo, hi = offsets[d], offsets[d + 1]
                keep = left & (kk >= lo) & (kk < hi)
                lefts.append(ii[keep])
                terms = slice(start, start + len(lefts[-1]))
                degrees.append((d, lo, hi, terms, jj[keep], kk[keep] - lo))
                start = terms.stop
            i = np.concatenate(lefts)
            j = np.concatenate([jj for *_, jj, _ in degrees])
            plan = self._recurrence_plans[grade] = _Recurrence(i, degree[i], degree[j], degrees)
        return plan

    def constant(self, value: float) -> "Jet":
        coeffs = np.zeros(self.size)
        coeffs[0] = float(value)
        return Jet(self, coeffs, 0)

    def variable(self, i: int, value: float) -> "Jet":
        """Jet of the i-th coordinate function (i is 1-based)."""
        if not 1 <= i <= self.n_vars:
            raise ValueError(f"variable index {i} out of range [1, {self.n_vars}]")
        jet = self.constant(value)
        if self.order >= 1:
            unit = tuple(1 if k == i - 1 else 0 for k in range(self.n_vars))
            jet.coeffs[self.index_of[unit]] = 1.0
            jet.grade = 1
        return jet


class Jet:
    """A truncated multivariate Taylor expansion with float coefficients.

    Jets are value types: operations return new instances and never mutate
    their operands, so shared use across threads is safe.  Arithmetic only
    combines jets from the same space (identical n_vars and order).  The
    ``grade`` bounds the degree of the nonzero coefficients (the order when
    not given), so products skip the terms it shows to be zero.
    """

    __slots__ = ("space", "coeffs", "grade")

    def __init__(self, space: JetSpace, coeffs: np.ndarray, grade: int | None = None):
        self.space = space
        self.coeffs = coeffs
        self.grade = space.order if grade is None else grade

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

    def _coerce(self, other) -> "Jet | None":
        if isinstance(other, Jet):
            if other.space is not self.space:
                raise ValueError(
                    "jet arithmetic requires matching variable count and order, and the "
                    f"same x-degree limit: {self.space!r} vs {other.space!r}"
                )
            return other
        if isinstance(other, (int, float, np.floating, np.integer)):
            return self.space.constant(other)
        return None

    def __add__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return Jet(self.space, self.coeffs + c.coeffs, max(self.grade, c.grade))

    __radd__ = __add__

    def __sub__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return Jet(self.space, self.coeffs - c.coeffs, max(self.grade, c.grade))

    def __rsub__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return Jet(self.space, c.coeffs - self.coeffs, max(self.grade, c.grade))

    def __neg__(self):
        return Jet(self.space, -self.coeffs, self.grade)

    def __mul__(self, other):
        if isinstance(other, Jet):
            c = self._coerce(other)
            coeffs = self.space.multiply(self.coeffs, c.coeffs, self.grade, c.grade)
            return Jet(self.space, coeffs, min(self.space.order, self.grade + c.grade))
        if isinstance(other, (int, float, np.floating, np.integer)):
            try:
                with np.errstate(over="raise"):
                    return Jet(self.space, self.coeffs * float(other), self.grade)
            except FloatingPointError:
                raise JetDomainError("mul", self.value, overflows=True) from None
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return _quotient(self, self._coerce(other))
        if isinstance(other, (int, float, np.floating, np.integer)):
            if float(other) == 0.0:
                raise JetDomainError("div", 0.0)
            return Jet(self.space, self.coeffs / float(other), self.grade)
        return NotImplemented

    def __rtruediv__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return _quotient(c, self)

    def __pow__(self, exponent):
        if isinstance(exponent, Jet):
            raise TypeError("jet exponents are not supported; use a real number")
        e = float(exponent)
        if e == int(e):
            return self._int_pow(int(e))
        f0 = self.value
        if f0 <= 0.0:
            raise JetDomainError(f"pow[{e}]", f0)
        try:
            head = f0 ** e
        except OverflowError:
            raise JetDomainError(f"pow[{e}]", f0, overflows=True) from None
        return self._power(e, head)

    def _int_pow(self, n: int) -> "Jet":
        """Binary powering from the lowest set bit of n: y**2 is one product,
        and no square is taken past the highest bit."""
        if n < 0:
            return self.reciprocal()._int_pow(-n)
        if n == 0:
            return self.space.constant(1.0)
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        result = base
        n >>= 1
        while n:
            base = base * base
            if n & 1:
                result = result * base
            n >>= 1
        return result

    # -- elementary functions, degree by degree ----------------------------

    def _recur(self, head: float, block, weight) -> "Jet":
        """The jet with order-0 coefficient ``head`` whose degree-d block
        ``[lo, hi)`` is ``block(d, lo, hi, s)``: s sums, in table order, the
        terms ``weight(|i|, |j|) a_i out_j`` of the product table that land
        at degree d with a left factor a_i of this jet of degree 1..grade,
        so out_j is of a lower degree, already computed.  A constant has a
        constant image."""
        out = np.zeros(self.space.size)
        out[0] = head
        if not self.grade:
            return Jet(self.space, out, 0)
        plan = self.space._recurrence_plan(self.grade)
        left = self.coeffs[plan.ii] * weight(plan.di, plan.dj)
        for d, lo, hi, terms, jj, kk in plan.degrees:
            s = np.bincount(kk, weights=left[terms] * out[jj], minlength=hi - lo)
            out[lo:hi] = block(d, lo, hi, s)
        return Jet(self.space, out)

    def _power(self, r: float, head: float) -> "Jet":
        """p = a^r from p_0 = ``head``: d a_0 p_d = sum (r|i| - |j|) a_i p_j."""
        f0 = self.value
        return self._recur(head, lambda d, lo, hi, s: s / (d * f0), lambda di, dj: r * di - dj)

    def reciprocal(self) -> "Jet":
        return _quotient(self.space.constant(1.0), self)

    def sqrt(self) -> "Jet":
        f0 = self.value
        if f0 <= 0.0:
            raise JetDomainError("sqrt", f0)
        return self._power(0.5, math.sqrt(f0))

    def exp(self) -> "Jet":
        """e = exp(a): d e_d = sum |i| a_i e_j."""
        try:
            head = math.exp(self.value)
        except OverflowError:
            raise JetDomainError("exp", self.value, overflows=True) from None
        return self._recur(head, lambda d, lo, hi, s: s / d, lambda di, dj: di)

    def ln(self) -> "Jet":
        """l = ln(a): a_0 l_d = a_d - sum |j| a_i l_j / d."""
        f0 = self.value
        if f0 <= 0.0:
            raise JetDomainError("ln", f0)
        a = self.coeffs
        return self._recur(math.log(f0), lambda d, lo, hi, s: (a[lo:hi] - s / d) / f0, lambda di, dj: dj)


def _quotient(u: Jet, v: Jet) -> Jet:
    """u / v: v_0 q_d = u_d - sum v_i q_j, with q_0 = u_0 / v_0."""
    v0 = v.value
    if v0 == 0.0:
        raise JetDomainError("div", v0)
    if not v.grade:
        return Jet(u.space, u.coeffs / v0, u.grade)
    return v._recur(u.coeffs[0] / v0, lambda d, lo, hi, s: (u.coeffs[lo:hi] - s) / v0, lambda di, dj: 1.0)


class MonomialBasis(NamedTuple):
    """From :func:`monomial_basis`: ``rows[k]`` holds, in ``space``, the
    monomial delta^alpha of the k-th multi-index alpha of ``rows_space``, the
    space of the expanded variables to the order of the deltas."""

    space: JetSpace
    rows_space: JetSpace
    rows: np.ndarray


def monomial_basis(space: JetSpace, deltas, x_vars: int = 0, x_degree: int = 1) -> MonomialBasis:
    """Every monomial, up to their order, of the deltas ``(points, vars,
    space.size)``: per point, one row of coefficients in ``space`` per
    expanded variable, with no order-0 part.  The monomials are those of
    the jets with this x-degree limit; each grade is one product of the
    monomials a grade lower and their first deltas."""
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 3 or not deltas.shape[1] or deltas.shape[2] != space.size:
        raise ValueError("one delta jet is required per variable; they share one jet space")
    if np.any(deltas[..., 0] != 0.0):
        raise ValueError("delta jets must have zero order-0 coefficient")
    src = jet_space(deltas.shape[1], space.order, x_vars, x_degree)
    first = np.argmax(src._alphas != 0, axis=1)
    sub = src._positions(src._keys - src._radix[first])
    rows = np.zeros((len(deltas), src.size, space.size))
    rows[:, 0, 0] = 1.0
    for lo, hi in zip(src.grade_offsets[1:-1], src.grade_offsets[2:]):
        rows[:, lo:hi] = jet_einsum(space, "r,r->r", rows[:, sub[lo:hi]], deltas[:, first[lo:hi]])
    return MonomialBasis(space, src, rows)


def jet_compose(space: JetSpace, coeffs: np.ndarray, basis: MonomialBasis) -> np.ndarray:
    """Substitute the deltas of ``basis``, built for the x-degree limit of
    ``space``, for the variables of jets over ``space``: coefficient rows
    ``(points, ..., space.size)`` in, the rows of their compositions in the
    space of the deltas out, the rows of ``coeffs[k]`` composed with the
    basis ``rows[k]`` of point k."""
    rows = basis.rows_space
    if rows.n_vars != space.n_vars:
        raise ValueError("one delta jet is required per variable")
    if rows is not jet_space(space.n_vars, rows.order, space.x_vars, space.x_degree):
        raise ValueError("the monomial basis is built for another x-degree limit")
    if coeffs.shape[-1] != space.size:
        raise ValueError(f"the composed rows must hold the {space.size} coefficients of {space!r}")
    if len(coeffs) != len(basis.rows):
        points = f"{len(coeffs)} and {len(basis.rows)} points"
        raise ValueError(f"the rows and the basis differ in their batch axis: {points}")
    limit = space.grade_offsets[min(basis.space.order, space.order) + 1]
    monomials = basis.rows[:, :limit]  # one basis per point: broadcast over the slots of each
    monomials = monomials.reshape(monomials.shape[:1] + (1,) * (coeffs.ndim - 2) + monomials.shape[1:])
    return (coeffs[..., :limit, None] * monomials).sum(axis=-2)  # in layout order


def jet_partials(space: JetSpace, t: np.ndarray, gammas=None) -> np.ndarray:
    """The derivatives d^gamma of an array of jets over ``space``, one per
    gamma (by default every first partial), on a new axis before the last:
    one gather of the :meth:`JetSpace.derivative_table` of each gamma,
    stacked once per tuple of gammas.  The gammas share one result space."""
    src, factor = space._partials_plan(gammas)
    return t[..., src] * factor


class _Recurrence(NamedTuple):
    """From :meth:`JetSpace._recurrence_plan`: the left factors ``ii`` of
    the terms of every degree, in degree order, the degrees ``di`` and ``dj``
    of the two factors of each, and per degree d >= 1 the tuple (d, lo, hi,
    its slice of the terms, their right factors, their bins in [lo, hi))."""

    ii: np.ndarray
    di: np.ndarray
    dj: np.ndarray
    degrees: list[tuple[int, int, int, slice, np.ndarray, np.ndarray]]


class _Contraction(NamedTuple):
    """Product-table terms (ii, jj) contracted by ``spec`` over a leading
    batch axis and the slot axes, and summed into an array of ``shape`` per
    point by one offset ``np.bincount``."""

    spec: str
    ii: np.ndarray
    jj: np.ndarray
    slots: np.ndarray
    shape: tuple[int, ...]


def _contraction(spec: str, ii, jj, kk, slot_shape: tuple[int, ...], width: int) -> _Contraction:
    """Term ``t`` of slot row ``r`` lands in bin ``r * width + kk[t]``."""
    slots = (np.arange(math.prod(slot_shape))[:, None] * width + kk).ravel()
    return _Contraction(spec, ii, jj, slots, slot_shape + (width,))


def _contract(plan: _Contraction, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The contraction of ``plan`` on two batches of jet arrays: the bins of
    point k are those of one point offset by k times its output size, so
    each entry sums the same terms in the same order as a call on that
    point alone."""
    # gathered from C-order operands, the terms of a point are laid out as
    # in a call on that point alone, so einsum sums them in the same order
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    terms = np.einsum(plan.spec, a[..., plan.ii], b[..., plan.jj])
    size, points = math.prod(plan.shape), len(terms)
    bins = plan.slots if points == 1 else (np.arange(points)[:, None] * size + plan.slots).ravel()
    summed = np.bincount(bins, weights=terms.ravel(), minlength=points * size)
    return summed.reshape(terms.shape[:-1] + plan.shape[-1:])


def jet_einsum(space: JetSpace, subscripts: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.einsum(subscripts, a, b)`` over the slot axes of two batches of
    jet arrays ``(points, *slots, size)``, point by point, with the jet
    product of ``space`` along their last axis.  The subscripts name every
    slot axis.  Each product-table term is contracted over the slots, then
    summed in table order by one offset ``np.bincount``: with no summed
    index every entry is :meth:`JetSpace.multiply` of its operands, bit for
    bit.  The einsum spec, output shape and bincount bins are those of one
    point, built once per subscripts and operand shapes; the batch's bins
    are offset per point at call time, so no plan grows with the batch."""
    if len(a) != len(b):
        raise ValueError(f"the operands differ in their batch axis: {len(a)} and {len(b)} points")
    return _contract(space._einsum_plan(subscripts, a.shape[1:], b.shape[1:]), a, b)


def neumann_inverse(space: JetSpace, a: np.ndarray) -> np.ndarray:
    """Inverse of a batch of (m, m) matrices of jets over ``space``, ``(points,
    m, m, size)``, each with an invertible value matrix a0: a = a0 + N with
    N nilpotent, so the Neumann series sum_k (-a0^-1 N)^k a0^-1 ends at
    k = order.

    Summed by Horner's rule, x <- a0^-1 + (-a0^-1 N) x, each iterate is
    final up to one degree higher than the last, and degree d >= 1 of the
    last reads only degrees below d of the one before (-a0^-1 N has no
    degree-0 part).  So each degree is contracted once, in place, from the
    lower ones: the product-table terms that land at degree d with a left
    factor of degree >= 1, in table order.  A skipped term has an exactly
    zero factor, and ``np.bincount`` sums from +0.0, so for finite entries
    each degree is bit-identical to the Horner loop's; at degree 0 that
    loop adds its empty sum, +0.0, which turns a -0.0 of a0^-1 into +0.0.
    """
    out = np.zeros(a.shape)  # C order whatever the layout of a, so no row depends on the batch
    out[..., 0] = np.linalg.inv(a[..., 0])
    step = -np.einsum("pab,pbcz->pacz", out[..., 0], a)
    if space.order:
        out[..., 0] += 0.0
    for lo, plan in zip(space.grade_offsets[1:], space._neumann_plan(a.shape[-2])):
        out[..., lo : lo + plan.shape[-1]] = _contract(plan, step, out)
    return out

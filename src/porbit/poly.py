"""Sparse multivariate polynomials and polynomial vector fields.

Everything differentiable in this package (right-hand sides, conserved
quantities, their gradients and Hessians) is polynomial, stored as
``(coefficient, exponent-tuple)`` terms. Each polynomial also builds, on
first use, dense coefficient arrays, one per degree and symmetric in their
indices (`coefficient_arrays`); a field stacks those of its components.
Field values, gradients, Hessians and Jacobians are contractions of these
arrays with x (`derivative_at`), so derivative error never enters the
numerics and no code is generated per call; finite differences exist only as
an independent cross-check in the tests. The Taylor-series integrator reads
the same field arrays.

Only the DP5 loops (`integrate`, `flow` and the shooting residual) use a
plain Python function generated once per field from the term lists
(`compiled`); `compiled_jacobian` is its Jacobian counterpart, kept for
callers outside the package.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np


class Polynomial:
    """Polynomial in ``dimension`` real variables, canonical sparse form.

    Terms with equal exponent tuples are merged and exact-zero coefficients
    dropped; the term order is fixed (sorted by exponents), which keeps every
    evaluation and serialization deterministic.
    """

    __slots__ = ("dimension", "_terms", "_arrays")

    def __init__(self, dimension: int, terms: Iterable[tuple[float, Sequence[int]]] = ()):
        if dimension < 1:
            raise ValueError("polynomial dimension must be positive")
        acc: dict[tuple[int, ...], float] = {}
        for coeff, exps in terms:
            e = tuple(map(int, exps))
            if len(e) != dimension:
                raise ValueError(f"exponent tuple {e} has length {len(e)}, expected {dimension}")
            if min(e) < 0:
                raise ValueError(f"negative exponent in {e}")
            acc[e] = acc.get(e, 0.0) + float(coeff)
        self.dimension = dimension
        self._terms = tuple((c, e) for e, c in sorted(acc.items()) if c != 0.0)
        self._arrays = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dimension: int) -> "Polynomial":
        return cls(dimension)

    @classmethod
    def constant(cls, dimension: int, value: float) -> "Polynomial":
        return cls(dimension, [(value, (0,) * dimension)])

    # -- basic protocol ----------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[float, tuple[int, ...]], ...]:
        return self._terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.dimension == other.dimension
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.dimension, self._terms))

    def __repr__(self) -> str:
        if not self._terms:
            return f"Polynomial({self.dimension}, 0)"
        body = " + ".join(_term_str(c, e) for c, e in self._terms)
        return f"Polynomial({self.dimension}, {body})"

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_dim(other)
        return Polynomial(self.dimension, self._terms + other._terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.dimension, [(-c, e) for c, e in self._terms])

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_same_dim(other)
            prod = []
            for c1, e1 in self._terms:
                for c2, e2 in other._terms:
                    prod.append((c1 * c2, tuple(a + b for a, b in zip(e1, e2))))
            return Polynomial(self.dimension, prod)
        return self.scale(float(other))

    def __rmul__(self, other):
        return self.scale(float(other))

    def scale(self, factor: float) -> "Polynomial":
        return Polynomial(self.dimension, [(factor * c, e) for c, e in self._terms])

    def _check_same_dim(self, other: "Polynomial"):
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")

    # -- calculus ----------------------------------------------------------

    def differentiate(self, index: int) -> "Polynomial":
        """Exact partial derivative with respect to variable ``index``."""
        out = []
        for c, e in self._terms:
            k = e[index]
            if k == 0:
                continue
            new = list(e)
            new[index] = k - 1
            out.append((c * k, tuple(new)))
        return Polynomial(self.dimension, out)

    def coefficient_arrays(self) -> tuple[np.ndarray, ...]:
        """Dense coefficients ``(c, a, B, ...)``, one array per degree.

        Entry ``d`` has shape ``(n,) * d`` and is symmetric in its indices, so
        ``p(x) = sum_d T_d[j1..jd] x_j1 ... x_jd``. A monomial's coefficient
        is split evenly over the distinct orderings of its variable indices.
        Built once, on first use, and read-only.
        """
        if self._arrays is None:
            n = self.dimension
            arrays = [np.zeros((n,) * d) for d in range(self.degree() + 1)]
            for c, e in self._terms:
                indices = [j for j, k in enumerate(e) for _ in range(k)]
                orderings = set(itertools.permutations(indices))
                for index in orderings:
                    arrays[len(indices)][index] = c / len(orderings)
            for a in arrays:
                a.flags.writeable = False
            self._arrays = tuple(arrays)
        return self._arrays

    # -- evaluation --------------------------------------------------------

    def evaluate(self, x) -> float:
        x = np.asarray(x, dtype=float)
        total = 0.0
        for c, e in self._terms:
            v = c
            for i, k in enumerate(e):
                if k == 1:
                    v *= x[i]
                elif k > 1:
                    v *= x[i] ** k
            total += v
        return float(total)

    def evaluate_many(self, states) -> np.ndarray:
        """Evaluate at every row of ``states`` (m x n), vectorized."""
        states = np.asarray(states, dtype=float)
        if not self._terms:
            return np.zeros(states.shape[0])
        coeffs = np.array([c for c, _ in self._terms])
        exps = np.array([e for _, e in self._terms])  # (t, n)
        monos = np.prod(states[:, None, :] ** exps[None, :, :], axis=2)
        return monos @ coeffs

    __call__ = evaluate

    # -- diagnostics and serialization --------------------------------------

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c, _ in self._terms), default=0.0)

    def degree(self) -> int:
        return max((sum(e) for _, e in self._terms), default=0)

    def to_json(self) -> list[dict]:
        return [{"coeff": c, "exps": list(e)} for c, e in self._terms]

    @classmethod
    def from_json(cls, dimension: int, data: Sequence[dict]) -> "Polynomial":
        return cls(dimension, [(d["coeff"], d["exps"]) for d in data])


def _term_str(c: float, e: tuple[int, ...]) -> str:
    parts = [repr(c)]
    for i, k in enumerate(e):
        if k == 1:
            parts.append(f"x{i}")
        elif k > 1:
            parts.append(f"x{i}^{k}")
    return "*".join(parts)


def derivative_at(arrays, x, order: int) -> np.ndarray:
    """Derivative of the given ``order`` at x of the polynomial ``arrays``.

    ``arrays`` are symmetric coefficient arrays, one per degree, as returned
    by ``coefficient_arrays`` (a field's carry one leading component index).
    Degree ``d`` contributes ``d! / (d - order)!`` times its array contracted
    ``d - order`` times with x over its trailing indices, summed by Horner's
    rule from the top degree down; order 0 is the value, 1 the gradient or
    Jacobian, 2 the Hessian. The result is a new array.
    """
    x = np.asarray(x, dtype=float)
    top = len(arrays) - 1
    if top < order:
        return np.zeros(arrays[0].shape + x.shape * order)
    out = math.perm(top, order) * arrays[top]
    for d in range(top - 1, order - 1, -1):
        factor = math.perm(d, order)
        out = out @ x
        out += arrays[d] if factor == 1 else factor * arrays[d]
    return out


def _term_expr(c: float, e: tuple[int, ...]) -> str:
    """Python source fragment for one monomial, used by the code generators."""
    parts = [f"({c!r})"]
    for i, k in enumerate(e):
        if k == 1:
            parts.append(f"x{i}")
        elif k > 1:
            parts.append(f"x{i}**{k}")
    return "*".join(parts)


def _poly_expr(p: Polynomial) -> str:
    if not p.terms:
        return "0.0"
    return " + ".join(_term_expr(c, e) for c, e in p.terms)


class PolynomialVectorField:
    """Autonomous vector field whose components are :class:`Polynomial`.

    Calling the field evaluates the right-hand side from its coefficient
    arrays; ``compiled()`` returns a generated plain-Python closure for the
    DP5 inner loops, and ``compiled_jacobian()`` its Jacobian counterpart.
    """

    def __init__(self, components: Sequence[Polynomial]):
        components = tuple(components)
        if not components:
            raise ValueError("a vector field needs at least one component")
        dim = components[0].dimension
        if any(p.dimension != dim for p in components):
            raise ValueError("all components must share one dimension")
        if len(components) != dim:
            raise ValueError(
                f"{len(components)} components given for dimension {dim}; the field must be square"
            )
        self.dimension = dim
        self.components = components
        self._f = None
        self._jac_polys = None
        self._jac = None
        self._arrays = None

    @classmethod
    def from_terms(cls, dimension: int, term_lists) -> "PolynomialVectorField":
        return cls([Polynomial(dimension, terms) for terms in term_lists])

    @classmethod
    def linear(cls, matrix) -> "PolynomialVectorField":
        """Field x -> A x; handy for tests against closed-form flows."""
        a = np.asarray(matrix, dtype=float)
        n = a.shape[0]
        comps = []
        for i in range(n):
            terms = []
            for j in range(n):
                if a[i, j] != 0.0:
                    e = [0] * n
                    e[j] = 1
                    terms.append((a[i, j], e))
            comps.append(Polynomial(n, terms))
        return cls(comps)

    def __call__(self, x) -> np.ndarray:
        return derivative_at(self.coefficient_arrays(), x, 0)

    def jacobian_polys(self) -> tuple[tuple[Polynomial, ...], ...]:
        if self._jac_polys is None:
            self._jac_polys = tuple(
                tuple(p.differentiate(j) for j in range(self.dimension))
                for p in self.components
            )
        return self._jac_polys

    # -- code generation -----------------------------------------------------

    def compiled(self):
        """Function x -> ndarray(n) generated from the term lists."""
        if self._f is None:
            self._f = self._generate([_poly_expr(p) for p in self.components], "field")
        return self._f

    def compiled_jacobian(self):
        """Function x -> ndarray(n, n) evaluating the exact Jacobian."""
        if self._jac is None:
            rows = [
                "[" + ", ".join(_poly_expr(p) for p in row) + "]"
                for row in self.jacobian_polys()
            ]
            self._jac = self._generate(rows, "jacobian")
        return self._jac

    def coefficient_arrays(self) -> tuple[np.ndarray, ...]:
        """Dense coefficients ``(c, A, B, ...)``, one array per degree.

        Entry ``d`` stacks the components' degree-``d`` arrays (zeros where a
        component has no such terms): shape ``(n,) + (n,) * d``, symmetric in
        its last ``d`` indices, so ``f_i(x) = sum_d T_d[i, j1..jd] x_j1 ...
        x_jd``. At least degrees 0 and 1 are present. Built once, on first use.
        """
        if self._arrays is None:
            n = self.dimension
            top = max(1, *(p.degree() for p in self.components))
            arrays = [np.zeros((n,) + (n,) * d) for d in range(top + 1)]
            for i, p in enumerate(self.components):
                for d, block in enumerate(p.coefficient_arrays()):
                    arrays[d][i] = block
            for a in arrays:
                a.flags.writeable = False
            self._arrays = tuple(arrays)
        return self._arrays

    def _generate(self, items, label: str):
        """Compile x -> np.array([items]) with x unpacked into x0, x1, ..."""
        unpack = "\n".join(f"    x{i} = x[{i}]" for i in range(self.dimension))
        src = f"def _fn(x):\n{unpack}\n    return _np.array([{', '.join(items)}])\n"
        ns = {"_np": np}
        exec(compile(src, f"<porbit-{label}>", "exec"), ns)
        return ns["_fn"]

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "components": [p.to_json() for p in self.components],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PolynomialVectorField":
        n = int(data["dimension"])
        return cls([Polynomial.from_json(n, comp) for comp in data["components"]])

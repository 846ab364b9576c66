"""Sparse multivariate polynomials and polynomial vector fields.

Everything differentiable in this package (right-hand sides, conserved
quantities, their gradients and Hessians) is polynomial, stored as
``(coefficient, exponent-tuple)`` terms. Each polynomial also builds, on
first use, dense coefficient arrays, one per degree and symmetric in their
indices (`coefficient_arrays`); a field stacks those of its components.
Field values, gradients, Hessians and Jacobians are contractions of these
arrays with x (`derivative_at`), so derivative error never enters the
numerics and no code is generated per call; finite differences exist only as
an independent cross-check in the tests. The Taylor-series integrator and
the shooting read the same field arrays.

Plain Python code generated from the term lists serves the DP5 integrator
(`integrate`, `flow`): each field compiles one source, once, on first use,
holding `dp5_step`, one whole Dormand-Prince step as a straight-line
function of floats, and `compiled`, the field as an array (DP5's starting
derivative). `compiled_jacobian` is the array Jacobian of `derivative_at`,
kept for callers outside the package.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np


class Polynomial:
    """Polynomial in ``dimension`` real variables, canonical sparse form.

    Terms with equal exponent tuples are merged, exact-zero coefficients
    dropped and non-finite ones refused; the term order is fixed (sorted by
    exponents), which keeps every evaluation and serialization deterministic.
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
        for c, e in self._terms:
            if not math.isfinite(c):
                raise ValueError(f"non-finite coefficient in term {_term_str(c, e)}")
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
        """Evaluate at every row of ``states`` (m x n), vectorized.

        Each monomial is built from the state columns by repeated products,
        one multiplication per unit of its degree.
        """
        states = np.asarray(states, dtype=float)
        columns = states.T
        monos = np.ones((states.shape[0], len(self._terms)))
        for i, (_, e) in enumerate(self._terms):
            mono = monos[:, i]
            for j, k in enumerate(e):
                for _ in range(k):
                    mono *= columns[j]
        return monos @ np.array([c for c, _ in self._terms])

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
    """Python source fragment for one monomial, used by the code generator."""
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


# Dormand-Prince 5(4) tableau (Hairer, Norsett and Wanner, Solving ODEs I,
# section II.5). The last row of _DP5_A is the fifth-order weights, so the
# last stage is evaluated at the new state and seeds the next step (FSAL);
# _DP5_E is the fifth- minus the fourth-order weights, the error estimate.
_DP5_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP5_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _weighted(weights, j: int) -> str:
    """Source of sum_i weights[i] * k{i}_{j} over the nonzero weights."""
    return " + ".join(f"({w!r})*k{i}_{j}" for i, w in enumerate(weights) if w != 0.0)


def _source(exprs) -> str:
    """Source of ``field(x)`` and ``step(y, k, h, atol, rtol)`` for the field
    with component sources ``exprs`` in x0, x1, ...

    ``field`` reads x{j} = x[j] and returns an ndarray. In ``step``, stage
    i's derivative is k{i}_0, k{i}_1, ...; each stage first sets every x{j}
    to its input state, so after the last stage x{j} holds the new state.
    """
    n = len(exprs)
    field = [f"x{j} = x[{j}]" for j in range(n)] + [f"return _np.array([{', '.join(exprs)}])"]
    ys = ", ".join(f"y{j}" for j in range(n))
    step = [f"{ys}, = y", f"{', '.join(f'k0_{j}' for j in range(n))}, = k"]
    for i, row in enumerate(_DP5_A, start=1):
        step += [f"x{j} = y{j} + h * ({_weighted(row, j)})" for j in range(n)]
        step += [f"k{i}_{j} = {expr}" for j, expr in enumerate(exprs)]
    step += [
        f"e{j} = h * ({_weighted(_DP5_E, j)}) / (atol + rtol * max(abs(y{j}), abs(x{j})))"
        for j in range(n)
    ]
    new = ", ".join(f"x{j}" for j in range(n))
    last = ", ".join(f"k{len(_DP5_A)}_{j}" for j in range(n))
    squares = " + ".join(f"e{j} * e{j}" for j in range(n))
    step.append(f"return ({new},), ({last},), _sqrt(({squares}) / {n})")
    functions = (("field(x)", field), ("step(y, k, h, atol, rtol)", step))
    return "".join(f"def {head}:\n" + "".join(f"    {line}\n" for line in body)
                   for head, body in functions)


class PolynomialVectorField:
    """Autonomous vector field whose components are :class:`Polynomial`.

    Calling the field evaluates the right-hand side from its coefficient
    arrays, as the Taylor integrator and the shooting do. One generated
    source serves DP5: ``dp5_step()`` is one Dormand-Prince step and
    ``compiled()`` the field as a plain-Python function of x.
    ``compiled_jacobian()`` is the Jacobian from the coefficient arrays.
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
        self._jac = None
        self._code = None
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

    # -- code generation -----------------------------------------------------

    def _generated(self) -> dict:
        """Namespace of the field's generated code, compiled once, on first use."""
        if self._code is None:
            code = {"_np": np, "_sqrt": math.sqrt}
            src = _source([_poly_expr(p) for p in self.components])
            exec(compile(src, "<porbit-field>", "exec"), code)
            self._code = code
        return self._code

    def compiled(self):
        """Function x -> ndarray(n), the field generated from the term lists."""
        if self._f is None:
            self._f = self._generated()["field"]
        return self._f

    def compiled_jacobian(self):
        """Function x -> ndarray(n, n), the exact Jacobian from the coefficient arrays."""
        if self._jac is None:
            arrays = self.coefficient_arrays()
            self._jac = lambda x: derivative_at(arrays, x, 1)
        return self._jac

    def dp5_step(self):
        """One Dormand-Prince 5(4) step as a generated function of floats.

        ``step(y, k, h, atol, rtol)`` takes the state y and the field's value
        k there, as sequences of floats, and returns ``(y_new, k_new, err)``:
        the fifth-order state after time h, the field's value at it (first
        same as last), and the root mean square of the local error estimate
        divided by ``atol + rtol * max(|y|, |y_new|)``. A negative h steps
        backwards in time. A stage whose power overflows raises
        ``OverflowError``.
        """
        return self._generated()["step"]

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

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "components": [p.to_json() for p in self.components],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PolynomialVectorField":
        n = int(data["dimension"])
        return cls([Polynomial.from_json(n, comp) for comp in data["components"]])

"""Multiplicities, projection operators, and orthonormal bases of
deck-periodic harmonics for the two cubic space forms.

Degree-j harmonics on S^3 are spanned by the (2j+1)^2 matrix elements
D^j_{m1,m2}(u).  A deck group H of order 8 acts on them; the dimension of
the H-invariant subspace is the multiplicity m(j), computed here by
character averaging, and realized concretely by closed-form combinations
of one or two matrix elements.

A harmonic sum_{m1,m2} X[m1,m2] D_{m1,m2}(u) has the coefficient matrix X
(rows m1, columns m2, both descending).  Precomposing it with
u -> wl^-1 u wr sends X to A X B^T, A = D(wl^-1)^T and B = D(wr): the map
kron(A, B) on the row-major flattening that coefficient_vector uses.

Normalization: the emitted functions have unit norm under the UNNORMALIZED
Euler measure da sin(b) db dg of total mass 8 pi^2.  The quadrature inner
product in this package divides by 8 pi^2, so Gram matrices are assembled
as 8 pi^2 times quadrature inner products.

The Gram matrix sums an Euler product rule in separable order: every term
factorises as e^{i m1 a} d^j_{m1 m2}(b) e^{i m2 g}, the alpha and gamma
means over the uniform grids are exact Kronecker deltas modulo the grid
sizes, and only the Gauss-Legendre sum over beta is numeric, with d^j from
the stable kernel.  It equals the sum over the product nodes, aliasing of
a too-coarse rule included, and never evaluates a function at a node.
Pointwise values (periodicity, `evaluate`) use the monomial kernel.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import groupcore as gc
from .deck import DeckGroup, build_cyclic8, build_quaternion
from .su2 import matrix_from_point
from .wigner import (
    _point_entries,
    _scalar_or_array,
    _two_j,
    _wigner_columns,
    _wigner_matrices,
    _wigner_small_d,
    character_jj,
    euler_quadrature,
)

__all__ = [
    "BasisFunction",
    "basis_c2",
    "basis_c3",
    "basis_for",
    "gram_matrix",
    "multiplicity_c8",
    "multiplicity_q",
    "multiplicity_for",
    "projector_c8",
    "projector_q",
    "verify_basis",
]

_MEASURE_MASS = 8.0 * math.pi**2


def _require_integer_j(j) -> int:
    two_j = _two_j(j)
    if two_j % 2:
        raise ValueError(f"degree must be a non-negative integer, got {j}")
    return two_j // 2


def _is_half_integer(j) -> bool:
    return _two_j(j) % 2 == 1


def _character_average(group: DeckGroup, j) -> int:
    """Multiplicity of the trivial representation of the deck group in
    degree j: the character average, which must be a clean non-negative
    integer.  Half-integer degree carries no periodic states because both
    deck groups contain the central inversion.
    """
    if _is_half_integer(j):
        return 0
    jj = _require_integer_j(j)
    total = sum(character_jj(el.pair, jj) for el in group.elements) / len(group.elements)
    value = int(round(total))
    if abs(total - value) > 1e-9 or value < 0:
        raise RuntimeError(f"character sum for degree {jj} is not a clean non-negative integer: {total}")
    return value


def multiplicity_c8(j) -> int:
    """Number of cyclic-8 periodic harmonics of degree j, by character average."""
    return _character_average(build_cyclic8(), j)


def multiplicity_q(j) -> int:
    """Number of quaternion-periodic harmonics of degree j, in closed form."""
    if _is_half_integer(j):
        return 0
    jj = _require_integer_j(j)
    n = 2 * jj + 1
    numerator = 2 * n * (n + 3 * (-1) ** jj)
    if numerator % 8:
        raise RuntimeError(f"closed form for degree {jj} is not integral")
    return numerator // 8


def multiplicity_q_character_sum(j) -> int:
    """Independent route to multiplicity_q via the character average."""
    return _character_average(build_quaternion(), j)


def _by_manifold(manifold: str, for_c2, for_c3):
    key = manifold.strip().upper()
    if key not in ("C2", "C3"):
        raise ValueError(f"unknown manifold {manifold!r}; expected C2 or C3")
    return for_c2 if key == "C2" else for_c3


def multiplicity_for(manifold: str, j) -> int:
    return _by_manifold(manifold, multiplicity_c8, multiplicity_q)(j)


def _deck_operators(group: DeckGroup, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacks of A_h = D(wl^-1)^T and B_h = D(wr) over the deck elements h,
    from one kernel call over all the lifts, each checked to be unitary."""
    lifts = np.stack(
        [(el.pair.left.inverse().to_complex(), el.pair.right.to_complex()) for el in group.elements]
    )
    mats = _wigner_matrices(2 * j, _point_entries(lifts))
    # contiguous copies: returning views of the joint stack raised the peak
    # RSS of projector_c8 at j = 16..20 by 17 MB (allocator layout)
    return np.ascontiguousarray(mats[:, 0].swapaxes(-1, -2)), np.ascontiguousarray(mats[:, 1])


def _deck_average(left: np.ndarray, right: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Group average P(X) = mean_h A_h X B_h^T of each coefficient matrix X
    in mats (shape (..., 2j+1, 2j+1)), never forming the (2j+1)^2 square."""
    return sum(a @ mats @ b.T for a, b in zip(left, right)) / len(left)


def _span_projector(functions: list[BasisFunction], size: int, place) -> np.ndarray:
    """Orthogonal projector onto the span of closed-form records: the sum of
    c c^H / |c|^2 over each record's terms c, at the indices place(m1, m2)."""
    out = np.zeros((size, size), dtype=complex)
    for f in functions:
        index = [place(m1, m2) for m1, m2, _ in f.terms]
        c = np.array([coef for _, _, coef in f.terms])
        out[np.ix_(index, index)] += np.outer(c, c.conj()) / np.vdot(c, c).real
    return out


def projector_c8(j) -> tuple[np.ndarray, np.ndarray]:
    """Projector onto cyclic-8 invariant harmonics, by two routes.

    Returns (averaged, closed_form) on the (2j+1)^2 space; the first is the
    group average of representation operators, the second the projector
    onto the span of the closed-form basis `basis_c2`.  Agreement of the
    two is a standing cross-check.
    """
    jj = _require_integer_j(j)
    dim = 2 * jj + 1
    left, right = _deck_operators(build_cyclic8(), jj)
    averaged = np.zeros((dim * dim, dim * dim), dtype=complex)
    for a, b in zip(left, right):
        averaged += np.kron(a, b)
    averaged /= len(left)
    closed = _span_projector(basis_c2(jj), dim * dim, lambda m1, m2: (jj - m1) * dim + (jj - m2))
    return averaged, closed


def projector_q(j) -> tuple[np.ndarray, np.ndarray]:
    """Projector onto quaternion-invariant harmonics on the m1 index alone.

    The quaternion deck elements act from one side only (every B_h is the
    identity, which is checked), so the operator is the (2j+1) x (2j+1)
    mean of the A_h and applies identically for every m2.  Returns
    (averaged, closed_form), the second the projector onto the span of the
    closed-form basis `basis_c3` at any one m2; trace times (2j+1) is the
    multiplicity.
    """
    jj = _require_integer_j(j)
    dim = 2 * jj + 1
    left, right = _deck_operators(build_quaternion(), jj)
    if np.max(np.abs(right - np.eye(dim))) > 1e-12:
        raise RuntimeError(f"a quaternion deck element acts on the right at degree {jj}")
    averaged = left.sum(axis=0) / len(left)
    records = [f for f in basis_c3(jj) if f.m2 == jj]
    closed = _span_projector(records, dim, lambda m1, m2: jj - m1)
    return averaged, closed


@dataclass(frozen=True)
class BasisFunction:
    """One orthonormal deck-periodic harmonic, stored symbolically.

    terms lists (m1, m2, coefficient) for the participating matrix
    elements; evaluation multiplies the sum by norm_factor.
    """

    manifold: str
    j: int
    m1: int
    m2: int
    kind: str
    terms: tuple[tuple[int, int, complex], ...]
    norm_factor: float

    def evaluate(self, u):
        """Value at u: EulerAngles, a 2x2 unitary, stacked matrices, or an
        exact matrix; broadcasts over arrays."""
        return _scalar_or_array(_basis_values([self], u)[..., 0])

    def coefficient_vector(self) -> np.ndarray:
        """Coefficients on the (2j+1)^2 space, (m1, m2) both descending."""
        dim = 2 * self.j + 1
        vec = np.zeros(dim * dim, dtype=complex)
        for tm1, tm2, coef in self.terms:
            vec[(self.j - tm1) * dim + (self.j - tm2)] = coef
        return self.norm_factor * vec

    def to_json_dict(self) -> dict:
        return {
            "manifold": self.manifold,
            "j": self.j,
            "m1": self.m1,
            "m2": self.m2,
            "kind": self.kind,
            "terms": [
                {"m1p": tm1, "m2p": tm2, "re": coef.real, "im": coef.imag}
                for tm1, tm2, coef in self.terms
            ],
            "norm_factor": self.norm_factor,
        }


def _basis_values(functions: list[BasisFunction], u) -> np.ndarray:
    """Values of every function at u, one column per function in list order.

    The point argument is parsed once.  Per degree, only the D^j entries
    that some coefficient vector touches are evaluated, once each, and the
    columns are those entries times the sparse coefficient matrix whose
    rows are the coefficient vectors.
    """
    entries = _point_entries(u)
    shape = np.broadcast_shapes(*(np.shape(v) for v in entries))
    out = np.zeros(shape + (len(functions),), dtype=complex)
    for j in sorted({f.j for f in functions}):
        index = [i for i, f in enumerate(functions) if f.j == j]
        coef = np.stack([functions[i].coefficient_vector() for i in index])
        rows, flat = np.nonzero(coef)
        touched, slot = np.unique(flat, return_inverse=True)
        dim = 2 * j + 1
        pairs = [(2 * (j - k // dim), 2 * (j - k % dim)) for k in touched]
        entry_values = _wigner_columns(2 * j, pairs, entries)
        for r, col, k in zip(rows, slot, flat):
            out[..., index[r]] += coef[r, k] * entry_values[..., col]
    return out


def _single_norm(j: int) -> float:
    return math.sqrt(2 * j + 1) / (math.sqrt(8.0) * math.pi)


def _double_norm(j: int) -> float:
    return math.sqrt(2 * j + 1) / (4.0 * math.pi)


def _sorted_checked(out: list[BasisFunction], expected: int, j: int) -> list[BasisFunction]:
    """Sort by (j, m1, m2) and refuse a count that misses the multiplicity."""
    out.sort(key=lambda f: (f.j, f.m1, f.m2))
    if len(out) != expected:
        raise RuntimeError(f"basis count {len(out)} disagrees with multiplicity {expected} at degree {j}")
    return out


def basis_c2(j) -> list[BasisFunction]:
    """Orthonormal cyclic-8 periodic harmonics of integer degree j.

    Even m1 throughout.  The m2 = 0 element survives alone only when its
    self-pairing phase i^{m1} (-1)^j equals +1; every m2 > 0 pairs with
    -m2 in a fixed phase combination.
    """
    jj = _require_integer_j(j)
    out = []
    for m1 in range(-jj, jj + 1):
        if m1 % 2:
            continue
        self_phase = (1j) ** m1 * (-1.0) ** jj
        if abs(self_phase - 1.0) < 1e-12:
            out.append(
                BasisFunction(
                    manifold="C2",
                    j=jj,
                    m1=m1,
                    m2=0,
                    kind="single-term",
                    terms=((m1, 0, 1.0 + 0j),),
                    norm_factor=_single_norm(jj),
                )
            )
        for m2 in range(1, jj + 1):
            phase = (1j) ** m1 * (-1.0) ** (jj + m2) * (1j) ** m2
            out.append(
                BasisFunction(
                    manifold="C2",
                    j=jj,
                    m1=m1,
                    m2=m2,
                    kind="two-term-sum",
                    terms=((m1, m2, 1.0 + 0j), (m1, -m2, complex(phase))),
                    norm_factor=_double_norm(jj),
                )
            )
    return _sorted_checked(out, multiplicity_c8(jj), jj)


def basis_c3(j) -> list[BasisFunction]:
    """Orthonormal quaternion-periodic harmonics of integer degree j.

    Odd degree pairs m1 with -m1 in differences (even m1 > 0); even degree
    keeps the m1 = 0 elements and pairs the rest in sums.  All m2 appear.
    """
    jj = _require_integer_j(j)
    out = []
    if jj % 2 == 0:
        for m2 in range(-jj, jj + 1):
            out.append(
                BasisFunction(
                    manifold="C3",
                    j=jj,
                    m1=0,
                    m2=m2,
                    kind="single-term",
                    terms=((0, m2, 1.0 + 0j),),
                    norm_factor=_single_norm(jj),
                )
            )
    sign = 1.0 if jj % 2 == 0 else -1.0
    kind = "two-term-sum" if jj % 2 == 0 else "two-term-difference"
    for m1 in range(2, jj + 1, 2):
        for m2 in range(-jj, jj + 1):
            out.append(
                BasisFunction(
                    manifold="C3",
                    j=jj,
                    m1=m1,
                    m2=m2,
                    kind=kind,
                    terms=((m1, m2, 1.0 + 0j), (-m1, m2, complex(sign))),
                    norm_factor=_double_norm(jj),
                )
            )
    return _sorted_checked(out, multiplicity_q(jj), jj)


def basis_for(manifold: str, j) -> list[BasisFunction]:
    return _by_manifold(manifold, basis_c2, basis_c3)(j)


def gram_matrix(functions: list[BasisFunction], rule=None) -> np.ndarray:
    """Inner-product matrix under the unnormalized Euler measure.

    Sums the Euler product rule (by default the one exact at twice the
    largest degree) in separable order.  The means of e^{i k a} over n
    uniform nodes are [k = 0 mod n], so a term meets only the terms of its
    channel (m1 mod n_alpha, m2 mod n_gamma); within a channel the sum over
    beta runs over the Gauss-Legendre nodes with weight w_b / 2.
    """
    if not functions:
        return np.zeros((0, 0), dtype=complex)
    if rule is None:
        rule = euler_quadrature(2 * max(f.j for f in functions))
    n_alpha, n_beta, n_gamma = rule.shape
    root_w = np.sqrt(rule.beta_weights / 2.0)[:, None, None]
    small_d = {j: _wigner_small_d(2 * j, rule.beta) * root_w for j in {f.j for f in functions}}
    # channel -> {function index: its weighted beta profile in that channel}
    channels = defaultdict(dict)
    for i, f in enumerate(functions):
        for m1, m2, coef in f.terms:
            profile = channels[(m1 % n_alpha, m2 % n_gamma)].setdefault(i, np.zeros(n_beta, dtype=complex))
            profile += (f.norm_factor * coef) * small_d[f.j][:, f.j - m1, f.j - m2]
    gram = np.zeros((len(functions), len(functions)), dtype=complex)
    for profiles in channels.values():
        index = list(profiles)
        block = np.stack(list(profiles.values()), axis=1)
        gram[np.ix_(index, index)] += block.conj().T @ block
    gram *= _MEASURE_MASS
    return gram


def verify_basis(
    functions: list[BasisFunction],
    group: DeckGroup,
    seed: int = 42,
    tol: float = 1e-10,
    n_points: int = 100,
) -> dict:
    """Audit a basis list against a deck group; returns a JSON-able report.

    Covers orthonormality (including cross-degree blocks), pointwise
    periodicity under every deck element at seeded sample points, and
    agreement with the group average P of each degree, applied to
    coefficient matrices: P fixes each basis matrix, P is idempotent at
    seeded probe matrices, and its rank round(trace P), with
    trace P = mean_h tr A_h tr B_h, equals the count.
    """
    report: dict = {"manifold": None, "seed": seed, "tol": tol, "n_points": n_points}
    if not functions:
        report.update({"count": 0, "passed": True})
        return report
    manifolds = {f.manifold for f in functions}
    if len(manifolds) != 1:
        raise ValueError("basis list mixes manifolds")
    manifold = manifolds.pop()
    report["manifold"] = manifold
    degrees = sorted({f.j for f in functions})
    report["degrees"] = degrees
    report["count_by_degree"] = {j: sum(1 for f in functions if f.j == j) for j in degrees}
    report["multiplicity_by_degree"] = {j: multiplicity_for(manifold, j) for j in degrees}
    counts_ok = report["count_by_degree"] == report["multiplicity_by_degree"]

    gram = gram_matrix(functions)
    gram[np.diag_indices_from(gram)] -= 1.0
    gram_err = float(np.max(np.abs(gram)))
    del gram
    report["gram_max_error"] = gram_err

    # the base points and their images under every element, in one call
    points = gc.random_sphere_points(n_points, seed=seed)
    moved = np.stack([points] + [gc.apply(el.element, points) for el in group.elements])
    values = _basis_values(functions, matrix_from_point(moved))
    period_err = float(np.max(np.abs(values[1:] - values[0])))
    report["periodicity_max_error"] = period_err

    blocks = report["projector"] = {}
    rng = np.random.default_rng(seed)
    for j in degrees:
        dim = 2 * j + 1
        left, right = _deck_operators(group, j)
        mats = np.stack([f.coefficient_vector().reshape(dim, dim) for f in functions if f.j == j])
        probes = (rng.standard_normal((3, dim, dim)) + 1j * rng.standard_normal((3, dim, dim))) / math.sqrt(2.0)
        once = _deck_average(left, right, probes)
        trace = float(np.mean(np.trace(left, axis1=1, axis2=2) * np.trace(right, axis1=1, axis2=2)).real)
        blocks[j] = {
            "rank": round(trace),
            "expected_rank": report["multiplicity_by_degree"][j],
            "trace": trace,
            "fix_max_error": float(np.max(np.abs(_deck_average(left, right, mats) - mats))),
            "idempotence_max_error": float(np.max(np.abs(_deck_average(left, right, once) - once))),
        }
    ranks_ok = all(b["rank"] == b["expected_rank"] for b in blocks.values())
    proj_err = max(max(b["fix_max_error"], b["idempotence_max_error"]) for b in blocks.values())

    report["passed"] = bool(
        counts_ok and gram_err < tol and period_err < tol and ranks_ok and proj_err < tol
    )
    return report

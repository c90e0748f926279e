"""Multiplicities, projection operators, and orthonormal bases of
deck-periodic harmonics for the two cubic space forms.

Degree-j harmonics on S^3 are spanned by the (2j+1)^2 matrix elements
D^j_{m1,m2}(u).  A deck group H of order 8 acts on them; the dimension of
the H-invariant subspace is the multiplicity m(j), counted for each
manifold by a character average and by a closed form, and realized by
closed-form combinations of one or two matrix elements.  `MANIFOLDS` is the
one place a manifold's deck group, mesh, counts and census column meet.

Each basis is a table (`_Basis`): a column per field of its functions and
the `_Terms` of all their terms, each with its (m1, m2).  `_mesh_c2` and
`_mesh_c3` build it for a range of degrees from the selection rules, as
masks over (j, m1, m2) meshes; `basis_c2` and `basis_c3` return
BasisFunction records as views of it, and `_terms` walks any list of
records back into one.  Every check reads the table, and `verify_basis`
audits it in one walk over its degrees, without making a record.  Only the
exact audit and the projectors read a term's flat index (`_Terms.flat`).
The values at points come from the one pointwise evaluator,
`wigner._slot_values`, which takes each degree's term columns and lays out
its own grid; a single record is evaluated without a table.

A harmonic sum_{m1,m2} X[m1,m2] D_{m1,m2}(u) has the coefficient matrix X
(rows m1, columns m2, both descending).  Precomposing it with
u -> wl^-1 u wr sends X to A X B^T, A = D(wl^-1)^T and B = D(wr): the map
kron(A, B) on the row-major flattening that `_Terms.flat` indexes.  Every
lift of both deck groups is diag(z, w) or [[0, b], [c, 0]] with eighth
roots of unity as entries, so D^j of it has one nonzero per row and each
deck element moves the (2j+1)^2 index pairs by a permutation times an
eighth root of unity.  `_deck_action` reads that gather and its exponents
mod 8 exactly off the Su2Exact lifts.  The projector ranks (orbits with
trivial stabiliser phase), the homomorphism check, the check that each
element fixes each basis function (an integer comparison of exponents,
`_fixed`) and the dense `averaged` projectors are all built from it, with
no Wigner kernel and no tolerance on the deck path.  Both dense
projectors hold about one nonzero a row, and are scattered into a lazily
zero-filled private map (`_lazy_zeros`), so only the pages written become
resident and not every huge page numpy advises for a large `np.zeros`.

Normalization: the emitted functions have unit norm under the UNNORMALIZED
Euler measure da sin(b) db dg of total mass 8 pi^2.  The quadrature inner
product in this package divides by 8 pi^2, so Gram matrices are assembled
as 8 pi^2 times quadrature inner products.

The Gram matrix sums an Euler product rule in separable order: every term
factorises as e^{i m1 a} d^j_{m1 m2}(b) e^{i m2 g}, the alpha and gamma
means over the uniform grids are exact Kronecker deltas modulo the grid
sizes, and only the Gauss-Legendre sum over beta is numeric.  Its d^j comes
from the three-term recurrence in degree at fixed (m1, m2)
(`_small_d_by_degree`), seeded at the nodes t = cos(beta) themselves, and
not from the Delta-product kernel the pointwise values read, so the Gram and the
periodicity check take d^j by two independent routes.  It equals the sum
over the product nodes, aliasing of a too-coarse rule included, and never
evaluates a function at a node.  `_gram_entries` is the one place it is
summed, into the list of nonzero entries (two functions meet only in a
shared channel): the channels that functions join are summed set by set,
through one padded grid per set and with no sort by key, in batches of
bounded size that take their pairs' d^j across every degree and drop it.
`gram_matrix` scatters them into the dense matrix and `verify_basis`
reduces them batch by batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import groupcore as gc
from .deck import DeckGroup, _manifold_name, build_cyclic8, build_quaternion, deck_group, product_table
from .su2 import _MU8, IsoPair, Su2Exact, matrix_from_point
from .wigner import (
    _entry_sum,
    _points,
    _runs,
    _scalar_or_array,
    _slot_values,
    _small_d_by_degree,
    _two_j,
    _two_m,
    character_jj,
    euler_quadrature,
)

__all__ = [
    "BasisFunction",
    "MANIFOLDS",
    "Manifold",
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
# term rows times beta nodes per batch of channel sets in `_gram_entries`
_GRAM_BUDGET = 2**20


def _require_integer_j(j) -> int:
    two_j = _two_j(j)
    if two_j % 2:
        raise ValueError(f"degree must be a non-negative integer, got {j}")
    return two_j // 2


def _character_average(group: DeckGroup, j) -> int:
    """Multiplicity of the trivial representation of the deck group in
    degree j, by `gc.identity_multiplicity`.  Half-integer degree carries no
    periodic states because both deck groups contain the central inversion.
    """
    two_j = _two_j(j)
    if two_j % 2:
        return 0
    return gc.identity_multiplicity(group.elements, lambda el: character_jj(el.pair, two_j // 2))


def multiplicity_c8(j) -> int:
    """Number of cyclic-8 periodic harmonics of degree j, by character average."""
    return _character_average(build_cyclic8(), j)


def multiplicity_q(j) -> int:
    """Number of quaternion-periodic harmonics of degree j, in closed form."""
    two_j = _two_j(j)
    if two_j % 2:
        return 0
    jj = two_j // 2
    n = two_j + 1
    numerator = 2 * n * (n + 3 * (-1) ** jj)
    if numerator % 8:
        raise RuntimeError(f"closed form for degree {jj} is not integral")
    return numerator // 8


def multiplicity_q_character_sum(j) -> int:
    """Independent route to multiplicity_q via the character average."""
    return _character_average(build_quaternion(), j)


def multiplicity_c8_closed_form(j) -> int:
    """Independent route to multiplicity_c8: 4 m(j) = (2j+1)^2 - 1 + (-1)^j (4 + 8 floor(j/4))."""
    two_j = _two_j(j)
    jj = two_j // 2
    return 0 if two_j % 2 else ((two_j + 1) ** 2 - 1 + (-1) ** jj * (4 + 8 * (jj // 4))) // 4


def _monomial_form(mat: Su2Exact) -> tuple[bool, int, int]:
    """(anti, e1, e2) of a lift diag(mu8^e1, mu8^e2) (anti False) or
    [[0, mu8^e1], [mu8^e2, 0]] (anti True), read exactly off its entries;
    refuses any other lift."""
    (a, b), (c, d) = mat.entries
    if b.is_zero() and c.is_zero():
        return False, a.root_exponent(), d.root_exponent()
    if a.is_zero() and d.is_zero():
        return True, b.root_exponent(), c.root_exponent()
    raise ValueError(f"lift {mat} is neither diagonal nor anti-diagonal")


def _monomial_rows(forms, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Column of the one nonzero entry in each row of D^j of a lift of the
    given `_monomial_form`, and its exponent mod 8 (rows m1 = j..-j along
    the last axis); forms may be stacked, (anti, e1, e2) each an array:

        D^j(diag(a, d))_{m1 m1}        = a^{j+m1} d^{j-m1}
        D^j([[0, b], [c, 0]])_{m1,-m1} = b^{j+m1} c^{j-m1}

    Either map of rows to columns is its own inverse."""
    anti, e1, e2 = (np.asarray(v)[..., None] for v in forms)
    m1 = np.arange(j, -j - 1, -1)
    cols = np.where(anti, np.arange(2 * j, -1, -1), np.arange(2 * j + 1))
    return cols, ((j + m1) * e1 + (j - m1) * e2) % 8


@lru_cache(maxsize=None)
def _pair_forms(pair: IsoPair) -> tuple[tuple[bool, int, int], tuple[bool, int, int]]:
    """`_monomial_form` of wl^-1 and of wr for the pair (wl, wr)."""
    return _monomial_form(pair.left.inverse()), _monomial_form(pair.right)


def _deck_action(group: DeckGroup, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact action X -> A_h X B_h^T of every deck element h on the
    flattened degree-j coefficient matrices, A_h = D(wl^-1)^T, B_h = D(wr).

    Every lift is monomial, so the action is a gather times an eighth root
    of unity: (A_h X B_h^T).flat[i] = mu8[phase[h, i]] * X.flat[gather[h, i]].
    Returns (gather, phase), each of shape (|H|, (2j+1)^2), read exactly off
    the Su2Exact lifts; refuses a lift that is not diagonal or
    anti-diagonal and an entry that is not an eighth root of unity.  Each
    lift maps rows to columns by an involution, so every gather is one too.
    """
    dim = 2 * j + 1
    forms = [_pair_forms(el.pair) for el in group.elements]
    # entry (p, q) of A_h X B_h^T reads X at the row whose nonzero in D(wl^-1)
    # lies in column p, which is lcols[p], and at the column of the nonzero
    # in row q of D(wr)
    (lcols, lexp), (rcols, rexp) = (_monomial_rows(zip(*side), j) for side in zip(*forms))
    gather = (lcols[:, :, None] * dim + rcols[:, None, :]).reshape(-1, dim * dim)
    lexp = np.take_along_axis(lexp, lcols, axis=1).astype(np.int8)
    phase = lexp[:, :, None] + rexp.astype(np.int8)[:, None, :]
    return gather, (phase & 7).reshape(-1, dim * dim)


def _is_homomorphism(gather: np.ndarray, phase: np.ndarray, table) -> bool:
    """Whether composing the actions matches the product table exactly:
    the element table[a][b] (a acts first on points) must act on
    coefficients as a after b, with gathers composed and exponents added
    mod 8."""
    if any(c is None for row in table for c in row):
        return False
    table = np.array(table, dtype=np.intp)
    h = np.arange(len(gather))
    # composed[a, b, i] = gather[b, gather[a, i]]
    composed = gather[h[None, :, None], gather[:, None, :]]
    summed = (phase[:, None, :] + phase[h[None, :, None], gather[:, None, :]]) & 7
    return bool(np.array_equal(composed, gather[table]) and np.array_equal(summed, phase[table]))


def _invariant_orbits(gather: np.ndarray, phase: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orbits of the index pairs that carry an invariant vector.

    Returns (rep, orbit_phase, invariant): rep[i] is the smallest index of
    the orbit of i, the invariant vector of that orbit has the entry
    mu8[orbit_phase[i]] at i (and 1 at its representative), and invariant
    lists the representatives of the orbits whose stabiliser acts with
    exponent 0.  Their number is the rank of the group average.
    """
    index = np.arange(gather.shape[1])
    rep = gather.min(axis=0)
    orbit_phase = np.empty_like(phase[0])
    for g, p in zip(gather[::-1], phase[::-1]):
        orbit_phase[g == rep] = p[g == rep]
    twisted = np.zeros(len(index), dtype=bool)
    twisted[rep[np.any((gather == index) & (phase != 0), axis=0)]] = True
    return rep, orbit_phase, np.flatnonzero((rep == index) & ~twisted)


class _Terms(NamedTuple):
    """Every term of a list of functions, one entry each, sorted by degree
    and, within a degree, in list order: the owner's position in the list,
    its degree, its labels (m1, m2), the closed-form coefficient and the
    owner's norm factor."""

    owner: np.ndarray
    j: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    coef: np.ndarray
    norm: np.ndarray

    def degree(self, j) -> _Terms:
        """The terms of degree j, one slice of the table."""
        lo, hi = np.searchsorted(self.j, [j, j + 1])
        return _Terms(*(v[lo:hi] for v in self))

    @property
    def flat(self) -> np.ndarray:
        """Each term's index (j - m1)(2j + 1) + (j - m2) in its function's
        coefficient vector, (m1, m2) both descending."""
        return (self.j - self.m1) * (2 * self.j + 1) + (self.j - self.m2)

    def slot_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The flat term columns `_slot_values` takes: each term's
        (2 m1, 2 m2), its owner and its weight, norm times coefficient."""
        return 2 * np.stack([self.m1, self.m2], axis=-1), self.owner, self.norm * self.coef


class _Basis(NamedTuple):
    """A list of functions as columns: the manifold they share (None if the
    list is empty or mixes manifolds), each function's j, m1, m2, kind and
    norm factor in list order, and the `_Terms` of their terms."""

    manifold: str | None
    j: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    kind: np.ndarray
    norm: np.ndarray
    terms: _Terms


def _integers(values) -> np.ndarray:
    """values as an integer array; refuses any that is not an integer."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr) & (arr == np.round(arr))):
        raise ValueError("degrees and (m1, m2) labels must be integers")
    return arr.astype(np.intp)


def _terms(functions: list[BasisFunction]) -> _Basis:
    """The one walk over a list of functions, into the table the meshes
    build.  Refuses with ValueError a degree that is not a non-negative
    integer, and a term whose labels are not integers or whose |m1| or |m2|
    exceeds its degree: its flat index would land on another entry."""
    rows = [(f.manifold, f.j, f.m1, f.m2, f.kind, f.norm_factor, len(f.terms)) for f in functions]
    manifold, j, m1, m2, kind, norm, count = zip(*rows) if rows else ((),) * 7
    flat = [term for f in functions for term in f.terms]
    tm1, tm2, coef = zip(*flat) if flat else ((),) * 3
    j, m1, m2, tm1, tm2 = map(_integers, (j, m1, m2, tm1, tm2))
    owner = np.repeat(np.arange(len(j)), np.asarray(count, dtype=np.intp))
    tj = j[owner]
    if np.any(j < 0) or np.any((np.abs(tm1) > tj) | (np.abs(tm2) > tj)):
        raise ValueError("degrees must be non-negative, and no |m1| or |m2| of a term may exceed its degree")
    norm = np.array(norm, dtype=float)
    columns = (owner, tj, tm1, tm2, np.array(coef, dtype=complex), norm[owner])
    order = np.argsort(tj, kind="stable")
    terms = _Terms(*(v[order] for v in columns))
    manifolds = set(manifold)
    manifold = manifolds.pop() if len(manifolds) == 1 else None
    return _Basis(manifold, j, m1, m2, np.array(kind, dtype=object), norm, terms)


def _root_exponents(coef: np.ndarray) -> np.ndarray | None:
    """Each coefficient's k with coef == mu8^k exactly; None unless all are eighth roots of unity."""
    exps = np.rint(np.nan_to_num(np.angle(coef)) * 4.0 / np.pi).astype(int) & 7  # a NaN warns in a cast
    return exps if np.array_equal(coef, _MU8[exps]) else None


def _fixed(gather: np.ndarray, phase: np.ndarray, terms: _Terms) -> bool:
    """Whether every deck element fixes each function of one degree exactly,
    given by their terms: each coefficient is mu8^e, and each element h maps
    the multiset of (function, position, e) of the terms onto itself, term i
    to (function, gather[h, i], e[i] - phase[h, i] mod 8).  This suffices,
    and is needed where no function names a position twice, as each gather
    is a permutation.  True without terms; the norm does not enter."""
    exps = _root_exponents(terms.coef)
    if exps is None:
        return False
    # each term's (function, position, e) as one integer, and its image under each element
    start = terms.owner * gather.shape[1]
    held = np.sort((start + terms.flat) * 8 + exps)
    moved = np.sort((start + gather[:, terms.flat]) * 8 + ((exps - phase[:, terms.flat]) & 7), axis=1)
    return bool(np.all(moved == held))


def _matches_orbits(terms: _Terms, rep, orbit_phase, invariant) -> bool:
    """Whether the functions of one degree, given by their terms, are
    exactly the invariant orbit vectors up to normalisation: one function
    per invariant orbit, its terms on the whole orbit, their coefficients
    eighth roots of unity with the orbit's phases up to one common factor."""
    index, exps = terms.flat, _root_exponents(terms.coef)
    if exps is None:
        return False
    first, owner, _ = _runs(terms.owner)
    orbit = rep[index[first]]
    shift = (exps - orbit_phase[index]) & 7
    return bool(
        np.array_equal(rep[index], orbit[owner])
        and np.array_equal(shift, shift[first][owner])
        and np.array_equal(np.bincount(rep)[orbit], np.bincount(owner))
        and np.all(np.bincount(index) <= 1)
        and np.array_equal(np.sort(orbit), invariant)
    )


def _lazy_zeros(shape: tuple[int, ...]) -> np.ndarray:
    """A zero complex array on a private anonymous map, for the sparse
    scatters into the dense projectors.  The kernel zero-fills its pages on
    first touch and numpy gives the map no huge-page advice, so under the
    `madvise` huge-page mode only the 4 KiB pages written become resident,
    where `np.zeros` (advised) faults in a whole 2 MiB page at each write.
    Under `always` the kernel may back the map by huge pages all the same,
    and under `never` `np.zeros` was as sparse.  A shared map (mmap's
    default) is shmem, whose untouched pages a read makes resident.  The
    map is released with the array."""
    # imported here: `verify` builds no dense projector, and loading the
    # extension module adds about 48 KB to its peak resident set
    import mmap

    nbytes = math.prod(shape) * np.dtype(complex).itemsize
    return np.ndarray(shape, dtype=complex, buffer=mmap.mmap(-1, nbytes, access=mmap.ACCESS_COPY))


def _span_projector(terms: _Terms, index: np.ndarray, size: int) -> np.ndarray:
    """Orthogonal projector onto the span of the functions of one degree,
    given by their terms: the sum of c c^H / |c|^2 over each function's
    coefficients c, at the terms' indices into the space of the given size."""
    row = _runs(terms.owner)[1]
    left, right = np.nonzero(row[:, None] == row)  # every pair of terms of one function
    c = terms.coef
    squared = np.bincount(row, weights=(c.conj() * c).real)
    out = _lazy_zeros((size, size))
    np.add.at(out, (index[left], index[right]), c[left] * c[right].conj() / squared[row[left]])
    return out


def projector_c8(j) -> tuple[np.ndarray, np.ndarray]:
    """Projector onto cyclic-8 invariant harmonics, by two routes.

    Returns (averaged, closed_form) on the (2j+1)^2 space; the first is the
    group average of the representation operators kron(A_h, B_h), scattered
    from the exact monomial action (one entry mu8^k / 8 per row and
    element), the second the projector onto the span of the closed-form
    basis `basis_c2`, from its table.  Agreement of the two is a standing
    cross-check.  Both have about one nonzero a row and live on lazily
    zero-filled maps (`_lazy_zeros`), so at j = 20 each of the 43 MB
    matrices keeps only the pages it writes resident.
    """
    jj = _require_integer_j(j)
    dim = 2 * jj + 1
    gather, phase = _deck_action(MANIFOLDS["C2"].group, jj)
    averaged = _lazy_zeros((dim * dim, dim * dim))
    np.add.at(averaged, (np.arange(dim * dim), gather), _MU8[phase] / len(gather))
    terms = MANIFOLDS["C2"].mesh(range(jj, jj + 1)).terms
    return averaged, _span_projector(terms, terms.flat, dim * dim)


def projector_q(j) -> tuple[np.ndarray, np.ndarray]:
    """Projector onto quaternion-invariant harmonics on the m1 index alone.

    The quaternion deck elements act from one side only: the exact action
    of every element leaves the column index alone with a phase that does
    not depend on it (every B_h is the identity), which is checked.  So the
    operator is the (2j+1) x (2j+1) mean of the A_h, scattered from the
    exact action, and applies identically for every m2.  Returns
    (averaged, closed_form), the second the projector onto the span of the
    closed-form basis `basis_c3` at m2 = j, from its table's terms there;
    trace times (2j+1) is the multiplicity.  Both live on lazily zero-filled
    maps (`_lazy_zeros`), as the cyclic-8 pair does, so only the pages the
    scatters write become resident.
    """
    jj = _require_integer_j(j)
    dim = 2 * jj + 1
    gather, phase = _deck_action(MANIFOLDS["C3"].group, jj)
    rows, cols = (v.reshape(-1, dim, dim) for v in np.unravel_index(gather, (dim, dim)))
    phase = phase.reshape(rows.shape)
    if not (np.array_equal(cols, np.broadcast_to(np.arange(dim), cols.shape))
            and np.array_equal(phase, np.broadcast_to(phase[..., :1], phase.shape))):
        raise RuntimeError(f"a quaternion deck element acts on the right at degree {jj}")
    averaged = _lazy_zeros((dim, dim))
    np.add.at(averaged, (np.arange(dim), rows[..., 0]), _MU8[phase[..., 0]] / len(gather))
    terms = MANIFOLDS["C3"].mesh(range(jj, jj + 1)).terms
    terms = _Terms(*(v[terms.m2 == jj] for v in terms))
    return averaged, _span_projector(terms, jj - terms.m1, dim)


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
        exact matrix; broadcasts over arrays.  The terms are one function
        with weights norm_factor * coef; labels that `_terms` refuses raise
        ValueError."""
        _integers([self.j, self.m1, self.m2, *(m for m1, m2, _ in self.terms for m in (m1, m2))])
        two_j = 2 * _require_integer_j(self.j)
        pairs = [(_two_m(m1, two_j, "m1"), _two_m(m2, two_j, "m2")) for m1, m2, _ in self.terms]
        if not pairs:  # the empty sum
            return _scalar_or_array(np.zeros(_points(u).shape, dtype=complex))
        weights = float(self.norm_factor) * np.array([coef for *_, coef in self.terms], dtype=complex)
        return _entry_sum(two_j, pairs, weights, u)

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


# the kinds of function, one shared string each in the tables' kind columns
_KINDS = np.array(["single-term", "two-term-sum", "two-term-difference"], dtype=object)
# i^m at m % 4 + 4 [m < 0], exact, with the signed zeros of Python's 1j**m (exact for |m| <= 100)
_I_POWERS = np.array([1, 1j, -1 + 0j, -1j, 1, complex(-0.0, 1), complex(-1, -0.0), complex(0.0, -1)])


def _mesh(manifold: str, j, m1, m2, kind, partner, phase) -> _Basis:
    """The table of the functions (j, m1, m2) that a selection rule keeps,
    in that order.  A single-term function is D_{m1 m2} alone; any other
    adds its partner (m1, m2) with the given phase.  The norm factor gives
    each unit norm under the Euler measure.  `verify_basis` compares the
    counts per degree with the multiplicities."""
    paired = kind != "single-term"
    owner = np.repeat(np.arange(len(j)), 1 + paired)
    second = np.cumsum(1 + paired)[paired] - 1  # the position of each partner term
    tm1, tm2, coef = m1[owner], m2[owner], np.ones(len(owner), dtype=complex)
    tm1[second], tm2[second], coef[second] = partner[0][paired], partner[1][paired], phase[paired]
    norm = np.sqrt(2 * j + 1) / np.where(paired, 4.0 * math.pi, math.sqrt(8.0) * math.pi)
    terms = _Terms(owner, j[owner], tm1, tm2, coef, norm[owner])
    return _Basis(manifold, j, m1, m2, kind, norm, terms)


def _mesh_c2(degrees: range) -> _Basis:
    """The table of `basis_c2` at the given integer degrees, its rule a mask
    over the (j, m1, m2) mesh.  The phases are i^{m1} (-1)^{j+m2} i^{m2},
    multiplied in that order from the exact table `_I_POWERS`."""
    top = max(degrees)
    grids = np.ix_(np.asarray(degrees), np.arange(-top, top + 1), np.arange(top + 1))
    j, m1, m2 = grids
    rule = (np.abs(m1) <= j) & (m2 <= j) & (m1 % 2 == 0) & ((m2 > 0) | ((m1 // 2 + j) % 2 == 0))
    j, m1, m2 = (np.broadcast_to(grid, rule.shape)[rule] for grid in grids)
    sign = np.array([(-1.0) ** k for k in range(2 * top + 1)])
    phase = _I_POWERS[m1 % 4 + 4 * (m1 < 0)] * sign[j + m2] * _I_POWERS[m2 % 4]  # m2 >= 0
    return _mesh("C2", j, m1, m2, _KINDS[np.where(m2 > 0, 1, 0)], (m1, -m2), phase)


def _mesh_c3(degrees: range) -> _Basis:
    """The table of `basis_c3` at the given integer degrees, its rule a mask
    over the (j, m1, m2) mesh."""
    top = max(degrees)
    grids = np.ix_(np.asarray(degrees), np.arange(0, top + 1, 2), np.arange(-top, top + 1))
    j, m1, m2 = grids
    rule = (m1 <= j) & (np.abs(m2) <= j) & ((m1 > 0) | (j % 2 == 0))
    j, m1, m2 = (np.broadcast_to(grid, rule.shape)[rule] for grid in grids)
    odd = j % 2 == 1
    kind = _KINDS[np.where(m1 == 0, 0, np.where(odd, 2, 1))]  # single-term, sum or difference
    return _mesh("C3", j, m1, m2, kind, (-m1, m2), np.where(odd, -1.0, 1.0))


@dataclass(frozen=True)
class Manifold:
    """A cubic space form's parts: `group` (`deck.deck_group` of the name), basis
    mesh, independent counts (the first reported), census column, verify's relations row."""

    name: str
    mesh: Callable[[range], _Basis]
    count_routes: tuple[Callable[[int], int], ...]
    census_column: str
    relations_row: str

    @property
    def group(self) -> DeckGroup:
        return deck_group(self.name)


MANIFOLDS = {m.name: m for m in (
    Manifold("C2", _mesh_c2, (multiplicity_c8, multiplicity_c8_closed_form), "m_c8",
             "c2-generator-fourth-power-is-inversion"),
    Manifold("C3", _mesh_c3, (multiplicity_q, multiplicity_q_character_sum), "m_q", "c3-quaternion-relations"),
)}


def _manifold(name: str) -> Manifold:
    return MANIFOLDS[_manifold_name(name)]


def multiplicity_for(manifold: str, j) -> int:
    return _manifold(manifold).count_routes[0](j)


def _views(table: _Basis) -> list[BasisFunction]:
    """The BasisFunction records of a mesh table, whose functions own
    consecutive runs of terms in list order.  They hold Python scalars,
    which json needs."""
    terms = table.terms
    rows = list(zip(terms.m1.tolist(), terms.m2.tolist(), terms.coef.tolist()))
    bounds = np.searchsorted(terms.owner, np.arange(len(table.j) + 1)).tolist()
    columns = (v.tolist() for v in (table.j, table.m1, table.m2, table.kind, table.norm))
    return [
        BasisFunction(table.manifold, j, m1, m2, kind, tuple(rows[lo:hi]), norm)
        for j, m1, m2, kind, norm, lo, hi in zip(*columns, bounds, bounds[1:])
    ]


def basis_c2(j) -> list[BasisFunction]:
    """Orthonormal cyclic-8 periodic harmonics of integer degree j, sorted
    by (m1, m2), as views of the degree's table (`_mesh_c2`).

    Even m1 throughout.  The m2 = 0 element survives alone only when its
    self-pairing phase i^{m1} (-1)^j equals +1; every m2 > 0 pairs with
    -m2 in the phase i^{m1} (-1)^{j+m2} i^{m2}.
    """
    return basis_for("C2", j)


def basis_c3(j) -> list[BasisFunction]:
    """Orthonormal quaternion-periodic harmonics of integer degree j, sorted
    by (m1, m2), as views of the degree's table (`_mesh_c3`).

    Odd degree pairs m1 with -m1 in differences (even m1 > 0); even degree
    keeps the m1 = 0 elements and pairs the rest in sums.  All m2 appear.
    """
    return basis_for("C3", j)


def basis_for(manifold: str, j) -> list[BasisFunction]:
    mesh, jj = _manifold(manifold).mesh, _require_integer_j(j)
    return _views(mesh(range(jj, jj + 1)))


def _channel_sets(chan: np.ndarray, owner: np.ndarray, channels: int, count: int):
    """The set of each channel 0..channels-1 and of each function
    0..count-1, named by its smallest channel (channels for a function
    without terms), given each term's channel and owner: a function joins
    every channel it has terms in, and the sets are the channels so joined,
    step by step."""
    label = np.arange(channels)
    while True:
        lowest = np.full(count, channels)
        np.minimum.at(lowest, owner, label[chan])
        joined = label.copy()
        np.minimum.at(joined, chan, lowest[owner])
        if np.array_equal(joined, label):
            return label, lowest
        label = joined


def _places(label: np.ndarray) -> np.ndarray:
    """Each item's place among the items of its label, in order."""
    order = np.argsort(label, kind="stable")
    place = np.empty_like(order)
    place[order] = np.arange(len(label)) - np.searchsorted(label[order], label[order])
    return place


def _gram_batch(terms: _Terms, sets: np.ndarray, channel: np.ndarray, function: np.ndarray, count: int, rule):
    """The entries (keys f n + g, values) of the Gram matrix that a batch of
    whole channel sets adds, its terms sorted by set, channel and function;
    channel numbers each term's channel and function each function in its set.

    Each term has a row R = sqrt(w_b / 2) d^j_{m1 m2}(beta_b) over the beta
    nodes, from the recurrence (`_small_d_by_degree`), and a slot (channel,
    rank among its function's terms there, function) in the padded grid of
    its set; a padding slot reads a zero row with weight 0.  The sets of one
    grid shape are one stack.  A set adds conj(c_p) c_q (R R^T)_pq over every
    two slots p, q of a channel, c the norm times the coefficient, over its
    channels and ranks in channel order, into an entry for every two of its
    functions that share a channel; no entry is reduced by key."""
    j, m1, m2, owner = terms.j, terms.m1, terms.m2, terms.owner
    top = int(j.max())
    span = 2 * top + 1
    j0 = np.maximum(np.abs(m1), np.abs(m2))
    key = (j0 * span + m1 + top) * span + m2 + top  # the pairs in ascending order of j0
    _, first, pair = np.unique(key, return_index=True, return_inverse=True)
    by_degree = np.argsort(j, kind="stable")
    edges = np.searchsorted(j[by_degree], np.arange(top + 2))
    rows = np.empty((len(j) + 1, rule.shape[1]))  # the terms' rows in order of degree, then a zero row
    rows[-1] = 0.0
    root_w = np.sqrt(rule.beta_weights / 2.0)
    for degree, small_d in _small_d_by_degree(m1[first], m2[first], rule.cos_beta, top, root_w):
        lo, hi = edges[degree], edges[degree + 1]
        np.take(small_d, pair[by_degree[lo:hi]], axis=0, out=rows[lo:hi])
    rank = _runs(channel * count + owner)[2]  # each term's rank among its function's terms in its channel
    heads = np.flatnonzero(np.diff(sets, prepend=-1))  # the first term of each set
    grid = np.maximum.reduceat(np.stack([channel, rank, function[owner]]), heads, axis=1) + 1
    within = np.cumsum(np.diff(sets, prepend=-1) != 0) - 1  # the set of each term
    dims = grid.max(axis=1) + 1
    codes, shape = np.unique(np.ravel_multi_index(grid, dims), return_inverse=True)
    shapes = np.unravel_index(codes, dims)  # the (channels, ranks, functions) of each stack
    bounds = np.cumsum(np.append(0, np.bincount(shape) * np.prod(shapes, axis=0)))  # stack by stack
    offset = bounds[shape] + _places(shape) * grid.prod(axis=0)  # where each set's grid starts
    slot = np.full(bounds[-1], len(j))
    ranks, functions = grid[1:, within]
    at = offset[within] + (channel * ranks + rank) * functions + function[owner]  # the slot of each term
    slot[at[by_degree]] = np.arange(len(j))  # the row of each slot
    weight = np.append((terms.norm * terms.coef)[by_degree], 0.0)
    who = np.append(owner[by_degree], -1)
    keys, values = [], []
    for c, r, f, lo, hi in zip(*shapes, bounds, bounds[1:]):
        block = slot[lo:hi].reshape(-1, c, r * f)
        w, stack = weight[block], rows[block]
        products = w.conj()[..., :, None] * w[..., None, :] * (stack @ stack.swapaxes(-1, -2))
        present = who[block].reshape(-1, c, r, f).max(axis=2)  # each channel's functions, -1 if absent
        held = present >= 0
        meet = held.swapaxes(1, 2) @ held  # every two functions that share a channel
        owners = present.max(axis=1)
        keys.append((owners[:, :, None] * count + owners[:, None, :])[meet])
        values.append(products.reshape(-1, c, r, f, r, f).sum(axis=(1, 2, 4))[meet])
    return np.concatenate(keys), np.concatenate(values) * _MEASURE_MASS


def _gram_entries(table: _Basis, rule=None):
    """The nonzero entries of the Gram matrix of a table's functions, times
    the measure's mass, by default under the Euler rule exact at twice the
    largest degree.

    G[f, g] is nonzero only where f and g share a channel
    (m1 mod n_alpha) * n_gamma + (m2 mod n_gamma).  The channels that
    functions join, through their terms, are one set; the terms are sorted
    by set, channel, function and term order, and whole sets are summed in
    batches of about _GRAM_BUDGET rows times beta nodes (one set at least)
    by `_gram_batch`.  Returns (channels, batches), the number of channels
    and an iterator of each batch's (keys f n + g, values); a function
    without terms has no entry.
    """
    count = len(table.j)
    if rule is None:
        rule = euler_quadrature(2 * int(table.j.max()))
    n_alpha, n_beta, n_gamma = rule.shape
    terms = table.terms
    channels, chan = np.unique((terms.m1 % n_alpha) * n_gamma + terms.m2 % n_gamma, return_inverse=True)
    label, joined = _channel_sets(chan, terms.owner, len(channels), count)
    sets = label[chan]
    channel, function = _places(label), _places(joined)  # each channel's and function's place in its set
    order = np.lexsort((terms.owner, chan, sets))
    starts = np.flatnonzero(np.diff(sets[order], prepend=-1))  # the first term of each set
    per_batch = max(1, _GRAM_BUDGET // n_beta)
    bounds = np.append(starts[np.flatnonzero(np.diff(starts // per_batch, prepend=-1))], len(order))
    batches = (
        _gram_batch(_Terms(*(v[at] for v in terms)), sets[at], channel[chan[at]], function, count, rule)
        for at in (order[lo:hi] for lo, hi in zip(bounds, bounds[1:]))
    )
    return len(channels), batches


def gram_matrix(functions: list[BasisFunction], rule=None) -> np.ndarray:
    """Inner-product matrix under the unnormalized Euler measure.

    Sums the Euler product rule (by default the one exact at twice the
    largest degree) in separable order.  The means of e^{i k a} over n
    uniform nodes are [k = 0 mod n], so a term meets only the terms of its
    channel (m1 mod n_alpha, m2 mod n_gamma); within a channel the sum over
    beta runs over the Gauss-Legendre nodes with weight w_b / 2.
    """
    table = _terms(functions)
    gram = np.zeros((len(table.j), len(table.j)), dtype=complex)
    if len(table.j):
        for keys, values in _gram_entries(table, rule)[1]:
            gram.reshape(-1)[keys] = values
    return gram


def _gram_error(table: _Basis, rule=None) -> tuple[float, int, int]:
    """max |G - I| of the Gram matrix of a table's functions from the
    entries `gram_matrix` scatters, without the n x n array, so it is
    bit-identical and keeps a NaN.  Returns (error, number of channels,
    number of entries)."""
    channels, batches = _gram_entries(table, rule)
    errors, entries, diagonals = [], 0, 0
    for keys, values in batches:
        diagonal = keys % (len(table.j) + 1) == 0  # f n + f
        values[diagonal] -= 1.0
        errors.append(np.max(np.abs(values), initial=0.0))
        entries += len(keys)
        diagonals += np.count_nonzero(diagonal)
    # a function without terms has no entry: G_ii = 0, an error of 1
    missing = diagonals < len(table.j)
    return float(np.max(errors, initial=float(missing))), channels, entries


def verify_basis(
    functions: list[BasisFunction] | _Basis,
    group: DeckGroup,
    seed: int = 42,
    tol: float = 1e-10,
    n_points: int = 100,
) -> dict:
    """Audit a basis against a deck group; returns a JSON-able report.

    functions is a list of BasisFunction records, or the table that
    `_mesh_c2` or `_mesh_c3` builds.

    Covers orthonormality (including cross-degree entries), from the
    nonzero Gram entries alone (`_gram_error`: `gram_entries` entries summed
    over `gram_channels` channels; every other entry is zero by
    construction), pointwise periodicity under every deck element at seeded
    sample points, and, at every degree from the smallest to the largest in
    the list (a degree left out counts 0 functions, and passes only where
    every count and the rank are 0), the exact monomial action of the group
    on coefficient matrices (`_deck_action`): it must compose as the group's
    product table does (`homomorphism`, so its average P is idempotent by
    construction); its rank, the number of orbits of index pairs with
    trivial stabiliser phase, is an exact integer reported beside trace P;
    its invariant orbit vectors must be the basis records up to
    normalisation (`closed_form_matches`); and every element, read through
    the same gathers and exponents mod 8 as integers, must fix each basis
    matrix (`fixed`, `_fixed`), which is exactly when P fixes it.  The rank
    is compared with every independent count in the manifold's record
    (`count_routes`; `multiplicity_routes_agree`).  Every check on the
    deck side is exact; `tol` bounds only the Gram and periodicity errors.

    A list is walked into a table once (`_terms`), and its degrees once.
    The n_points base points and their images under every element but the
    identity (whose image is the point itself) are parsed onto SU(2) once
    (`_points`), each base point beside its images.  Each degree with terms
    takes d^j over their distinct beta values in one call, evaluates them
    in chunks of whole groups (`_slot_values`) and compares each chunk's
    images with their base points in place; the exact audit follows.
    """
    if n_points < 1:
        raise ValueError(f"periodicity needs at least one sample point, got n_points={n_points}")
    points = gc.random_sphere_points(n_points, seed=seed)  # a bad n_points or seed fails before any work
    table = functions if isinstance(functions, _Basis) else _terms(functions)
    manifold = table.manifold  # None for an empty list, and for a mixed one (refused below)
    report: dict = {"manifold": manifold, "seed": seed, "tol": tol, "n_points": n_points}
    if not len(table.j):
        report.update({"count": 0, "passed": True})
        return report
    if manifold is None:
        raise ValueError("basis list mixes manifolds")
    count_routes = _manifold(manifold).count_routes  # a label it does not know raises ValueError
    per_degree = np.bincount(table.j).tolist()
    degrees = list(range(int(table.j.min()), len(per_degree)))  # a degree left out counts 0
    report["degrees"] = degrees
    report["count_by_degree"] = {j: per_degree[j] for j in degrees}
    routes = {j: [route(j) for route in count_routes] for j in degrees}
    report["multiplicity_by_degree"] = {j: counts[0] for j, counts in routes.items()}
    counts_ok = report["count_by_degree"] == report["multiplicity_by_degree"]

    gram_err, report["gram_channels"], report["gram_entries"] = _gram_error(table)
    report["gram_max_error"] = gram_err

    # the identity's image is the base point bit for bit, so its difference is 0
    others = [gc.apply(el.element, points) for el in group.elements if el.element != gc.IDENTITY]
    images = 1 + len(others)
    # a signed permutation at most swaps |a| and |b|: a point's images share two beta values
    moved = _points(matrix_from_point(np.stack([points] + others, axis=1)))

    products = product_table(group)
    period_errs, blocks = [], {}
    for j in degrees:
        degree = table.terms.degree(j)
        if len(degree.j):  # a degree without terms has no values to compare
            for _, values in _slot_values(2 * j, *degree.slot_columns(), moved, images):
                values = values.reshape(len(values), -1, images)  # each chunk's values are its own
                values[..., 1:] -= values[..., :1]
                period_errs.append(np.max(np.abs(values[..., 1:]), initial=0.0))
        gather, phase = _deck_action(group, j)
        rep, orbit_phase, invariant = _invariant_orbits(gather, phase)
        still = gather == np.arange(gather.shape[1])
        blocks[j] = {
            "rank": len(invariant),
            "expected_rank": report["multiplicity_by_degree"][j],
            "trace": float(np.sum(_MU8[phase[still]]).real) / len(gather),
            "fixed": _fixed(gather, phase, degree),
            "homomorphism": _is_homomorphism(gather, phase, products),
            "closed_form_matches": _matches_orbits(degree, rep, orbit_phase, invariant),
        }
    # np.max, unlike the builtin max, keeps a NaN, which then fails the tolerance
    period_err = report["periodicity_max_error"] = float(np.max(period_errs, initial=0.0))
    report["projector"] = blocks
    exact_ok = all(b["homomorphism"] and b["closed_form_matches"] and b["fixed"] for b in blocks.values())
    report["multiplicity_routes_agree"] = all(
        count == blocks[j]["rank"] for j, counts in routes.items() for count in counts
    )

    report["passed"] = bool(
        counts_ok
        and gram_err < tol
        and period_err < tol
        and exact_ok
        and report["multiplicity_routes_agree"]
    )
    return report

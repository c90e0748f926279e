"""Irreducible representations of the full hyperoctahedral symmetry group
by little-group induction, and their restriction statistics on the two
deck groups.

An irrep is labeled by a sign vector mu on the four coordinates together
with an irrep f of the little co-group K(mu) <= S(4) stabilizing mu: K is
S(4) itself for 0 or 4 minus signs, S({0,1,2}) x S({3}) for 1 or 3, and
S({0,1}) x S({2,3}) for 2.  Characters come from the induction formula

    chi(eps, p) = sum_j [c_j^-1 p c_j in K] * D^mu(c_j^-1 eps c_j) * chi^f(c_j^-1 p c_j)

over a left transversal {c_j} of K, the smallest element of each coset,
with D^mu(eps) the product of the eps components at the minus positions
of mu.  Each little co-group is kept as the coordinate blocks it
permutes, and chi^f is a product of symmetric-group characters, generated
by the Murnaghan-Nakayama rule and orthogonality checked before use,
rather than transcribed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import factorial, prod

from . import groupcore as gc
from .deck import DeckGroup, build_cyclic8, build_quaternion
from .groupcore import HyperoctElement, _perm_inverse

__all__ = [
    "InducedIrrep",
    "MU_REPRESENTATIVES",
    "census_sums",
    "coset_generators",
    "induced_character",
    "irrep_census",
    "little_cogroup",
    "multiplicity_identity",
    "sn_character",
    "sn_character_table",
]


def _partitions(n: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    out = []

    def grow(remaining: int, cap: int, acc: tuple[int, ...]):
        if remaining == 0:
            out.append(acc)
            return
        for part in range(min(cap, remaining), 0, -1):
            grow(remaining - part, part, acc + (part,))

    grow(n, n, ())
    return out


@lru_cache(maxsize=None)
def sn_character(partition: tuple[int, ...], cycle_type: tuple[int, ...]) -> int:
    """Character of the S(n) irrep `partition` on class `cycle_type`.

    Murnaghan-Nakayama on beta-sets: peeling a border strip of length r
    subtracts r from one beta number, with sign from the strip height.
    """
    n = sum(partition)
    if sum(cycle_type) != n:
        raise ValueError("partition and cycle type size mismatch")
    if n == 0:
        return 1
    betas = tuple(
        sorted((part + i for i, part in enumerate(reversed(partition))), reverse=True)
    )
    return _mn_on_betas(betas, tuple(sorted(cycle_type, reverse=True)))


@lru_cache(maxsize=None)
def _mn_on_betas(betas: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    if not cycles:
        return 1
    r, rest = cycles[0], cycles[1:]
    beta_set = set(betas)
    total = 0
    for b in betas:
        if b < r or (b - r) in beta_set:
            continue
        height = sum(1 for other in betas if b - r < other < b)
        new = tuple(sorted((beta_set - {b}) | {b - r}, reverse=True))
        total += (-1) ** height * _mn_on_betas(new, rest)
    return total


@lru_cache(maxsize=None)
def sn_character_table(n: int) -> dict:
    """Full character table {(partition, cycle_type): value}, validated.

    Both orthogonality relations are checked exactly on first build; a
    failure is an implementation bug, not a data problem, so it raises.
    """
    parts = _partitions(n)
    classes = parts
    sizes = {c: _class_size(n, c) for c in classes}
    order = factorial(n)
    table = {(f, c): sn_character(f, c) for f in parts for c in classes}
    for f1 in parts:
        for f2 in parts:
            dot = sum(sizes[c] * table[(f1, c)] * table[(f2, c)] for c in classes)
            if dot != (order if f1 == f2 else 0):
                raise RuntimeError(f"character table of S({n}) fails row orthogonality")
    for c1 in classes:
        for c2 in classes:
            dot = sum(table[(f, c1)] * table[(f, c2)] for f in parts)
            expected = order // sizes[c1] if c1 == c2 else 0
            if dot != expected:
                raise RuntimeError(f"character table of S({n}) fails column orthogonality")
    return table


def _class_size(n: int, cycle_type: tuple[int, ...]) -> int:
    denom = 1
    for length in set(cycle_type):
        count = cycle_type.count(length)
        denom *= length**count * factorial(count)
    return factorial(n) // denom


@lru_cache(maxsize=None)
def _cycle_type(perm: tuple[int, ...], block: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle lengths, longest first, of the cycles of perm that lie in block."""
    return tuple(sorted((len(c) for c in gc._cycles(perm) if set(c) <= set(block)), reverse=True))


# Little co-groups, keyed by the number of minus signs in mu.
_LITTLE_BY_MINUS = {0: "s4", 1: "s3xs1", 2: "s2xs2", 3: "s3xs1", 4: "s4"}

MU_REPRESENTATIVES = {
    0: (1, 1, 1, 1),
    1: (1, 1, 1, -1),
    2: (1, 1, -1, -1),
    3: (-1, -1, -1, 1),
    4: (-1, -1, -1, -1),
}

# Little co-groups as the coordinate blocks they keep: K is the product of
# the symmetric groups of its blocks, and an irrep f of K one partition per
# block (a bare partition for the single block of S(4)).
_LITTLE_BLOCKS = {"s4": ((0, 1, 2, 3),), "s3xs1": ((0, 1, 2), (3,)), "s2xs2": ((0, 1), (2, 3))}


def little_cogroup(mu: tuple[int, ...]) -> str:
    if len(mu) != 4 or any(s not in (-1, 1) for s in mu):
        raise ValueError("mu must be a 4-vector over {+1, -1}")
    return _LITTLE_BY_MINUS[sum(1 for s in mu if s == -1)]


def _block_partitions(little: str, f) -> tuple[tuple[int, ...], ...]:
    return (tuple(f),) if len(_LITTLE_BLOCKS[little]) == 1 else tuple(tuple(part) for part in f)


def in_little_cogroup(little: str, perm: tuple[int, ...]) -> bool:
    if little not in _LITTLE_BLOCKS:
        raise ValueError(f"unknown little co-group {little!r}")
    return all({perm[k] for k in block} == set(block) for block in _LITTLE_BLOCKS[little])


def coset_generators(little: str) -> tuple[tuple[int, ...], ...]:
    """Left transversal of the little co-group in S(4), one-line perms: the
    smallest element of each left coset c K, in lexicographic order."""
    cogroup = [k for k in permutations(range(4)) if in_little_cogroup(little, k)]
    out, covered = [], set()
    for c in permutations(range(4)):
        if c not in covered:
            out.append(c)
            covered.update(tuple(c[k[i]] for i in range(4)) for k in cogroup)
    return tuple(out)


_TRANSVERSALS = {little: coset_generators(little) for little in _LITTLE_BLOCKS}


def _little_class_character(little: str, f, perm: tuple[int, ...]) -> int:
    """Character of the little co-group irrep f on an element of K: the
    product over the blocks of S(n) characters."""
    blocks = zip(_LITTLE_BLOCKS[little], _block_partitions(little, f))
    return prod(sn_character_table(len(block))[(part, _cycle_type(perm, block))] for block, part in blocks)


def _dimension(little: str, f) -> int:
    return len(_TRANSVERSALS[little]) * _little_class_character(little, f, (0, 1, 2, 3))


@dataclass(frozen=True)
class InducedIrrep:
    """Induced irrep (mu, f)^: sign vector, little co-group irrep, plumbing."""

    mu: tuple[int, int, int, int]
    f: tuple
    little: str
    dimension: int

    @property
    def mu_string(self) -> str:
        return "{" + "".join("+" if s == 1 else "-" for s in self.mu) + "}"

    @property
    def f_string(self) -> str:
        parts = _block_partitions(self.little, self.f)
        return "x".join("[" + "".join(map(str, part)) + "]" for part in parts)


def make_irrep(mu: tuple[int, ...], f) -> InducedIrrep:
    little = little_cogroup(tuple(mu))
    return InducedIrrep(
        mu=tuple(mu), f=tuple(f), little=little, dimension=_dimension(little, tuple(f))
    )


def _sign_character(mu: tuple[int, ...], eps: tuple[int, ...]) -> int:
    value = 1
    for s, e in zip(mu, eps):
        if s == -1:
            value *= e
    return value


def induced_character(rep: InducedIrrep, g: HyperoctElement) -> int:
    """Character of (mu, f)^ on a group element, by the induction sum."""
    eps, perm = g.signs, g.perm
    total = 0
    for c in _TRANSVERSALS[rep.little]:
        cinv = _perm_inverse(c)
        conj = tuple(cinv[perm[c[i]]] for i in range(4))
        if not in_little_cogroup(rep.little, conj):
            continue
        eps_conj = tuple(eps[c[i]] for i in range(4))
        total += _sign_character(rep.mu, eps_conj) * _little_class_character(
            rep.little, rep.f, conj
        )
    return total


def multiplicity_identity(rep: InducedIrrep, group: DeckGroup) -> int:
    """How often the trivial rep of the deck group appears in (mu, f)^."""
    return gc.identity_multiplicity(group.elements, lambda el: induced_character(rep, el.element))


_F_ORDERS = {
    "s4": ((4,), (1, 1, 1, 1), (3, 1), (2, 1, 1), (2, 2)),
    "s3xs1": (((3,), (1,)), ((1, 1, 1), (1,)), ((2, 1), (1,))),
    "s2xs2": (
        ((2,), (2,)),
        ((2,), (1, 1)),
        ((1, 1), (2,)),
        ((1, 1), (1, 1)),
    ),
}


def irrep_census() -> list[dict]:
    """All induced irreps, one mu per S(4)-orbit, with deck multiplicities.

    The five sign orbits crossed with their little co-group irreps give
    20 entries whose squared dimensions sum to the group order 384.  The
    returned rows are JSON-able and ordered as the summary table prints.
    """
    c8 = build_cyclic8()
    q = build_quaternion()
    rows = []
    for minus in range(5):
        mu = MU_REPRESENTATIVES[minus]
        little = little_cogroup(mu)
        for f in _F_ORDERS[little]:
            rep = make_irrep(mu, f)
            if induced_character(rep, gc.IDENTITY) != rep.dimension:
                raise RuntimeError("dimension disagrees with character at identity")
            rows.append(
                {
                    "orbit": rep.mu_string,
                    "f": rep.f_string,
                    "dim": rep.dimension,
                    "m_c8": multiplicity_identity(rep, c8),
                    "m_q": multiplicity_identity(rep, q),
                }
            )
    return rows


def census_sums(rows: list[dict]) -> dict:
    """Sum of squared dimensions and the two dimension-weighted multiplicity
    sums of census rows; 384, 48 and 48 for a correct census."""
    return {
        "sum_dim_sq": sum(r["dim"] ** 2 for r in rows),
        "sum_dim_m_c8": sum(r["dim"] * r["m_c8"] for r in rows),
        "sum_dim_m_q": sum(r["dim"] * r["m_q"] for r in rows),
    }


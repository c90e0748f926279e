"""Exact signed-permutation arithmetic for the rank-4 hyperoctahedral group.

The symmetry group of the 8-cell tessellation of the 3-sphere is the
reflection group (C_2)^4 : S(4) of order 384, realised here as signed
permutations of the four Euclidean coordinates.  An element g = (signs, perm)
acts by

    (g x)_i = signs[i] * x[perm^{-1}(i)]

and products compose right to left, ``multiply(g, h)`` applies h first.
Glue words for the deck transformations are written in application order
(first letter acts first); use `element_from_word` / `compose_in_order`
for those.

Cycle strings are parsed and printed right to left: "(0132)" denotes the
permutation with 1 -> 0, 3 -> 1, 2 -> 3, 0 -> 2, matching the emitted
deck-group tables.  Points of E^4 are plain length-4 sequences or (..., 4)
stacks of them; `apply` keeps integer inputs exact.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import prod, sqrt

import numpy as np

IDENTITY_PERM = (0, 1, 2, 3)

__all__ = [
    "HyperoctElement",
    "IDENTITY",
    "INVERSION",
    "WEYL_GENERATORS",
    "WEYL_VECTORS",
    "apply",
    "closure",
    "compose_in_order",
    "cycles_to_perm",
    "element_from_word",
    "has_fixed_point_on_sphere",
    "inverse",
    "multiply",
    "perm_to_cycles",
]


def _perm_inverse(perm):
    inv = [0, 0, 0, 0]
    for k, v in enumerate(perm):
        inv[v] = k
    return tuple(inv)


def cycles_to_perm(text: str) -> tuple[int, int, int, int]:
    """Parse a cycle string such as "(01)(23)" or "e" into one-line form.

    Cycles are read right to left: within "(abc)" the permutation sends
    c to b, b to a and a to c.
    """
    text = text.strip()
    if text in ("e", "", "()"):
        return IDENTITY_PERM
    perm = [0, 1, 2, 3]
    seen = set()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"malformed cycle string {text!r}")
    for cyc in text[1:-1].split(")("):
        idx = []
        for ch in cyc:
            if ch not in "0123":
                raise ValueError(f"bad coordinate {ch!r} in {text!r}")
            idx.append(int(ch))
        if len(idx) < 2 or set(idx) & seen:
            raise ValueError(f"invalid cycle {cyc!r} in {text!r}")
        seen.update(idx)
        for a, b in zip(idx, idx[1:]):
            perm[b] = a
        perm[idx[0]] = idx[-1]
    return tuple(perm)


def perm_to_cycles(perm) -> str:
    """Inverse of `cycles_to_perm`; fixed points are dropped, identity is "e"."""
    perm = tuple(perm)
    if sorted(perm) != [0, 1, 2, 3]:
        raise ValueError(f"perm must be a permutation of 0..3: {perm}")
    cycles = [c for c in _cycles(_perm_inverse(perm)) if len(c) > 1]
    return "".join("(" + "".join(map(str, c)) + ")" for c in cycles) or "e"


@lru_cache(maxsize=None)
def _cycles(perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Cycles of a one-line permutation, fixed points included: each starts
    at its smallest index and follows k -> perm[k].  The one cycle walk that
    every element invariant is read off."""
    seen, out = set(), []
    for start in range(len(perm)):
        cyc = []
        k = start
        while k not in seen:
            seen.add(k)
            cyc.append(k)
            k = perm[k]
        if cyc:
            out.append(tuple(cyc))
    return tuple(out)


def _signed_cycles(g: "HyperoctElement") -> list[tuple[int, int]]:
    """(length n, sign product s) of each cycle of g.  The matrix of g is
    block cyclic over its cycles, and each block B has B^n = s."""
    return [(len(c), prod(g.signs[k] for k in c)) for c in _cycles(g.perm)]


@dataclass(frozen=True)
class HyperoctElement:
    """Signed coordinate permutation: signs in {+1, -1}^4, perm in one-line form."""

    signs: tuple[int, int, int, int]
    perm: tuple[int, int, int, int] = IDENTITY_PERM

    def __post_init__(self):
        if len(self.signs) != 4 or any(s not in (-1, 1) for s in self.signs):
            raise ValueError(f"signs must be four values in {{+1,-1}}: {self.signs}")
        if sorted(self.perm) != [0, 1, 2, 3]:
            raise ValueError(f"perm must be a permutation of 0..3: {self.perm}")
        object.__setattr__(self, "signs", tuple(self.signs))
        object.__setattr__(self, "perm", tuple(self.perm))

    @property
    def cycles(self) -> str:
        return perm_to_cycles(self.perm)

    @property
    def epsilon(self) -> str:
        """Sign column rendered as in the deck tables, e.g. "(+-++)"."""
        return "(" + "".join("+" if s > 0 else "-" for s in self.signs) + ")"

    def matrix(self) -> np.ndarray:
        """4x4 integer matrix M with M @ x == apply(self, x)."""
        inv = _perm_inverse(self.perm)
        m = np.zeros((4, 4), dtype=int)
        for i in range(4):
            m[i, inv[i]] = self.signs[i]
        return m

    def determinant(self) -> int:
        return prod(s * (-1) ** (n - 1) for n, s in _signed_cycles(self))

    def action_string(self) -> str:
        """Render the action on a generic point, e.g. "(x1,-x3,x0,x2)"."""
        inv = _perm_inverse(self.perm)
        parts = []
        for i in range(4):
            parts.append(("-" if self.signs[i] < 0 else "") + f"x{inv[i]}")
        return "(" + ",".join(parts) + ")"

    def sort_key(self):
        return (self.perm, tuple(0 if s > 0 else 1 for s in self.signs))


IDENTITY = HyperoctElement((1, 1, 1, 1))
INVERSION = HyperoctElement((-1, -1, -1, -1))

_SQ = sqrt(0.5)

#: reflection hyperplane normals; index 0 is the extra node closing the
#: affine diagram, 1..4 are the finite Weyl generators
WEYL_VECTORS = {
    0: (1.0, 0.0, 0.0, 0.0),
    1: (0.0, 0.0, 0.0, 1.0),
    2: (0.0, 0.0, -_SQ, _SQ),
    3: (0.0, _SQ, -_SQ, 0.0),
    4: (-_SQ, _SQ, 0.0, 0.0),
}

WEYL_GENERATORS = {
    0: HyperoctElement((-1, 1, 1, 1)),
    1: HyperoctElement((1, 1, 1, -1)),
    2: HyperoctElement((1, 1, 1, 1), (0, 1, 3, 2)),
    3: HyperoctElement((1, 1, 1, 1), (0, 2, 1, 3)),
    4: HyperoctElement((1, 1, 1, 1), (1, 0, 2, 3)),
}

#: sentinel word letter for the central inversion
J4 = "J4"


def _element(signs: tuple[int, ...], perm: tuple[int, ...]) -> HyperoctElement:
    # an element built from valid ones, so the constructor's checks are skipped
    out = object.__new__(HyperoctElement)
    object.__setattr__(out, "signs", signs)
    object.__setattr__(out, "perm", perm)
    return out


def multiply(g: HyperoctElement, h: HyperoctElement) -> HyperoctElement:
    """Product g*h in right-to-left convention: h acts first."""
    pinv = _perm_inverse(g.perm)
    signs = tuple(g.signs[i] * h.signs[pinv[i]] for i in range(4))
    perm = tuple(g.perm[h.perm[k]] for k in range(4))
    return _element(signs, perm)


def inverse(g: HyperoctElement) -> HyperoctElement:
    return _element(tuple(g.signs[g.perm[i]] for i in range(4)), _perm_inverse(g.perm))


def compose_in_order(elements) -> HyperoctElement:
    """Product of elements in application order: the first entry acts first."""
    return reduce(lambda acc, g: multiply(g, acc), elements, IDENTITY)


def element_from_word(word) -> HyperoctElement:
    """Build an element from a glue word over letters 0..4 and "J4".

    Letters apply in reading order, so the first letter acts on the point
    first.
    """
    elems = []
    for letter in word:
        if letter == J4:
            elems.append(INVERSION)
        elif letter in WEYL_GENERATORS:
            elems.append(WEYL_GENERATORS[letter])
        else:
            raise ValueError(f"unknown word letter {letter!r}")
    return compose_in_order(elems)


def apply(g: HyperoctElement, x):
    """Image of the point x, or of a (..., 4) stack, under g; integer input
    stays integer."""
    x = np.asarray(x)
    if x.shape[-1:] != (4,):
        raise ValueError(f"expected length-4 points, got shape {x.shape}")
    return x[..., list(_perm_inverse(g.perm))] * np.array(g.signs)


def closure(generators, bound: int = 10_000) -> list[HyperoctElement]:
    """Group generated by the given elements, as a canonically sorted list.

    Plain breadth-first closure; raises ValueError if more than `bound`
    elements are found, which guards against typo'd generator sets.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    seen = {IDENTITY}
    frontier = [IDENTITY]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                prod = multiply(g, h)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
                    if len(seen) > bound:
                        raise ValueError(f"closure exceeded bound of {bound} elements")
        frontier = nxt
    return sorted(seen, key=HyperoctElement.sort_key)


def has_fixed_point_on_sphere(g: HyperoctElement) -> bool:
    """Exact test for an eigenvalue-1 direction, hence a fixed point on S^3.

    A cycle block has eigenvalue 1 exactly when the product of the signs
    around its cycle is +1.
    """
    return any(s == 1 for _, s in _signed_cycles(g))


def _integer(value, what: str) -> int:
    """value as an int, for a Python or numpy integer; refuses a bool and
    any other type with ValueError."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def random_sphere_points(n: int, seed: int = 42) -> np.ndarray:
    """n points drawn uniformly from S^3, as an (n, 4) array.

    Shoemake's Hopf-coordinate sampler (Graphics Gems III, 1992): three
    uniforms u0, u1, u2 per point give (sqrt(u0) e^{2 pi i u1},
    sqrt(1 - u0) e^{2 pi i u2}) in C^2 = E^4, which is exactly uniform and
    already of unit length.  The uniforms are the `random()` stream of
    `random.Random(seed)`, which Python keeps fixed across versions for an
    integer seed; a numpy integer is taken as the same int.  A negative n,
    and an n or seed that is a bool or no integer, raise ValueError.
    """
    n, seed = _integer(n, "n"), _integer(seed, "seed")
    if n < 0:
        raise ValueError(f"cannot sample a negative number of points, got n={n}")
    rng = random.Random(seed)
    u0, u1, u2 = np.array([rng.random() for _ in range(3 * n)]).reshape(n, 3).T
    r1, r2 = np.sqrt(u0), np.sqrt(1.0 - u0)
    a1, a2 = 2.0 * np.pi * u1, 2.0 * np.pi * u2
    return np.stack([r1 * np.cos(a1), r1 * np.sin(a1), r2 * np.cos(a2), r2 * np.sin(a2)], axis=1)

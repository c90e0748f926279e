"""Deck transformation groups of the two cubic space forms of S^3.

Both manifolds arise by gluing opposite faces of one cell of the 8-cell
tessellation of S^3.  The homotopies differ: one gluing scheme generates a
cyclic group of order 8, the other a quaternion group.  Each deck element
is stored twice over, as an exact signed permutation of R^4 and as an exact
SU(2) x SU(2) pair; the builders cross-check the two forms against each
other and refuse to return an inconsistent group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import groupcore as gc
from .groupcore import J4, HyperoctElement
from .su2 import IsoPair, lift_even_word, matrix_from_point, point_from_matrix

__all__ = [
    "CYCLIC_GENERATOR_WORD",
    "DeckElement",
    "DeckGroup",
    "GLUE_WORDS",
    "QUATERNION_WORDS",
    "build_cyclic8",
    "build_quaternion",
    "deck_group",
    "standard_glue",
    "verify_deck_group",
]

# Face gluings of the spherical cube, as words in the reflection
# generators 0..4 and the central inversion.  Letters act leftmost first.
GLUE_WORDS = {
    "1<=6": (4, 0, J4),
    "2<=4": (3, 2, 4, 0, J4, 2, 3),
    "3<=5": (2, 3, 4, 0, J4, 3, 2),
}

# Single generator of the cyclic-8 deck group: the 1<=6 glue followed by
# a right-handed face rotation.
CYCLIC_GENERATOR_WORD = (2, 1, 4, 0, J4, 2, 3, 2, 1, 3, 2)

# Quaternion deck generators: each glue followed by a left-handed quarter
# turn.  q2 and q3 are conjugates of q1 by a face rotation.
_Q1 = (1, 2, 4, 0, J4)
QUATERNION_WORDS = {
    "q1": _Q1,
    "q2": (3, 2) + _Q1 + (2, 3),
    "q3": (2, 3) + _Q1 + (3, 2),
}

# Equivalent inversion-free spelling of q1; same isometry, used as a
# consistency probe by the builders.
_Q1_ALT = (2, 1, 0, 4)

_CELL_CENTER = np.array([1.0, 0.0, 0.0, 0.0])

# Seeded probe points at which the builders compare the two forms of each
# element, and the largest disagreement they accept.
_PROBE_SEED = 20240404
_PROBE_TOL = 1e-12


@dataclass(frozen=True)
class GlueOperator:
    """One face identification: its word, signed permutation, and pair."""

    faces: str
    word: tuple
    element: HyperoctElement
    pair: IsoPair


def standard_glue(faces: str) -> GlueOperator:
    """Glue operator for a face pair named like "1<=6"."""
    if faces not in GLUE_WORDS:
        raise ValueError(f"unknown face pair {faces!r}; expected one of {sorted(GLUE_WORDS)}")
    word = GLUE_WORDS[faces]
    return GlueOperator(
        faces=faces,
        word=word,
        element=gc.element_from_word(word),
        pair=lift_even_word(word),
    )


@dataclass(frozen=True)
class DeckElement:
    label: str
    element: HyperoctElement
    pair: IsoPair
    order: int

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "order": self.order,
            "cycles": self.element.cycles,
            "epsilon": self.element.epsilon,
            "action": self.element.action_string(),
        }


@dataclass(frozen=True)
class DeckGroup:
    name: str
    isomorphism: str
    elements: tuple[DeckElement, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def by_label(self, label: str) -> DeckElement:
        for el in self.elements:
            if el.label == label:
                return el
        raise KeyError(label)

    def pairs(self) -> list[IsoPair]:
        return [el.pair for el in self.elements]

    def identity(self) -> DeckElement:
        for el in self.elements:
            if el.element == gc.IDENTITY:
                return el
        raise RuntimeError("group has no identity element")


def _element_order(g: HyperoctElement) -> int:
    acc = g
    n = 1
    while acc != gc.IDENTITY:
        acc = gc.multiply(acc, g)
        n += 1
        if n > 64:
            raise RuntimeError("element order exceeds any deck group bound")
    return n


def _pair_action_error(el: DeckElement, points) -> float:
    """Largest coordinate gap between the two forms of el; NaN propagates."""
    gaps = []
    for x in points:
        expected = gc.apply(el.element, x)
        got = point_from_matrix(el.pair.apply_complex(matrix_from_point(x)))
        gaps.append(np.max(np.abs(expected - got)))
    return float(np.max(gaps))


def _finish_group(name: str, isomorphism: str, elements: list[DeckElement]) -> DeckGroup:
    if len({el.element for el in elements}) != len(elements):
        raise RuntimeError(f"{name}: duplicate deck elements")
    table = {el.element: el for el in elements}
    for a in elements:
        for b in elements:
            prod = gc.multiply(b.element, a.element)  # a first, then b
            if prod not in table:
                raise RuntimeError(f"{name}: not closed under composition")
            pair_prod = a.pair.compose(b.pair)
            if not pair_prod.same_isometry(table[prod].pair):
                raise RuntimeError(f"{name}: pair table disagrees with permutation table")
    probes = gc.random_sphere_points(6, seed=_PROBE_SEED)
    for el in elements:
        if not _pair_action_error(el, probes) <= _PROBE_TOL:
            raise RuntimeError(f"pair of {el.label!r} disagrees with its permutation form")
        if el.element != gc.IDENTITY and gc.has_fixed_point_on_sphere(el.element):
            raise RuntimeError(f"{name}: element {el.label!r} has a fixed point")
        if el.element.determinant() != 1:
            raise RuntimeError(f"{name}: element {el.label!r} reverses orientation")
    return DeckGroup(name=name, isomorphism=isomorphism, elements=tuple(elements))


@lru_cache(maxsize=None)
def build_cyclic8() -> DeckGroup:
    """Deck group of the first cubic manifold: cyclic of order 8."""
    gen = gc.element_from_word(CYCLIC_GENERATOR_WORD)
    gen_pair = lift_even_word(CYCLIC_GENERATOR_WORD)
    elements = []
    for t in range(1, 9):
        el = gc.IDENTITY
        for _ in range(t):
            el = gc.multiply(gen, el)
        label = "e" if t == 8 else ("g1" if t == 1 else f"g1^{t}")
        elements.append(
            DeckElement(label=label, element=el, pair=gen_pair.power(t), order=_element_order(el))
        )
    if elements[-1].element != gc.IDENTITY:
        raise RuntimeError("cyclic generator does not have order 8")
    if any(elements[t - 1].element == gc.IDENTITY for t in range(1, 8)):
        raise RuntimeError("cyclic generator order is below 8")
    return _finish_group("C2", "cyclic-8", elements)


@lru_cache(maxsize=None)
def build_quaternion() -> DeckGroup:
    """Deck group of the second cubic manifold: quaternion of order 8."""
    words = {"e": (), **QUATERNION_WORDS, "J4": (J4,)}
    words.update({f"J4*{k}": (J4,) + w for k, w in QUATERNION_WORDS.items()})
    elements = []
    for label, word in words.items():
        el = gc.element_from_word(word)
        elements.append(
            DeckElement(label=label, element=el, pair=lift_even_word(word), order=_element_order(el))
        )
    by = {el.label: el for el in elements}
    j4 = by["J4"].element
    q = {k: by[k].element for k in ("q1", "q2", "q3")}
    for k in ("q1", "q2", "q3"):
        if gc.multiply(q[k], q[k]) != j4:
            raise RuntimeError(f"{k} squared is not the central inversion")
    chain = gc.multiply(q["q3"], gc.multiply(q["q2"], q["q1"]))  # q1 first
    if chain != j4:
        raise RuntimeError("q1 q2 q3 is not the central inversion")
    if gc.multiply(q["q2"], q["q1"]) != by["q3"].element:
        raise RuntimeError("q1 q2 is not q3")
    alt = gc.element_from_word(_Q1_ALT)
    if alt != q["q1"] or not lift_even_word(_Q1_ALT).same_isometry(by["q1"].pair):
        raise RuntimeError("alternate q1 spelling disagrees")
    return _finish_group("C3", "quaternion", elements)


def deck_group(name: str) -> DeckGroup:
    """Look up a deck group by manifold or isomorphism name."""
    key = name.strip().lower().replace("_", "-")
    if key in {"c2", "cyclic", "cyclic-8", "c8"}:
        return build_cyclic8()
    if key in {"c3", "q", "q8", "quaternion"}:
        return build_quaternion()
    raise ValueError(f"unknown deck group {name!r}; expected C2 or C3")


def _isomorphism_signature(group: DeckGroup) -> str:
    orders = sorted(el.order for el in group.elements)
    elems = [el.element for el in group.elements]
    abelian = all(
        gc.multiply(a, b) == gc.multiply(b, a) for a in elems for b in elems
    )
    if orders == [1, 2, 4, 4, 8, 8, 8, 8] and abelian:
        return "cyclic-8"
    if orders == [1, 2, 4, 4, 4, 4, 4, 4] and not abelian:
        return "quaternion"
    return "unrecognised"


def verify_deck_group(group: DeckGroup, seed: int = 42, n_points: int = 100, tol: float = 1e-10) -> dict:
    """Independent structural audit of a deck group; returns a JSON-able report.

    Checks closure, inverses, freeness of the action, orientation, the
    isomorphism type recomputed from element orders, agreement of the two
    element representations at random points, and transitivity on the
    eight cell centers.
    """
    elems = [el.element for el in group.elements]
    table = set(elems)
    closed = all(gc.multiply(a, b) in table for a in elems for b in elems)
    has_identity = gc.IDENTITY in table
    has_inverses = all(gc.inverse(a) in table for a in elems)
    fixed_point_free = all(
        not gc.has_fixed_point_on_sphere(a) for a in elems if a != gc.IDENTITY
    )
    orientation = all(a.determinant() == 1 for a in elems)
    iso = _isomorphism_signature(group)

    pts = gc.random_sphere_points(n_points, seed=seed)
    worst = float(np.max([_pair_action_error(el, pts) for el in group.elements]))

    centers = gc.orbit(elems, _CELL_CENTER)
    report = {
        "name": group.name,
        "order": group.order,
        "isomorphism": iso,
        "isomorphism_matches": iso == group.isomorphism,
        "closed": closed,
        "has_identity": has_identity,
        "has_inverses": has_inverses,
        "fixed_point_free": fixed_point_free,
        "orientation_preserving": orientation,
        "pair_action_max_error": worst,
        "cell_center_orbit_size": len(centers),
        "seed": seed,
        "n_points": n_points,
        "tol": tol,
    }
    report["passed"] = bool(
        group.order == 8
        and report["isomorphism_matches"]
        and closed
        and has_identity
        and has_inverses
        and fixed_point_free
        and orientation
        and worst <= tol
        and len(centers) == 8
    )
    return report

"""Deck transformation groups of the two cubic space forms of S^3.

Both manifolds arise by gluing opposite faces of one cell of the 8-cell
tessellation of S^3.  The homotopies differ: one gluing scheme generates a
cyclic group of order 8, the other a quaternion group.  Each deck element
is stored twice over, as an exact signed permutation of R^4 and as an exact
SU(2) x SU(2) pair.

Every group property (closure, the pair table, agreement of the two forms,
freeness, orientation, element orders, isomorphism type, the labelled
presentation and the cell-center orbit) is computed exactly in one place,
`verify_deck_group`, with the presentation in `relations_hold`.  The two
forms act linearly on R^4, so they are compared on its four basis points.
The builders run that same audit and refuse to return a group whose report
fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import lcm

import numpy as np

from . import groupcore as gc
from .groupcore import J4, HyperoctElement
from .su2 import Cyclo8, IsoPair, Su2Exact, lift_even_word, matrix_from_point

__all__ = [
    "CYCLIC_GENERATOR_WORD",
    "DeckElement",
    "DeckGroup",
    "GLUE_WORDS",
    "QUATERNION_WORDS",
    "build_cyclic8",
    "build_quaternion",
    "deck_group",
    "product_table",
    "relations_hold",
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
# consistency probe on the builder's input.
_Q1_ALT = (2, 1, 0, 4)


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


def _element_order(g: HyperoctElement) -> int:
    """Order of g from its signed cycles: a cycle of length n has order n
    when the signs around it multiply to +1, and 2n otherwise."""
    return lcm(*(n if s == 1 else 2 * n for n, s in gc._signed_cycles(g)))


def _power_label(t: int) -> str:
    """Label of the t-th power of the cyclic generator g1, for t in 1..8."""
    return "e" if t == 8 else ("g1" if t == 1 else f"g1^{t}")


def _finish_group(name: str, isomorphism: str, elements: list[DeckElement]) -> DeckGroup:
    """The group of the given elements, refused unless its audit passes."""
    group = DeckGroup(name=name, isomorphism=isomorphism, elements=tuple(elements))
    report = verify_deck_group(group)
    if not report["passed"]:
        raise RuntimeError(f"{name}: deck-group audit failed: {', '.join(_failed_checks(report))}")
    return group


@lru_cache(maxsize=None)
def build_cyclic8() -> DeckGroup:
    """Deck group of the first cubic manifold: cyclic of order 8, its t-th
    element the t-th power of the generator word's element and lifted pair."""
    g, pair = gc.element_from_word(CYCLIC_GENERATOR_WORD), lift_even_word(CYCLIC_GENERATOR_WORD)
    powers = accumulate([(g, pair)] * 8, lambda acc, one: (gc.multiply(one[0], acc[0]), acc[1].compose(one[1])))
    elements = [DeckElement(_power_label(t), el, p, _element_order(el)) for t, (el, p) in enumerate(powers, start=1)]
    return _finish_group("C2", "cyclic-8", elements)


@lru_cache(maxsize=None)
def build_quaternion() -> DeckGroup:
    """Deck group of the second cubic manifold: quaternion of order 8."""
    alt_element, alt_pair = gc.element_from_word(_Q1_ALT), lift_even_word(_Q1_ALT)
    if alt_element != gc.element_from_word(_Q1) or not alt_pair.same_isometry(lift_even_word(_Q1)):
        raise RuntimeError("alternate q1 spelling disagrees")
    words = {"e": (), **QUATERNION_WORDS, "J4": (J4,)}
    words.update({f"J4*{k}": (J4,) + w for k, w in QUATERNION_WORDS.items()})
    elements = []
    for label, word in words.items():
        el = gc.element_from_word(word)
        elements.append(DeckElement(label, el, lift_even_word(word), _element_order(el)))
    return _finish_group("C3", "quaternion", elements)


# each spelling of a manifold or isomorphism name, blanks stripped, case folded and "_" read as "-"
_ALIASES = (dict.fromkeys(("c2", "cyclic", "cyclic-8", "c8"), "C2")
            | dict.fromkeys(("c3", "q", "q8", "quaternion"), "C3"))


def _manifold_name(name: str) -> str:
    """The manifold, C2 or C3, that a spelling in `_ALIASES` names: the one
    name lookup of `deck_group` and of the manifold table in `bases`."""
    if (key := name.strip().lower().replace("_", "-")) not in _ALIASES:
        raise ValueError(f"unknown manifold {name!r}; expected C2 or C3")
    return _ALIASES[key]


def deck_group(name: str) -> DeckGroup:
    """Look up a deck group by manifold or isomorphism name."""
    return build_cyclic8() if _manifold_name(name) == "C2" else build_quaternion()


# Sorted element orders and commutativity of the two possible deck groups.
_SIGNATURES = {
    ((1, 2, 4, 4, 8, 8, 8, 8), True): "cyclic-8",
    ((1, 2, 4, 4, 4, 4, 4, 4), False): "quaternion",
}


def relations_hold(group: DeckGroup) -> bool:
    """Whether the labelled elements satisfy the presentation of the group.

    Cyclic-8: the element labelled like the t-th power of g1 is that power,
    for t = 1..8, and g1^4 is the central inversion.  Quaternion: J4 is the
    central inversion, q^2 = J4 for q = q1, q2, q3, q1 then q2 is q3, and
    q1 q2 q3 = J4 (q1 acting first).  Another isomorphism name, or a missing
    label, fails.
    """
    labelled = {el.label: el.element for el in group.elements}
    if group.isomorphism == "cyclic-8" and "g1" in labelled:
        powers = [gc.compose_in_order([labelled["g1"]] * t) for t in range(1, 9)]
        named = all(labelled.get(_power_label(t)) == p for t, p in enumerate(powers, start=1))
        return named and powers[3] == gc.INVERSION
    if group.isomorphism == "quaternion" and {"J4", "q1", "q2", "q3"} <= labelled.keys():
        j4, q1, q2, q3 = (labelled[k] for k in ("J4", "q1", "q2", "q3"))
        squares = all(gc.multiply(q, q) == j4 for q in (q1, q2, q3))
        chain = gc.multiply(q2, q1) == q3 and gc.compose_in_order([q1, q2, q3]) == j4
        return j4 == gc.INVERSION and squares and chain
    return False


def product_table(group: DeckGroup) -> list[list[int | None]]:
    """table[i][k]: index of the element that is elements[i] followed by
    elements[k] (elements[i] acts first), None where that product is not
    among the elements."""
    els = group.elements
    index = {el.element: k for k, el in enumerate(els)}
    return [[index.get(gc.multiply(b.element, a.element)) for b in els] for a in els]


def _table_orders(table: list[list[int | None]], identity: int | None) -> list[int | None]:
    """Order of each element, read off the product table by taking powers;
    None where a power leaves the table or the identity is not reached."""
    orders = []
    for i in range(len(table)):
        k, n = i, 1
        while k is not None and n <= len(table) and k != identity:
            k, n = table[k][i], n + 1
        orders.append(n if k is not None and k == identity else None)
    return orders


def _failed_checks(report: dict) -> list[str]:
    """Names of the report fields whose check fails; every boolean field
    other than "passed" is a check."""
    flags = {key: value for key, value in report.items() if isinstance(value, (bool, np.bool_))}
    failed = [key for key, value in flags.items() if not value and key != "passed"]
    return failed + [key for key in ("order", "cell_center_orbit_size") if report[key] != 8]


def _exact_matrix(u: np.ndarray) -> Su2Exact:
    """The 2x2 complex array u, whose entries are Gaussian integers, as an
    exact matrix."""
    return Su2Exact(tuple(tuple(Cyclo8((int(z.real), 0, int(z.imag), 0)) for z in row) for row in u))


@lru_cache(maxsize=None)
def _exact_checks(group: DeckGroup) -> dict:
    """The report of `verify_deck_group`, computed once per group value.  A
    group that differs in any field is a different key, so it is audited
    afresh.

    The two forms of an element are compared on the basis points e0..e3 of
    R^4: the signed permutation sends e_k to a point +-e_m, and the pair
    must send u(e_k) to u(+-e_m) = +-u(e_m) exactly.  Both forms act
    linearly on R^4, so this decides their agreement on all of S^3.  The
    u(+-e_k) are read off the chart `matrix_from_point` at those integer
    points, where its entries are Gaussian integers.
    """
    els = group.elements
    elems = [el.element for el in els]
    index = {el.element: k for k, el in enumerate(els)}
    table = product_table(group)
    closed = all(c is not None for row in table for c in row)
    pair_table_matches = all(
        c is not None and a.pair.compose(b.pair).same_isometry(els[c].pair)
        for a, row in zip(els, table)
        for b, c in zip(els, row)
    )
    basis = np.eye(4, dtype=int)
    points = np.vstack([basis, -basis])
    u = {tuple(x): _exact_matrix(m) for x, m in zip(points, matrix_from_point(points))}
    pairs_act_as_permutations = all(
        el.pair.left.inverse() * u[tuple(x)] * el.pair.right == u[tuple(y)]
        for el in els
        for x, y in zip(basis, gc.apply(el.element, basis))
    )
    abelian = closed and all(table[i][k] == table[k][i] for i in range(len(els)) for k in range(i))
    orders = _table_orders(table, index.get(gc.IDENTITY))
    signature = (tuple(sorted(orders)), abelian) if None not in orders else None
    iso = _SIGNATURES.get(signature, "unrecognised")
    report = {
        "name": group.name,
        "order": group.order,
        "isomorphism": iso,
        "isomorphism_matches": iso == group.isomorphism,
        "orders_match": orders == [el.order for el in els],
        "distinct": len(index) == len(elems),
        "closed": closed,
        "has_identity": gc.IDENTITY in index,
        "has_inverses": all(gc.inverse(a) in index for a in elems),
        "pair_table_matches": pair_table_matches,
        "pairs_act_as_permutations": pairs_act_as_permutations,
        "fixed_point_free": all(not gc.has_fixed_point_on_sphere(a) for a in elems if a != gc.IDENTITY),
        "orientation_preserving": all(a.determinant() == 1 for a in elems),
        "relations": relations_hold(group),
        "cell_center_orbit_size": len({tuple(gc.apply(a, (1, 0, 0, 0))) for a in elems}),
        "n_points": len(basis),
    }
    report["passed"] = not _failed_checks(report)
    return report


def verify_deck_group(group: DeckGroup) -> dict:
    """Exact structural audit of a deck group; returns a JSON-able report.

    Checks that the elements are distinct, closure, inverses, that the
    exact pair table agrees with the permutation table up to sign, that
    each pair moves the basis points of R^4 as its signed permutation does
    (on `n_points` = 4 points), freeness of the action, orientation, the
    element orders recomputed from the product table against the stored
    ones, the isomorphism type from those recomputed orders, the labelled
    presentation (`relations_hold`), and transitivity on the eight cell
    centers.  The builders refuse a group on this report.  It is computed
    once per group value (`_exact_checks`); each call returns its own copy.
    """
    return dict(_exact_checks(group))

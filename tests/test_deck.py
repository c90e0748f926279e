"""Deck transformation groups of the two cubical quotients.

Every row below was computed once from the glue words and frozen; the
tests guard the construction against regressions in word parsing, sign
conventions, or lift bookkeeping.
"""

import numpy as np
import pytest

from s3harm import deck
from s3harm import groupcore as gc
from s3harm import su2
from s3harm.su2 import IsoPair, lift_even_word

from helpers import by_label, cycles_to_perm, identity_pair, pair_action


# label, epsilon, cycles, point action, left lift, right lift
CYCLIC_TABLE = [
    ("g1",   "(+-++)", "(0132)",   "(x1,-x3,x0,x2)",   "[[a^3, 0], [0, -a]]",   "[[0, -a^3], [-a, 0]]"),
    ("g1^2", "(--++)", "(03)(12)", "(-x3,-x2,x1,x0)",  "[[-a^2, 0], [0, a^2]]", "[[-1, 0], [0, -1]]"),
    ("g1^3", "(---+)", "(0231)",   "(-x2,-x0,-x3,x1)", "[[a, 0], [0, -a^3]]",   "[[0, a^3], [a, 0]]"),
    ("g1^4", "(----)", "e",        "(-x0,-x1,-x2,-x3)", "[[-1, 0], [0, -1]]",   "[[1, 0], [0, 1]]"),
    ("g1^5", "(-+--)", "(0132)",   "(-x1,x3,-x0,-x2)", "[[-a^3, 0], [0, a]]",   "[[0, -a^3], [-a, 0]]"),
    ("g1^6", "(++--)", "(03)(12)", "(x3,x2,-x1,-x0)",  "[[a^2, 0], [0, -a^2]]", "[[-1, 0], [0, -1]]"),
    ("g1^7", "(+++-)", "(0231)",   "(x2,x0,x3,-x1)",   "[[-a, 0], [0, a^3]]",   "[[0, a^3], [a, 0]]"),
    ("e",    "(++++)", "e",        "(x0,x1,x2,x3)",    "[[1, 0], [0, 1]]",      "[[1, 0], [0, 1]]"),
]

QUATERNION_TABLE = [
    ("e",     "(++++)", "e",        "(x0,x1,x2,x3)",     "[[1, 0], [0, 1]]",      "[[1, 0], [0, 1]]"),
    ("q1",    "(+-+-)", "(01)(23)", "(x1,-x0,x3,-x2)",   "[[0, -a^2], [-a^2, 0]]", "[[1, 0], [0, 1]]"),
    ("q2",    "(+--+)", "(02)(13)", "(x2,-x3,-x0,x1)",   "[[0, -1], [1, 0]]",     "[[1, 0], [0, 1]]"),
    ("q3",    "(++--)", "(03)(12)", "(x3,x2,-x1,-x0)",   "[[-a^2, 0], [0, a^2]]", "[[1, 0], [0, 1]]"),
    ("J4",    "(----)", "e",        "(-x0,-x1,-x2,-x3)", "[[1, 0], [0, 1]]",      "[[-1, 0], [0, -1]]"),
    ("J4*q1", "(-+-+)", "(01)(23)", "(-x1,x0,-x3,x2)",   "[[0, -a^2], [-a^2, 0]]", "[[-1, 0], [0, -1]]"),
    ("J4*q2", "(-++-)", "(02)(13)", "(-x2,x3,x0,-x1)",   "[[0, -1], [1, 0]]",     "[[-1, 0], [0, -1]]"),
    ("J4*q3", "(--++)", "(03)(12)", "(-x3,-x2,x1,x0)",   "[[-a^2, 0], [0, a^2]]", "[[-1, 0], [0, -1]]"),
]


def epsilon_string(elem):
    return "(" + "".join("+" if s > 0 else "-" for s in elem.signs) + ")"


@pytest.mark.parametrize("name,table", [("c2", CYCLIC_TABLE), ("c3", QUATERNION_TABLE)])
def test_frozen_element_tables(name, table):
    group = deck.deck_group(name)
    assert [d.label for d in group.elements] == [row[0] for row in table]
    for d, row in zip(group.elements, table):
        label, eps, cycles, action, left, right = row
        assert epsilon_string(d.element) == eps
        assert gc.perm_to_cycles(d.element.perm) == cycles
        assert d.element.action_string() == action
        got = (str(d.pair.left), str(d.pair.right))
        flipped = (str(-d.pair.left), str(-d.pair.right))
        assert got == (left, right) or flipped == (left, right), label


def test_cyclic_group_structure():
    group = deck.build_cyclic8()
    assert group.order == 8
    assert group.isomorphism == "cyclic-8"
    g1 = by_label(group, "g1").element
    power = gc.IDENTITY
    for t in range(1, 9):
        power = gc.multiply(g1, power)
        if t < 8:
            assert power != gc.IDENTITY
    assert power == gc.IDENTITY
    fourth = gc.multiply(gc.multiply(g1, g1), gc.multiply(g1, g1))
    assert fourth == gc.INVERSION


def test_quaternion_group_structure():
    group = deck.build_quaternion()
    assert group.order == 8
    assert group.isomorphism == "quaternion"
    e = gc.IDENTITY
    q1 = by_label(group, "q1").element
    q2 = by_label(group, "q2").element
    q3 = by_label(group, "q3").element
    j4 = by_label(group, "J4").element
    assert j4 == gc.INVERSION
    for q in (q1, q2, q3):
        assert gc.multiply(q, q) == j4
    # generators compose in application order: q1 then q2 is q3
    assert gc.multiply(q2, q1) == q3
    assert gc.multiply(j4, j4) == e


def test_cycle_orders_are_the_powering_orders_on_the_whole_group():
    # the order read off the signed cycles against the smallest n with g^n = e
    for g in gc.closure(gc.WEYL_GENERATORS.values()):
        acc, n = g, 1
        while acc != gc.IDENTITY:
            acc, n = gc.multiply(acc, g), n + 1
        assert deck._element_order(g) == n


def test_element_orders():
    c2 = deck.build_cyclic8()
    assert {d.label: d.order for d in c2.elements} == {
        "g1": 8, "g1^2": 4, "g1^3": 8, "g1^4": 2,
        "g1^5": 8, "g1^6": 4, "g1^7": 8, "e": 1,
    }
    c3 = deck.build_quaternion()
    assert {d.label: d.order for d in c3.elements} == {
        "e": 1, "q1": 4, "q2": 4, "q3": 4,
        "J4": 2, "J4*q1": 4, "J4*q2": 4, "J4*q3": 4,
    }


def test_glue_operators_pair_faces():
    # each glue word moves the first cell's center e0 to the center of a
    # different neighbouring cell, as a proper fixed-point-free isometry
    # whose SU(2) x SU(2) lift moves u(+-e_k) exactly as its signed
    # permutation moves +-e_k
    basis = np.eye(4, dtype=int)
    points = np.vstack([basis, -basis])
    u = {tuple(x): deck._exact_matrix(m) for x, m in zip(points, su2.matrix_from_point(points))}
    centers = {}
    for faces, word in deck.GLUE_WORDS.items():
        element, pair = gc.element_from_word(word), lift_even_word(word)
        centers[faces] = tuple(int(v) for v in gc.apply(element, basis[0]))
        assert element.determinant() == 1
        assert not gc.has_fixed_point_on_sphere(element)
        for x, y in zip(points, gc.apply(element, points)):
            assert pair.left.inverse() * u[tuple(x)] * pair.right == u[tuple(y)], (faces, x)
    assert centers == {"1<=6": (0, -1, 0, 0), "2<=4": (0, 0, -1, 0), "3<=5": (0, 0, 0, -1)}


def test_only_identity_fixes_a_point():
    for name in ("c2", "c3"):
        group = deck.deck_group(name)
        for d in group.elements:
            expected = d.label == "e"
            assert gc.has_fixed_point_on_sphere(d.element) == expected


def test_deck_elements_preserve_orientation():
    for name in ("c2", "c3"):
        for d in deck.deck_group(name).elements:
            assert d.element.determinant() == 1


def test_deck_groups_sit_inside_full_reflection_group():
    big = set(gc.closure(list(gc.WEYL_GENERATORS.values()), bound=500))
    for name in ("c2", "c3"):
        for d in deck.deck_group(name).elements:
            assert d.element in big


def test_cell_center_orbits_cover_all_eight_centers():
    centers = {tuple(v) for v in np.vstack([np.eye(4), -np.eye(4)])}
    for name in ("c2", "c3"):
        group = deck.deck_group(name)
        orbit = {
            tuple(np.round(gc.apply(d.element, (1.0, 0.0, 0.0, 0.0)), 12))
            for d in group.elements
        }
        assert orbit == centers


def test_pairs_track_elements_on_random_points():
    from s3harm import su2

    pts = gc.random_sphere_points(50, seed=21)
    for name in ("c2", "c3"):
        for d in deck.deck_group(name).elements:
            for x in pts:
                u = su2.matrix_from_point(x)
                moved = su2.point_from_matrix(pair_action(d.pair, u))
                assert np.allclose(moved, gc.apply(d.element, x), atol=1e-12)


def test_pair_table_closes_like_the_element_table():
    for name in ("c2", "c3"):
        group = deck.deck_group(name)
        by_elem = {d.element: d for d in group.elements}
        for a in group.elements:
            for b in group.elements:
                prod = gc.multiply(a.element, b.element)
                target = by_elem[prod]
                assert b.pair.compose(a.pair).same_isometry(target.pair)


def test_verify_reports_pass():
    for name in ("c2", "c3"):
        report = deck.verify_deck_group(deck.deck_group(name))
        assert report["passed"] is True
        assert report["order"] == 8
        assert report["closed"] is True
        assert report["fixed_point_free"] is True
        assert report["orientation_preserving"] is True
        assert report["cell_center_orbit_size"] == 8
        assert report["pairs_act_as_permutations"] is True
        assert report["n_points"] == 4
        assert report["isomorphism_matches"] is True
        assert report["distinct"] is True
        assert report["pair_table_matches"] is True
        assert report["relations"] is True
        assert report["orders_match"] is True


def test_every_deck_lift_converts_to_zeros_and_eighth_roots_exactly():
    # so the quaternion group, whose lifts are monomial, moves points with no
    # rounding at all
    for name in ("c2", "c3"):
        for el in deck.deck_group(name).elements:
            for lift in (el.pair.left, el.pair.right):
                for value in lift.to_complex().ravel():
                    assert value == 0 or any(value.tobytes() == mu.tobytes() for mu in su2._MU8)
    # the float route moves the quaternion group's points with no rounding
    pts = gc.random_sphere_points(100, seed=42)
    for el in deck.build_quaternion().elements:
        moved = su2.point_from_matrix(pair_action(el.pair, su2.matrix_from_point(pts)))
        assert np.array_equal(moved, gc.apply(el.element, pts)), el.label
    for el in deck.build_cyclic8().elements:
        moved = su2.point_from_matrix(pair_action(el.pair, su2.matrix_from_point(pts)))
        assert np.max(np.abs(moved - gc.apply(el.element, pts))) < 1e-15, el.label


def test_verify_flags_a_corrupted_group():
    base = deck.build_cyclic8()
    broken = deck.DeckGroup(
        name=base.name,
        isomorphism=base.isomorphism,
        elements=base.elements[:-1] + (
            deck.DeckElement(
                label="e",
                element=gc.WEYL_GENERATORS[0],
                pair=identity_pair(),
                order=1,
            ),
        ),
    )
    report = deck.verify_deck_group(broken)
    assert report["passed"] is False


def test_swapped_quaternion_labels_break_the_relations():
    # q1 and q2 trade labels: the group is unchanged but its presentation
    # fails, since q2 then q1 is J4*q3, not q3
    base = deck.build_quaternion()
    swap = {"q1": "q2", "q2": "q1"}
    relabelled = [
        deck.DeckElement(swap.get(el.label, el.label), el.element, el.pair, el.order)
        for el in base.elements
    ]
    group = deck.DeckGroup(base.name, base.isomorphism, tuple(relabelled))
    report = deck.verify_deck_group(group)
    assert report["relations"] is False
    assert report["passed"] is False
    assert report["closed"] is True and report["pair_table_matches"] is True
    with pytest.raises(RuntimeError, match="relations"):
        deck._finish_group(base.name, base.isomorphism, relabelled)


def test_swapped_pairs_break_the_pair_table():
    base = deck.build_cyclic8()
    els = list(base.elements)
    g1, g3 = els[0], els[2]
    els[0] = deck.DeckElement(g1.label, g1.element, g3.pair, g1.order)
    els[2] = deck.DeckElement(g3.label, g3.element, g1.pair, g3.order)
    report = deck.verify_deck_group(deck.DeckGroup(base.name, base.isomorphism, tuple(els)))
    assert report["pair_table_matches"] is False
    assert report["pairs_act_as_permutations"] is False
    assert report["passed"] is False
    with pytest.raises(RuntimeError, match="pair_table_matches"):
        deck._finish_group(base.name, base.isomorphism, els)


def test_conjugated_pairs_keep_the_pair_table_but_move_points_wrongly():
    # conjugating every lift by one fixed lift keeps the pair table, so only
    # the comparison on the basis points of R^4 can see that the pairs no
    # longer act as their signed permutations
    base = deck.build_quaternion()
    h = by_label(deck.build_cyclic8(), "g1").pair
    els = [
        deck.DeckElement(
            el.label,
            el.element,
            IsoPair(h.left.inverse() * el.pair.left * h.left, h.right.inverse() * el.pair.right * h.right),
            el.order,
        )
        for el in base.elements
    ]
    report = deck.verify_deck_group(deck.DeckGroup(base.name, base.isomorphism, tuple(els)))
    assert report["pair_table_matches"] is True
    assert report["pairs_act_as_permutations"] is False
    assert deck._failed_checks(report) == ["pairs_act_as_permutations"]
    with pytest.raises(RuntimeError, match="pairs_act_as_permutations"):
        deck._finish_group(base.name, base.isomorphism, els)


def test_swapped_stored_orders_fail_the_audit():
    # g1 (order 8) and g1^2 (order 4) trade their stored orders: the sorted
    # orders still read like cyclic-8, but the table disagrees
    base = deck.build_cyclic8()
    els = list(base.elements)
    assert (els[0].label, els[0].order, els[1].label, els[1].order) == ("g1", 8, "g1^2", 4)
    els[0] = deck.DeckElement(els[0].label, els[0].element, els[0].pair, 4)
    els[1] = deck.DeckElement(els[1].label, els[1].element, els[1].pair, 8)
    report = deck.verify_deck_group(deck.DeckGroup(base.name, base.isomorphism, tuple(els)))
    assert report["orders_match"] is False
    assert report["passed"] is False
    assert report["isomorphism"] == "cyclic-8"
    with pytest.raises(RuntimeError, match="orders_match"):
        deck._finish_group(base.name, base.isomorphism, els)


def test_group_builders_are_cached():
    assert deck.build_cyclic8() is deck.build_cyclic8()
    assert deck.build_quaternion() is deck.build_quaternion()


def test_deck_group_name_aliases():
    c2 = deck.build_cyclic8()
    for alias in ("c2", "C2", "cyclic", "cyclic-8", "c8"):
        assert deck.deck_group(alias) is c2
    c3 = deck.build_quaternion()
    for alias in ("c3", "C3", "q", "q8", "quaternion"):
        assert deck.deck_group(alias) is c3
    with pytest.raises(ValueError):
        deck.deck_group("c4")


def test_json_serialization_round_trips_elements():
    for name in ("c2", "c3"):
        for d in deck.deck_group(name).elements:
            blob = d.to_json_dict()
            assert blob["label"] == d.label
            assert blob["order"] == d.order
            assert blob["epsilon"] == epsilon_string(d.element)
            assert cycles_to_perm(blob["cycles"]) == d.element.perm
            assert blob["action"] == d.element.action_string()


def test_product_table_indexes_the_group_law():
    group = deck.build_cyclic8()
    table = deck.product_table(group)
    # elements are g1^1 .. g1^8 in order, so the table adds exponents mod 8
    for a in range(8):
        for b in range(8):
            assert table[a][b] == (a + b + 1) % 8
    partial = deck.DeckGroup(name="C2", isomorphism="cyclic-8", elements=group.elements[:4])
    assert deck.product_table(partial)[3][3] is None


def test_the_exact_checks_run_once_per_group_value():
    group = deck.build_quaternion()
    deck._exact_checks.cache_clear()
    first = deck.verify_deck_group(group)
    second = deck.verify_deck_group(deck.DeckGroup(group.name, group.isomorphism, tuple(group.elements)))
    info = deck._exact_checks.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert first == second and first is not second
    # a group that differs in one stored order is another key, audited afresh
    els = list(group.elements)
    els[1] = deck.DeckElement(els[1].label, els[1].element, els[1].pair, 2)
    assert deck.verify_deck_group(deck.DeckGroup(group.name, group.isomorphism, tuple(els)))["orders_match"] is False
    assert deck._exact_checks.cache_info().misses == 2


def test_cyclic_elements_are_the_generator_powers_exactly():
    # each element is built as the t-th power of the generator; it must equal
    # the generator word repeated t times, read off exactly as a signed
    # permutation and lifted as a pair (==, not only the same isometry)
    group = deck.build_cyclic8()
    for t, el in enumerate(group.elements, start=1):
        word = deck.CYCLIC_GENERATOR_WORD * t
        assert (el.element, el.pair) == (gc.element_from_word(word), lift_even_word(word)), t
    assert [el.label for el in group.elements] == ["g1"] + [f"g1^{t}" for t in range(2, 8)] + ["e"]

"""Irreducible representations of the order-384 reflection group by
little-group induction, and their restriction counts on the deck groups."""

import math
from collections import Counter
from itertools import permutations

import pytest

from s3harm import deck
from s3harm import groupcore as gc
from s3harm import induced
from s3harm.induced import (
    MU_REPRESENTATIVES,
    coset_generators,
    in_little_cogroup,
    induced_character,
    irrep_census,
    little_cogroup,
    make_irrep,
    multiplicity_identity,
    sn_character,
    sn_character_table,
)

from helpers import by_label


def transversal_is_left(little: str) -> bool:
    """Whether the transversal tiles S(4) by disjoint left cosets c K."""
    cogroup = [k for k in permutations(range(4)) if in_little_cogroup(little, k)]
    cosets = [{tuple(c[k[i]] for i in range(4)) for k in cogroup} for c in coset_generators(little)]
    return sum(map(len, cosets)) == len(set().union(*cosets)) == 24


S4_CLASSES = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]

# rows: partition -> character over S4_CLASSES
S4_TABLE = {
    (4,): [1, 1, 1, 1, 1],
    (3, 1): [3, 1, -1, 0, -1],
    (2, 2): [2, 0, 2, -1, 0],
    (2, 1, 1): [3, -1, -1, 0, 1],
    (1, 1, 1, 1): [1, -1, 1, 1, -1],
}


def test_s4_character_table_is_frozen():
    for part, row in S4_TABLE.items():
        for cls, val in zip(S4_CLASSES, row):
            assert sn_character(part, cls) == val


def test_character_table_builder_validates_orthogonality():
    # builder raises internally if either orthogonality relation fails
    for n in (3, 4, 5):
        table = sn_character_table(n)
        assert len(table) > 0


def test_s3_and_s5_spot_values():
    assert sn_character((2, 1), (1, 1, 1)) == 2
    assert sn_character((2, 1), (3,)) == -1
    assert sn_character((2, 1), (2, 1)) == 0
    assert sn_character((3, 2), (1, 1, 1, 1, 1)) == 5
    assert sn_character((4, 1), (5,)) == -1
    assert sn_character((3, 1, 1), (1, 1, 1, 1, 1)) == 6


def test_dimensions_match_hook_length_formula():
    def hooks(part):
        rows = list(part)
        total = 1
        for r, length in enumerate(rows):
            for c in range(length):
                arm = length - c - 1
                leg = sum(1 for r2 in range(r + 1, len(rows)) if rows[r2] > c)
                total *= arm + leg + 1
        return total

    for n in (3, 4, 5):
        sn_character_table(n)   # force the orthogonality validation
        for part in induced._partitions(n):
            dim = sn_character(part, (1,) * n)
            assert dim == math.factorial(n) // hooks(part)


# ------------------------------------------------------------- little groups


def test_little_cogroup_by_minus_count():
    assert little_cogroup((1, 1, 1, 1)) == "s4"
    assert little_cogroup((-1, -1, -1, -1)) == "s4"
    assert little_cogroup((1, 1, 1, -1)) == "s3xs1"
    assert little_cogroup((-1, -1, -1, 1)) == "s3xs1"
    assert little_cogroup((1, 1, -1, -1)) == "s2xs2"


def test_coset_generator_counts():
    assert len(coset_generators("s4")) == 1
    assert len(coset_generators("s3xs1")) == 4
    assert len(coset_generators("s2xs2")) == 6
    assert (2, 3, 0, 1) in coset_generators("s2xs2")


def test_transversals_tile_the_permutations():
    for little in ("s4", "s3xs1", "s2xs2"):
        members = [p for p in permutations(range(4)) if in_little_cogroup(little, p)]
        covered = set()
        for c in coset_generators(little):
            for k in members:
                # left coset c K
                covered.add(tuple(c[k[i]] for i in range(4)))
        assert len(covered) == 24
        assert transversal_is_left(little)


def test_cycle_types_of_s4_count_the_class_sizes():
    counts = Counter(induced._cycle_type(p, (0, 1, 2, 3)) for p in permutations(range(4)))
    sizes = [induced._class_size(4, c) for c in S4_CLASSES]
    assert [counts[c] for c in S4_CLASSES] == sizes == [1, 6, 3, 8, 6]


def test_membership_samples():
    assert in_little_cogroup("s3xs1", (1, 2, 0, 3))
    assert not in_little_cogroup("s3xs1", (3, 1, 2, 0))
    assert in_little_cogroup("s2xs2", (1, 0, 3, 2))
    assert not in_little_cogroup("s2xs2", (0, 2, 1, 3))
    assert in_little_cogroup("s4", (3, 1, 2, 0))


# ---------------------------------------------------------------- characters


# element order: c2 lists g1, g1^2, ..., g1^7, e; c3 lists e, q1, q2, q3,
# then the four products with the central inversion
FROZEN_COLUMNS = [
    ((1, 1, 1, 1), (3, 1),
     [-1, -1, -1, 3, -1, -1, -1, 3], [3, -1, -1, -1, 3, -1, -1, -1]),
    ((1, 1, 1, -1), ((2, 1), (1,)),
     [0, 0, 0, -8, 0, 0, 0, 8], [8, 0, 0, 0, -8, 0, 0, 0]),
    ((1, 1, -1, -1), ((2,), (2,)),
     [0, -2, 0, 6, 0, -2, 0, 6], [6, -2, -2, -2, 6, -2, -2, -2]),
    ((-1, -1, -1, -1), (1, 1, 1, 1),
     [1, 1, 1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, 1, 1, 1]),
    ((-1, -1, -1, -1), (2, 2),
     [0, 2, 0, 2, 0, 2, 0, 2], [2, 2, 2, 2, 2, 2, 2, 2]),
]


@pytest.mark.parametrize("mu,f,col_c8,col_q", FROZEN_COLUMNS)
def test_frozen_character_columns(mu, f, col_c8, col_q):
    rep = make_irrep(mu, f)
    c2 = deck.build_cyclic8()
    c3 = deck.build_quaternion()
    assert [induced_character(rep, d.element) for d in c2.elements] == col_c8
    assert [induced_character(rep, d.element) for d in c3.elements] == col_q


def test_character_worked_examples():
    c2 = deck.build_cyclic8()
    g1sq = by_label(c2, "g1^2").element
    assert induced_character(make_irrep(MU_REPRESENTATIVES[0], (2, 2)), g1sq) == 2
    rep = make_irrep(MU_REPRESENTATIVES[1], ((3,), (1,)))
    assert induced_character(rep, gc.INVERSION) == -4
    rep = make_irrep(MU_REPRESENTATIVES[2], ((2,), (2,)))
    assert induced_character(rep, gc.IDENTITY) == 6


def test_character_at_identity_equals_dimension():
    for row in irrep_census():
        mu = {
            "{++++}": MU_REPRESENTATIVES[0], "{+++-}": MU_REPRESENTATIVES[1],
            "{++--}": MU_REPRESENTATIVES[2], "{---+}": MU_REPRESENTATIVES[3],
            "{----}": MU_REPRESENTATIVES[4],
        }[row["orbit"]]
        f = _parse_f(row["f"])
        rep = make_irrep(mu, f)
        assert induced_character(rep, gc.IDENTITY) == row["dim"]
        assert rep.dimension == row["dim"]


def _parse_f(text):
    if "x" in text:
        a, b = text.split("x")
        return (tuple(int(ch) for ch in a.strip("[]")), tuple(int(ch) for ch in b.strip("[]")))
    return tuple(int(ch) for ch in text.strip("[]"))


def test_character_is_a_class_function_on_the_big_group():
    big = gc.closure(list(gc.WEYL_GENERATORS.values()), bound=500)
    rep = make_irrep(MU_REPRESENTATIVES[2], ((2,), (1, 1)))
    probe = by_label(deck.build_quaternion(), "q2").element
    base = induced_character(rep, probe)
    for h in big[:40]:
        conj = gc.multiply(gc.multiply(h, probe), gc.inverse(h))
        assert induced_character(rep, conj) == base


# ------------------------------------------------------------ multiplicities


def test_multiplicity_worked_examples():
    c2 = deck.build_cyclic8()
    c3 = deck.build_quaternion()
    assert multiplicity_identity(make_irrep(MU_REPRESENTATIVES[0], (4,)), c2) == 1
    assert multiplicity_identity(make_irrep(MU_REPRESENTATIVES[2], ((2,), (1, 1))), c3) == 3
    for f in (((3,), (1,)), ((1, 1, 1), (1,)), ((2, 1), (1,))):
        rep = make_irrep(MU_REPRESENTATIVES[1], f)
        assert multiplicity_identity(rep, c2) == 0
        assert multiplicity_identity(rep, c3) == 0


def test_multiplicity_rejects_non_integral_sums():
    base = deck.build_cyclic8()
    fake = deck.DeckGroup(
        name=base.name,
        isomorphism=base.isomorphism,
        elements=(base.elements[-1],) * 7 + (base.elements[0],),
    )
    rep = make_irrep(MU_REPRESENTATIVES[0], (3, 1))
    with pytest.raises(RuntimeError):
        multiplicity_identity(rep, fake)


# --------------------------------------------------------------------- census


FROZEN_CENSUS = [
    ("{++++}", "[4]", 1, 1, 1),
    ("{++++}", "[1111]", 1, 0, 1),
    ("{++++}", "[31]", 3, 0, 0),
    ("{++++}", "[211]", 3, 1, 0),
    ("{++++}", "[22]", 2, 1, 2),
    ("{+++-}", "[3]x[1]", 4, 0, 0),
    ("{+++-}", "[111]x[1]", 4, 0, 0),
    ("{+++-}", "[21]x[1]", 8, 0, 0),
    ("{++--}", "[2]x[2]", 6, 1, 0),
    ("{++--}", "[2]x[11]", 6, 2, 3),
    ("{++--}", "[11]x[2]", 6, 2, 3),
    ("{++--}", "[11]x[11]", 6, 1, 0),
    ("{---+}", "[3]x[1]", 4, 0, 0),
    ("{---+}", "[111]x[1]", 4, 0, 0),
    ("{---+}", "[21]x[1]", 8, 0, 0),
    ("{----}", "[4]", 1, 0, 1),
    ("{----}", "[1111]", 1, 1, 1),
    ("{----}", "[31]", 3, 1, 0),
    ("{----}", "[211]", 3, 0, 0),
    ("{----}", "[22]", 2, 1, 2),
]


def test_census_matches_frozen_table():
    rows = irrep_census()
    got = [(r["orbit"], r["f"], r["dim"], r["m_c8"], r["m_q"]) for r in rows]
    assert got == FROZEN_CENSUS


def test_census_dimension_sum_is_the_group_order():
    assert sum(r["dim"] ** 2 for r in irrep_census()) == 384


def test_census_aggregates_count_cosets():
    rows = irrep_census()
    assert sum(r["dim"] * r["m_c8"] for r in rows) == 48
    assert sum(r["dim"] * r["m_q"] for r in rows) == 48


def test_all_minus_orbit_counts_come_from_the_formula():
    # For the all-minus label the sign character is sensitive to the parity
    # of the permutation part, so the cyclic-group counts differ from the
    # all-plus row; the aggregate identity above is the arbiter.
    c2 = deck.build_cyclic8()
    fs = [(4,), (1, 1, 1, 1), (3, 1), (2, 1, 1), (2, 2)]
    got = [multiplicity_identity(make_irrep(MU_REPRESENTATIVES[4], f), c2) for f in fs]
    assert got == [0, 1, 1, 0, 1]
    plus = [multiplicity_identity(make_irrep(MU_REPRESENTATIVES[0], f), c2) for f in fs]
    assert plus == [1, 0, 0, 1, 1]
    assert got != plus


def test_all_minus_and_all_plus_agree_on_the_quaternion_group():
    # every quaternion deck element has sign product +1
    c3 = deck.build_quaternion()
    for d in c3.elements:
        assert d.element.signs[0] * d.element.signs[1] * d.element.signs[2] * d.element.signs[3] == 1
    for f in [(4,), (1, 1, 1, 1), (3, 1), (2, 1, 1), (2, 2)]:
        plus = make_irrep(MU_REPRESENTATIVES[0], f)
        minus = make_irrep(MU_REPRESENTATIVES[4], f)
        for d in c3.elements:
            assert induced_character(plus, d.element) == induced_character(minus, d.element)


def test_multiplicities_are_nonnegative():
    for row in irrep_census():
        assert row["m_c8"] >= 0 and row["m_q"] >= 0

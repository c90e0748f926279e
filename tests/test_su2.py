"""Exact cyclotomic arithmetic and two-sided rotation lifts.

The oracle throughout: a lifted pair must move points of the 3-sphere
exactly the way the signed permutation it came from does.
"""

import math

import numpy as np
import pytest

from s3harm import groupcore as gc
from s3harm import su2
from s3harm.su2 import Cyclo8, IsoPair, Su2Exact

from helpers import adjoint, identity_pair


A = Cyclo8((0, 1, 0, 0), 0)          # primitive eighth root
ONE = Cyclo8.from_int(1)
ROOT2 = Cyclo8((0, 1, 0, -1), 0)     # a - a^3


def is_unitary(m: Su2Exact) -> bool:
    return m * adjoint(m) == Su2Exact.identity()


def canonical(pair: IsoPair) -> IsoPair:
    """The sign choice of a pair whose first nonzero entry has a positive
    leading coefficient."""
    for mat in (pair.left, pair.right):
        for row in mat.entries:
            for e in row:
                if not e.is_zero():
                    first = next(c for c in e.coeffs if c != 0)
                    return pair if first > 0 else IsoPair(-pair.left, -pair.right)
    return pair


def random_cyclo(rng):
    coeffs = tuple(int(v) for v in rng.integers(-6, 7, size=4))
    k = int(rng.integers(0, 3))
    return Cyclo8(coeffs, k)


def test_eighth_root_has_order_eight():
    p = ONE
    seen = []
    for _ in range(8):
        p = p * A
        seen.append(p)
    assert seen[-1] == ONE
    assert seen[3] == Cyclo8.from_int(-1)   # a^4 = -1
    assert all(q != ONE for q in seen[:-1])


def test_root_two_squares_to_two():
    assert ROOT2 * ROOT2 == Cyclo8.from_int(2)
    assert ROOT2.to_complex() == math.sqrt(2)


def test_an_eighth_root_converts_to_its_table_entry_bit_for_bit():
    # the sign of a zero part included: -1j converts to -0.0 - 1j
    for k in range(8):
        coeffs = [0, 0, 0, 0]
        coeffs[k % 4] = 1 if k < 4 else -1
        root = Cyclo8(tuple(coeffs))
        assert root.root_exponent() == k
        assert np.array(root.to_complex()).tobytes() == su2._MU8[k].tobytes()
    assert Cyclo8((1, 0, 0, 0), 1).to_complex() == math.sqrt(0.5)
    for other in (ROOT2, Cyclo8((1, 0, 0, 0), 1), Cyclo8.from_int(2), Cyclo8((1, 1, 0, 0)), Cyclo8.from_int(0)):
        with pytest.raises(ValueError, match="not an eighth root of unity"):
            other.root_exponent()


def test_half_power_normalization():
    # 2 / 2^{2/2} reduces to 1 with no residual half powers
    assert Cyclo8((2, 0, 0, 0), 2) == ONE
    assert Cyclo8((2, 0, 0, 0), 2).half_powers == 0
    # (a - a^3) / 2^{1/2} = 1
    assert Cyclo8((0, 1, 0, -1), 1) == ONE
    # odd coefficients cannot reduce
    assert Cyclo8((1, 0, 0, 0), 1).half_powers == 1


def test_ring_laws_match_complex_arithmetic():
    rng = np.random.default_rng(99)
    xs = [random_cyclo(rng) for _ in range(8)]
    for x in xs:
        for y in xs:
            assert abs((x + y).to_complex() - (x.to_complex() + y.to_complex())) < 1e-12
            assert abs((x * y).to_complex() - x.to_complex() * y.to_complex()) < 1e-12
            assert abs((x - y).to_complex() - (x.to_complex() - y.to_complex())) < 1e-12
    for x in xs:
        assert abs(x.conjugate().to_complex() - np.conj(x.to_complex())) < 1e-12


def _oracle(coeffs, k):
    """The validating constructor's value of coeffs / sqrt(2)^k."""
    return Cyclo8(tuple(coeffs), k)


def _lifted(x, k):
    # coefficients of x times sqrt(2)^(k - half_powers), by plain convolution
    c = list(x.coeffs)
    for _ in range(k - x.half_powers):
        c = [c[1] - c[3], c[0] + c[2], c[1] + c[3], c[2] - c[0]]
    return c


def _convolved(c, d):
    out = [0, 0, 0, 0]
    for i in range(4):
        for k in range(4):
            sign = 1 if i + k < 4 else -1  # a^4 = -1
            out[(i + k) % 4] += sign * c[i] * d[k]
    return out


def test_ring_operations_are_the_validating_constructors_values():
    rng = np.random.default_rng(2024)
    xs = [random_cyclo(rng) for _ in range(12)] + [Cyclo8.from_int(0), ROOT2, A]
    for x in xs:
        assert -x == _oracle([-v for v in x.coeffs], x.half_powers)
        c0, c1, c2, c3 = x.coeffs
        assert x.conjugate() == _oracle([c0, -c3, -c2, -c1], x.half_powers)
        for y in xs:
            k = max(x.half_powers, y.half_powers)
            a, b = _lifted(x, k), _lifted(y, k)
            results = {
                "+": (x + y, _oracle([u + v for u, v in zip(a, b)], k), x.to_complex() + y.to_complex()),
                "-": (x - y, _oracle([u - v for u, v in zip(a, b)], k), x.to_complex() - y.to_complex()),
                "*": (x * y, _oracle(_convolved(x.coeffs, y.coeffs), x.half_powers + y.half_powers),
                      x.to_complex() * y.to_complex()),
            }
            for op, (got, oracle, value) in results.items():
                assert got == oracle, op
                assert (got.coeffs, got.half_powers) == (oracle.coeffs, oracle.half_powers)
                assert all(type(v) is int for v in got.coeffs + (got.half_powers,))
                assert hash(got) == hash(oracle)
                assert abs(got.to_complex() - value) < 1e-12


def test_constructor_still_refuses_bad_input():
    with pytest.raises(ValueError):
        Cyclo8((1, 0, 0))
    with pytest.raises(ValueError):
        Cyclo8((1, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        Cyclo8((1, 0, 0, 0), -1)
    with pytest.raises(ValueError):
        Cyclo8(("x", 0, 0, 0))
    # a value that is not equal to its int is refused, not truncated
    for coeffs, half_powers in [
        ((0.5, 0, 0, 0), 0),
        ((1.9, 0, 0, 0), 0),
        (("3", 0, 0, 0), 0),
        ((float("inf"), 0, 0, 0), 0),
        ((float("nan"), 0, 0, 0), 0),
        ((1, 0, 0, 0), 1.7),
        ((1, 0, 0, 0), float("inf")),
    ]:
        with pytest.raises(ValueError):
            Cyclo8(coeffs, half_powers)
    # numpy integers are taken as ints
    assert Cyclo8((np.int64(1), 0, 0, 0), np.int32(0)) == ONE
    # integral floats are taken as ints, and the value is normalised
    assert Cyclo8((2.0, 0, 0, 0), 2) == ONE


def test_a_bool_is_no_ring_coefficient():
    # True was read as 1: Cyclo8((True, 0, 0, 0)) was 1, a half power of True
    # gave 1/sqrt(2), and a row of True built the identity
    for flag in (True, False, np.True_, np.False_):
        with pytest.raises(ValueError, match="must be an integer"):
            Cyclo8((flag, 0, 0, 0))
        with pytest.raises(ValueError, match="must be an integer"):
            Cyclo8((1, 0, 0, 0), flag)
        with pytest.raises(ValueError, match="must be an integer"):
            Su2Exact.from_rows((flag, 0), (0, 1))
    assert Su2Exact.from_rows((1.0, 0), (0, np.int64(1))) == Su2Exact.identity()


def test_conjugation_is_multiplicative():
    rng = np.random.default_rng(100)
    for _ in range(20):
        x, y = random_cyclo(rng), random_cyclo(rng)
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()


def test_weyl_lift_matrices_are_special_unitary():
    for s in range(5):
        v = su2.weyl_matrix(s)
        assert is_unitary(v)
        assert v.det() == ONE
        num = v.to_complex()
        assert np.allclose(num.conj().T @ num, np.eye(2), atol=1e-14)
    assert su2.weyl_matrix(3) is su2.weyl_matrix(3)  # built once, not per call
    for bad in (-1, 5):
        with pytest.raises(ValueError):
            su2.weyl_matrix(bad)


def test_even_word_lift_reproduces_point_action():
    words = [
        (0, 1), (1, 2), (2, 3), (3, 4),
        (4, 0, "J4"),
        (1, 2, 4, 0, "J4"),
        (2, 1, 4, 0, "J4", 2, 3, 2, 1, 3, 2),
        (3, 2, 4, 0, "J4", 2, 3),
        (2, 3, 4, 0, "J4", 3, 2),
        (2, 1, 0, 4),
    ]
    pts = gc.random_sphere_points(25, seed=11)
    for word in words:
        pair = su2.lift_even_word(word)
        elem = gc.element_from_word(word)
        for x in pts:
            u = su2.matrix_from_point(x)
            moved = su2.point_from_matrix(su2.pair_action(pair, u))
            assert np.allclose(moved, gc.apply(elem, x), atol=1e-13)


def test_odd_word_raises():
    with pytest.raises(ValueError):
        su2.lift_even_word((0,))
    with pytest.raises(ValueError):
        su2.lift_even_word((0, 1, 2))
    with pytest.raises(ValueError):
        su2.lift_even_word((0, "J4"))


def test_j4_lifts_to_minus_identity_on_the_right():
    pair = su2.lift_even_word(("J4",))
    assert pair.left == Su2Exact.identity()
    assert pair.right == -Su2Exact.identity()


def test_cyclic_generator_lift_is_exact():
    from s3harm.deck import CYCLIC_GENERATOR_WORD

    pair = su2.lift_even_word(CYCLIC_GENERATOR_WORD)
    a3 = Cyclo8((0, 0, 0, 1), 0)
    left = Su2Exact.from_rows((a3, 0), (0, -A))
    right = Su2Exact.from_rows((0, -a3), (-A, 0))
    assert pair.left == left
    assert pair.right == right


def test_quaternion_generator_lift_is_exact():
    from s3harm.deck import QUATERNION_WORDS

    pair = su2.lift_even_word(QUATERNION_WORDS["q1"])
    mi = Cyclo8((0, 0, -1, 0), 0)    # -a^2 = -i
    left = Su2Exact.from_rows((0, mi), (mi, 0))
    assert canonical(pair).same_isometry(IsoPair(left, Su2Exact.identity()))
    assert pair.left == left or pair.left == -left


def test_quaternion_word_alternative_spelling():
    # the four-reflection spelling gives the same isometry, with lifts
    # differing by a simultaneous sign
    from s3harm.deck import QUATERNION_WORDS

    std = su2.lift_even_word(QUATERNION_WORDS["q1"])
    alt = su2.lift_even_word((2, 1, 0, 4))
    assert std.same_isometry(alt)
    assert gc.element_from_word(QUATERNION_WORDS["q1"]) == gc.element_from_word((2, 1, 0, 4))


def test_left_lifts_generate_quaternion_unit_table():
    from s3harm.deck import QUATERNION_WORDS

    lifts = {k: su2.lift_even_word(w).left for k, w in QUATERNION_WORDS.items()}
    e = Su2Exact.identity()
    kq = -lifts["q1"]
    jq = -lifts["q2"]
    iq = -lifts["q3"]
    assert kq * kq == -e
    assert jq * jq == -e
    assert iq * iq == -e
    assert iq * jq == kq
    assert jq * kq == iq
    assert kq * iq == jq
    assert jq * iq == -kq


def test_cyclic_generator_has_order_eight_as_a_pair():
    from s3harm.deck import CYCLIC_GENERATOR_WORD

    g1 = su2.lift_even_word(CYCLIC_GENERATOR_WORD)
    p = identity_pair()
    orders = []
    for t in range(1, 9):
        p = g1.compose(p)
        orders.append(p.same_isometry(identity_pair()))
    # proper isometry order 8, and the eighth power is (e, e) on the nose
    assert orders == [False, False, False, False, False, False, False, True]
    assert p.left == Su2Exact.identity()
    assert p.right == Su2Exact.identity()


def test_rotation_half_angles_of_cyclic_powers():
    from s3harm.deck import CYCLIC_GENERATOR_WORD

    g1 = su2.lift_even_word(CYCLIC_GENERATOR_WORD)
    expected_left = [0.75, 0.5, 0.25, 1.0, 0.25, 0.5, 0.75, 0.0]
    expected_right = [0.5, 1.0, 0.5, 0.0, 0.5, 1.0, 0.5, 0.0]
    p = identity_pair()
    for t in range(8):
        p = g1.compose(p)
        phi_l, phi_r = su2.rotation_angles(p)
        assert abs(phi_l / 2 / np.pi - expected_left[t]) < 1e-12
        assert abs(phi_r / 2 / np.pi - expected_right[t]) < 1e-12


def test_pair_closure_of_adjacent_products_has_order_192():
    # canonical pairs from adjacent reflection products close onto the
    # rotation half of the rank-4 reflection group, one pair per rotation
    gens = [canonical(su2.lift_even_word((s, s + 1))) for s in range(4)]
    seen = {canonical(identity_pair())}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = canonical(p.compose(g))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
                    assert len(seen) <= 200
        frontier = nxt
    assert len(seen) == 192
    for p in seen:
        assert is_unitary(p.left) and is_unitary(p.right)
        assert p.left.det() == ONE and p.right.det() == ONE


def test_coordinate_chart_round_trip():
    pts = gc.random_sphere_points(30, seed=5)
    for x in pts:
        u = su2.matrix_from_point(x)
        assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-13)
        assert abs(np.linalg.det(u) - 1.0) < 1e-13
        assert np.allclose(su2.point_from_matrix(u), x, atol=1e-13)
    # a (..., 4) stack maps point by point, and back from (..., 2, 2)
    stack = pts.reshape(5, 6, 4)
    mats = su2.matrix_from_point(stack)
    assert mats.shape == (5, 6, 2, 2)
    assert np.array_equal(mats[2, 3], su2.matrix_from_point(stack[2, 3]))
    assert np.array_equal(su2.point_from_matrix(mats), stack)
    g = gc.WEYL_GENERATORS[2]
    assert np.array_equal(gc.apply(g, stack)[4, 1], gc.apply(g, stack[4, 1]))
    assert gc.apply(g, np.arange(8).reshape(2, 4)).dtype.kind == "i"
    for bad in (np.zeros(3), np.zeros((2, 5))):
        with pytest.raises(ValueError):
            su2.matrix_from_point(bad)
        with pytest.raises(ValueError):
            gc.apply(g, bad)
    with pytest.raises(ValueError):
        su2.point_from_matrix(np.zeros((4, 3, 3)))


def test_su2_exact_inverse_requires_unit_determinant():
    m = Su2Exact.from_rows((2, 0), (0, 1))
    with pytest.raises(ValueError):
        m.inverse()


def test_pair_composition_is_application_order():
    # (p then q) acting on u equals q(p(u))
    from s3harm.deck import QUATERNION_WORDS

    p = su2.lift_even_word(QUATERNION_WORDS["q1"])
    q = su2.lift_even_word(QUATERNION_WORDS["q2"])
    x = gc.random_sphere_points(1, seed=3)[0]
    u = su2.matrix_from_point(x)
    combined = su2.pair_action(p.compose(q), u)
    stepped = su2.pair_action(q, su2.pair_action(p, u))
    assert np.allclose(combined, stepped, atol=1e-13)
    # a stack of matrices and an exact matrix are parsed like one 2x2 array
    stack = np.stack([u, u.conj().T])
    assert np.allclose(su2.pair_action(p, stack)[1], su2.pair_action(p, u.conj().T), atol=1e-15)
    assert np.allclose(su2.pair_action(p, q.left), su2.pair_action(p, q.left.to_complex()), atol=1e-15)
    with pytest.raises(ValueError):
        su2.pair_action(p, np.eye(3))

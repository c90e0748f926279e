"""Signed-permutation arithmetic checked against plain matrix algebra."""

import numpy as np
import pytest

from s3harm import groupcore as gc

from helpers import cycles_to_perm, signed_perm_matrix


RNG_SEED = 20240817


def random_elements(rng, n):
    out = []
    for _ in range(n):
        perm = tuple(int(v) for v in rng.permutation(4))
        signs = tuple(int(s) for s in rng.choice([-1, 1], size=4))
        out.append(gc.HyperoctElement(signs=signs, perm=perm))
    return out


def test_weyl_generators_are_householder_reflections():
    # W_s must equal I - 2 a_s a_s^T for the stored unit normal a_s.
    for s, vec in gc.WEYL_VECTORS.items():
        a = np.array(vec, dtype=float)
        a = a / np.linalg.norm(a)
        householder = np.eye(4) - 2.0 * np.outer(a, a)
        assert np.allclose(signed_perm_matrix(gc.WEYL_GENERATORS[s]), householder, atol=1e-12)


def test_weyl_generators_are_involutions():
    for s, w in gc.WEYL_GENERATORS.items():
        assert gc.multiply(w, w) == gc.IDENTITY


def test_full_closure_has_order_384():
    group = gc.closure(list(gc.WEYL_GENERATORS.values()), bound=500)
    assert len(group) == 384


def test_rotation_closure_from_three_reflections_has_order_48():
    # pairwise products of W1, W2, W3 generate the rotation part of a rank-3 subgroup
    gens = [gc.WEYL_GENERATORS[s] for s in (1, 2, 3)]
    group = gc.closure(gens, bound=500)
    assert len(group) == 48


def test_even_subgroup_has_order_192():
    gens = []
    ws = list(gc.WEYL_GENERATORS.values())
    for a in ws:
        for b in ws:
            g = gc.multiply(a, b)
            if g.determinant() == 1:
                gens.append(g)
    group = gc.closure(gens, bound=500)
    assert len(group) == 192
    assert all(g.determinant() == 1 for g in group)


def test_multiply_matches_matrix_product():
    rng = np.random.default_rng(RNG_SEED)
    elems = random_elements(rng, 12)
    for a in elems:
        for b in elems:
            prod = gc.multiply(a, b)
            assert np.array_equal(signed_perm_matrix(prod), signed_perm_matrix(a) @ signed_perm_matrix(b))


def test_multiply_is_associative():
    rng = np.random.default_rng(RNG_SEED + 1)
    elems = random_elements(rng, 6)
    for a in elems:
        for b in elems:
            for c in elems:
                left = gc.multiply(gc.multiply(a, b), c)
                right = gc.multiply(a, gc.multiply(b, c))
                assert left == right


def test_inverse_and_identity():
    rng = np.random.default_rng(RNG_SEED + 2)
    for g in random_elements(rng, 20):
        assert gc.multiply(g, gc.inverse(g)) == gc.IDENTITY
        assert gc.multiply(gc.inverse(g), g) == gc.IDENTITY
        assert gc.multiply(g, gc.IDENTITY) == g


def test_products_and_inverses_are_valid_elements():
    # multiply and inverse skip the constructor's checks; the full closure
    # must still hold only elements the constructor accepts, equal to its own
    group = gc.closure(gc.WEYL_GENERATORS.values())
    assert len(group) == 384
    for g in group:
        assert g == gc.HyperoctElement(g.signs, g.perm)
        assert hash(g) == hash(gc.HyperoctElement(g.signs, g.perm))
        h = gc.inverse(g)
        assert h == gc.HyperoctElement(h.signs, h.perm)
        assert isinstance(g.signs, tuple) and isinstance(g.perm, tuple)


def test_constructor_still_refuses_bad_elements():
    with pytest.raises(ValueError):
        gc.HyperoctElement((1, 1, 1))
    with pytest.raises(ValueError):
        gc.HyperoctElement((1, 2, 1, 1))
    with pytest.raises(ValueError):
        gc.HyperoctElement((1, 1, 1, 1), (0, 0, 1, 2))


def test_apply_matches_matrix_action():
    rng = np.random.default_rng(RNG_SEED + 3)
    pts = gc.random_sphere_points(10, seed=7)
    for g in random_elements(rng, 10):
        m = signed_perm_matrix(g)
        for x in pts:
            assert np.allclose(gc.apply(g, x), m @ np.asarray(x), atol=1e-13)


def test_word_letters_act_first_letter_first():
    # element_from_word((2, 3)) applied to x must equal W3 applied after W2
    x = np.array([0.1, -0.7, 0.3, 0.64])
    w = gc.element_from_word((2, 3))
    step = gc.apply(gc.WEYL_GENERATORS[3], gc.apply(gc.WEYL_GENERATORS[2], x))
    assert np.allclose(gc.apply(w, x), step, atol=1e-14)


def test_j4_letter_is_central_inversion():
    w = gc.element_from_word(("J4",))
    assert w == gc.INVERSION
    assert np.array_equal(signed_perm_matrix(w), -np.eye(4))


def test_cycle_string_round_trip_on_all_permutations():
    from itertools import permutations

    for p in permutations(range(4)):
        text = gc.perm_to_cycles(p)
        assert cycles_to_perm(text) == p


def test_cycle_string_refuses_a_non_permutation():
    for bad in [(1, 1, 2, 3), (0, 1, 2), (4, 0, 1, 2)]:
        with pytest.raises(ValueError, match="permutation of 0..3"):
            gc.perm_to_cycles(bad)


def test_cycle_string_parse_is_reversed():
    # "(0132)" means 0 <- 1 <- 3 <- 2 <- 0 in one-line form [2, 0, 3, 1]
    assert cycles_to_perm("(0132)") == (2, 0, 3, 1)
    assert cycles_to_perm("e") == (0, 1, 2, 3)
    assert cycles_to_perm("(03)(12)") == (3, 2, 1, 0)


def test_fixed_point_criterion_matches_eigenvalue_test():
    group = gc.closure(list(gc.WEYL_GENERATORS.values()), bound=500)
    for g in group:
        eigs = np.linalg.eigvals(signed_perm_matrix(g).astype(float))
        has_unit_eig = bool(np.any(np.abs(eigs - 1.0) < 1e-9))
        assert gc.has_fixed_point_on_sphere(g) == has_unit_eig


def test_determinant_matches_numpy():
    group = gc.closure(list(gc.WEYL_GENERATORS.values()), bound=500)
    for g in group:
        det = round(float(np.linalg.det(signed_perm_matrix(g).astype(float))))
        assert g.determinant() == det


def test_orbit_of_first_cell_center_has_size_8():
    group = gc.closure(list(gc.WEYL_GENERATORS.values()), bound=500)
    orbit = {tuple(int(c) for c in gc.apply(g, (1, 0, 0, 0))) for g in group}
    expected = set()
    for i in range(4):
        for s in (-1, 1):
            v = [0, 0, 0, 0]
            v[i] = s
            expected.add(tuple(v))
    assert orbit == expected


def test_action_string_reads_back_correctly():
    w = gc.HyperoctElement(signs=(1, -1, 1, 1), perm=(2, 0, 3, 1))
    assert w.action_string() == "(x1,-x3,x0,x2)"


def test_closure_bound_raises_when_too_small():
    with pytest.raises(ValueError):
        gc.closure(list(gc.WEYL_GENERATORS.values()), bound=10)


def test_sphere_points_repeat_for_a_seed_and_differ_between_seeds():
    first = gc.random_sphere_points(50, seed=5)
    assert first.shape == (50, 4)
    assert np.array_equal(first, gc.random_sphere_points(50, seed=5))
    assert np.array_equal(first, gc.random_sphere_points(50, seed=np.int64(5)))
    assert not np.any(np.all(first == gc.random_sphere_points(50, seed=6), axis=1))


def test_sphere_points_refuse_a_negative_count():
    assert gc.random_sphere_points(0).shape == (0, 4)
    with pytest.raises(ValueError):
        gc.random_sphere_points(-2)


@pytest.mark.parametrize(
    "n, seed", [(2.5, 1), (True, 1), (np.True_, 1), ("3", 1), (3, 1.5), (3, True)], ids=repr
)
def test_sphere_points_refuse_a_count_or_seed_that_is_no_integer(n, seed):
    with pytest.raises(ValueError, match="must be an integer"):
        gc.random_sphere_points(n, seed=seed)


def test_sphere_points_are_unit_vectors():
    pts = gc.random_sphere_points(1000, seed=1)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-15


def test_sphere_points_have_the_uniform_moments():
    # Uniform on S^3: E[x_i] = 0 and E[x_i^2] = 1/4 for every coordinate.
    pts = gc.random_sphere_points(20_000, seed=0)
    assert np.all(np.abs(pts.mean(axis=0)) < 0.01)
    assert np.all(np.abs((pts**2).mean(axis=0) - 0.25) < 0.01)


def test_sphere_points_follow_the_documented_stream():
    # random.Random(42) gives u = (0.6394..., 0.0250..., 0.2750...) on every
    # Python, so the first point of seed 42 is frozen.
    frozen = [0.7897882977934517, 0.12514488853487296, -0.09404462518310398, 0.5930672896192183]
    assert np.max(np.abs(gc.random_sphere_points(1, seed=42)[0] - frozen)) < 1e-15


@pytest.mark.parametrize(
    "values, mean",
    [([3, 1, -1, 1], 1), ([2.0000000000001, 1.9999999999999, 2.0, 2.0], 2), ([np.int64(4), np.int64(0)], 2)],
    ids=["int", "float", "numpy-int"],
)
def test_identity_multiplicity_is_the_character_mean(values, mean):
    got = gc.identity_multiplicity(range(len(values)), values.__getitem__)
    assert got == mean and type(got) is int


@pytest.mark.parametrize("values", [[1, 0], [-2, 0], [-0.25, 0.25, -0.5, -0.5]], ids=["half", "negative", "near-zero"])
def test_identity_multiplicity_refuses_a_mean_that_is_no_count(values):
    with pytest.raises(RuntimeError, match="not a clean non-negative integer"):
        gc.identity_multiplicity(range(len(values)), values.__getitem__)

"""Multiplicity tables, invariance projectors, and the explicit bases."""

import itertools
import math
import os
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from s3harm import bases
from s3harm import groupcore as gc
from s3harm import su2, wigner
from s3harm.cli import J_MAX_LIMIT
from s3harm.deck import DeckGroup, build_cyclic8, build_quaternion, product_table
from s3harm.wigner import (
    EulerAngles,
    conjugation_harmonic,
    euler_quadrature,
    wigner_d,
    wigner_entry,
)

from helpers import by_label, coefficient_vector, euler_matrix, signed_perm_matrix


def basis_values(functions, u):
    """Batched reference: every function at u, one column per function in
    list order, from the list's table, degree by degree: u parsed once
    (`wigner._points`), and each degree's terms evaluated by
    `wigner._slot_values`."""
    table = bases._terms(functions)
    points = wigner._points(u)
    out = np.zeros((len(table.j), len(points.where)), dtype=complex)
    for j in np.flatnonzero(np.bincount(table.terms.j)):
        degree = table.terms.degree(j)
        rows = degree.owner[wigner._runs(degree.owner)[0]]
        for at, values in wigner._slot_values(2 * int(j), *degree.slot_columns(), points):
            out[rows, at] = values
    return out.T.reshape(points.shape + (len(table.j),))


# frozen degree-0 through degree-8 counts
MULT_C8 = [1, 1, 7, 11, 23, 27, 45, 53, 77]
MULT_Q = [1, 0, 10, 7, 27, 22, 52, 45, 85]


def test_frozen_multiplicities():
    assert [bases.multiplicity_c8(j) for j in range(9)] == MULT_C8
    assert [bases.multiplicity_q(j) for j in range(9)] == MULT_Q


def test_multiplicity_closed_forms():
    # quaternion counts split by parity of the degree
    for j in range(0, 21, 2):
        assert bases.multiplicity_q(j) == (2 * j + 1) * (j + 2) // 2
    for j in range(1, 21, 2):
        assert bases.multiplicity_q(j) == (2 * j + 1) * (j - 1) // 2
    # cyclic counts: 4 m(j) = (2j+1)^2 - 1 + (-1)^j (4 + 8 floor(j/4))
    for j in range(81):
        assert 4 * bases.multiplicity_c8(j) == (2 * j + 1) ** 2 - 1 + (-1) ** j * (4 + 8 * (j // 4))


def test_cyclic_recursion():
    # m(j+4) = m(j) + 8j + 20 + 2(-1)^j
    for j in range(0, 13):
        lhs = bases.multiplicity_c8(j + 4)
        rhs = bases.multiplicity_c8(j) + 8 * j + 20 + 2 * (-1) ** j
        assert lhs == rhs


def molien_counts(group, top):
    """Dimensions p_0..p_top of the group's invariant polynomials on R^4,
    exactly, from the Molien series (1/|H|) sum_h 1/det(I - t h) of the
    4x4 signed permutation matrices (Ikeda 1980)."""

    def det(rows):
        n = len(rows)
        return sum(
            (-1) ** sum(p[i] > p[k] for i in range(n) for k in range(i + 1, n))
            * math.prod(int(rows[i][p[i]]) for i in range(n))
            for p in itertools.permutations(range(n))
        )

    total = [Fraction(0)] * (top + 1)
    for el in group.elements:
        m = signed_perm_matrix(el.element)
        # det(I - t M) = sum_k (-t)^k e_k, e_k the sum of principal k-minors
        char = [(-1) ** k * sum(det(m[np.ix_(s, s)]) for s in itertools.combinations(range(4), k))
                for k in range(5)]
        series = [Fraction(1)]
        for n in range(1, top + 1):
            series.append(-sum(char[k] * series[n - k] for k in range(1, min(n, 4) + 1)))
        total = [t + c / len(group.elements) for t, c in zip(total, series)]
    assert all(c.denominator == 1 for c in total)
    return [int(c) for c in total]


def test_molien_series_gives_every_multiplicity():
    # degree-j harmonics are the harmonic polynomials of degree 2j, and
    # invariant polynomials of degree n split as harmonics plus |x|^2 times
    # those of degree n - 2, so m(j) = p_{2j} - p_{2j-2}; this reads neither
    # characters nor closed forms
    for group, multiplicity in ((build_cyclic8(), bases.multiplicity_c8), (build_quaternion(), bases.multiplicity_q)):
        p = molien_counts(group, 120)
        assert [p[0]] + [p[2 * j] - p[2 * j - 2] for j in range(1, 61)] == [multiplicity(j) for j in range(61)]


def test_half_integer_degrees_have_no_periodic_harmonics():
    for jx2 in (1, 3, 5, 9):
        assert bases.multiplicity_c8(jx2 / 2) == 0
        assert bases.multiplicity_q(jx2 / 2) == 0


def test_quaternion_character_sum_route_agrees():
    for j in range(0, 16):
        assert bases.multiplicity_q_character_sum(j) == bases.multiplicity_q(j)


def test_multiplicity_for_dispatch():
    assert bases.multiplicity_for("C2", 3) == MULT_C8[3]
    assert bases.multiplicity_for("c3", 4) == MULT_Q[4]
    with pytest.raises(ValueError):
        bases.multiplicity_for("C9", 2)


# ---------------------------------------------------------------- projectors


@pytest.mark.parametrize("j", range(7))
def test_cyclic_projector_two_routes_agree(j):
    averaged, closed = bases.projector_c8(j)
    assert np.max(np.abs(averaged - closed)) < 1e-12
    assert np.max(np.abs(averaged @ averaged - averaged)) < 1e-12
    assert abs(np.trace(averaged).real - bases.multiplicity_c8(j)) < 1e-9
    assert abs(np.trace(averaged).imag) < 1e-12


@pytest.mark.parametrize("j", range(7))
def test_quaternion_projector_two_routes_agree(j):
    averaged, closed = bases.projector_q(j)
    assert np.max(np.abs(averaged - closed)) < 1e-12
    assert np.max(np.abs(averaged @ averaged - averaged)) < 1e-12
    # one-sided operator: trace times (2j+1) counts the harmonics
    assert abs(np.trace(averaged).real * (2 * j + 1) - bases.multiplicity_q(j)) < 1e-9


def test_projectors_kill_odd_rows():
    for j in (2, 3, 4):
        averaged, _ = bases.projector_c8(j)
        dim = 2 * j + 1
        for r1, m1 in enumerate(range(j, -j - 1, -1)):
            if m1 % 2 == 0:
                continue
            block = averaged[r1 * dim:(r1 + 1) * dim, :]
            assert np.max(np.abs(block)) < 1e-13


def test_degree_zero_projector_is_identity():
    for proj, _ in (bases.projector_c8(0), bases.projector_q(0)):
        assert proj.shape == (1, 1)
        assert abs(proj[0, 0] - 1.0) < 1e-14


def test_degree_one_quaternion_projector_vanishes():
    averaged, closed = bases.projector_q(1)
    assert np.max(np.abs(averaged)) < 1e-13
    assert np.max(np.abs(closed)) < 1e-13


def _huge_pages_always() -> bool:
    try:
        with open("/sys/kernel/mm/transparent_hugepage/enabled") as handle:
            return "[always]" in handle.read()
    except OSError:
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/statm") or _huge_pages_always(),
                    reason="needs /proc/self/statm, and a huge-page mode other than always")
def test_dense_projectors_keep_only_their_written_pages_resident():
    # each 1089 x 1089 matrix of degree 16 holds about one nonzero a row, so
    # the pages the scatters write, and the build's growth, come to about
    # 0.19 of the two matrices' bytes; numpy.zeros buffers under huge-page
    # advice made 0.91 of them resident
    def resident():
        with open("/proc/self/statm") as handle:
            return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

    before = resident()
    arrays = bases.projector_c8(16)
    grown = resident() - before
    assert grown < 0.5 * sum(a.nbytes for a in arrays)
    for a in arrays:
        assert a.dtype == np.complex128 and a.flags.c_contiguous and a.flags.writeable


def test_one_sided_projector_refuses_a_two_sided_group(monkeypatch):
    # projector_q averages the left factors only; a group acting on the
    # right as well must be refused, not silently truncated
    monkeypatch.setattr(bases, "build_quaternion", build_cyclic8)
    bases.projector_q(0)
    with pytest.raises(RuntimeError):
        bases.projector_q(1)


# --------------------------------------------------------------------- bases


def test_basis_counts_match_multiplicities():
    for j in range(7):
        assert len(bases.basis_c2(j)) == MULT_C8[j]
        assert len(bases.basis_c3(j)) == MULT_Q[j]


def test_basis_degree_zero_is_the_constant():
    for build in (bases.basis_c2, bases.basis_c3):
        fns = build(0)
        assert len(fns) == 1
        f = fns[0]
        assert f.kind == "single-term"
        assert f.terms == ((0, 0, 1.0 + 0j),)
        assert abs(f.norm_factor - 1.0 / (np.sqrt(8.0) * np.pi)) < 1e-15


def test_basis_c2_degree_one_structure():
    fns = bases.basis_c2(1)
    assert len(fns) == 1
    f = fns[0]
    assert (f.m1, f.m2, f.kind) == (0, 1, "two-term-sum")
    (t1, t2) = f.terms
    assert t1 == (0, 1, 1.0 + 0j)
    assert t2[0:2] == (0, -1)
    assert abs(t2[2] - 1j) < 1e-15
    assert abs(f.norm_factor - np.sqrt(3.0) / (4.0 * np.pi)) < 1e-15


def test_basis_c3_degree_two_structure():
    fns = bases.basis_c3(2)
    singles = [f for f in fns if f.kind == "single-term"]
    doubles = [f for f in fns if f.kind == "two-term-sum"]
    assert len(singles) == 5 and len(doubles) == 5
    assert all(f.m1 == 0 for f in singles)
    assert sorted(f.m2 for f in singles) == [-2, -1, 0, 1, 2]
    for f in doubles:
        assert f.m1 == 2
        assert f.terms[1] == (-2, f.m2, 1.0 + 0j)


def test_basis_c3_degree_three_structure():
    fns = bases.basis_c3(3)
    assert len(fns) == 7
    for f in fns:
        assert f.kind == "two-term-difference"
        assert f.m1 == 2
        assert f.terms[1] == (-2, f.m2, -1.0 + 0j)
    assert sorted(f.m2 for f in fns) == list(range(-3, 4))


def test_basis_sorted_by_degree_then_indices():
    fns = bases.basis_c3(4)
    keys = [(f.j, f.m1, f.m2) for f in fns]
    assert keys == sorted(keys)


def test_half_integer_degree_rejected():
    with pytest.raises(ValueError):
        bases.basis_c2(1.5)
    with pytest.raises(ValueError):
        bases.basis_c3(0.5)
    # negative degrees are refused, half-integer or not
    for count in (bases.multiplicity_c8, bases.multiplicity_q, bases.multiplicity_q_character_sum):
        for j in (-0.5, -1, -1.5):
            with pytest.raises(ValueError):
                count(j)


def same_bits(a, b) -> bool:
    """Equal arrays down to the bits, signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype.kind in "fc":
        return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))
    return np.array_equal(a, b)


@pytest.mark.parametrize("manifold", ["C2", "C3"])
def test_the_mesh_table_is_the_walk_of_its_records(manifold):
    # the table of degrees 0..20 built at once from the selection rules,
    # against the walk of the records each degree's table gives
    mesh = bases._by_manifold(manifold, bases._mesh_c2, bases._mesh_c3)(range(21))
    walk = bases._terms([f for j in range(21) for f in bases.basis_for(manifold, j)])
    assert mesh.manifold == walk.manifold == manifold
    for column in ("j", "m1", "m2", "kind", "norm"):
        assert same_bits(getattr(mesh, column), getattr(walk, column)), column
    for column, a, b in zip(bases._Terms._fields, mesh.terms, walk.terms):
        assert same_bits(a, b), column
    assert len(mesh.j) == sum((MULT_C8 if manifold == "C2" else MULT_Q)[:9]) + sum(
        bases.multiplicity_for(manifold, j) for j in range(9, 21))


def test_the_records_hold_python_scalars():
    # json refuses numpy scalars, and `s3harm basis` dumps the records
    for f in bases.basis_c2(3) + bases.basis_c3(2):
        assert type(f.j) is type(f.m1) is type(f.m2) is int and type(f.kind) is str
        assert type(f.norm_factor) is float
        assert all(type(m1) is type(m2) is int and type(c) is complex for m1, m2, c in f.terms)


def test_a_term_outside_its_degree_is_refused():
    # (3, 0) lies outside degree 2: its flat index would wrap onto another
    # entry of the coefficient vector and onto a kernel row of another m
    good = bases.basis_c2(2)[5]
    bad_terms = (
        ((3, 0, 1 + 0j), (0, -1, -1j)),
        ((0, 1, 1 + 0j), (0, -3, -1j)),
        ((0.5, 1, 1 + 0j),),
        (("0", 1, 1 + 0j),),
        ((0, None, 1 + 0j),),
    )
    cases = [replace(good, terms=terms) for terms in bad_terms]
    cases += [replace(good, j=j) for j in (-1, 2.5, "2", math.inf)]
    for bad in cases:
        for call in (
            lambda: bases.gram_matrix([bad]),
            lambda: bad.evaluate(np.eye(2)),
            lambda: coefficient_vector(bad),
            lambda: bases.verify_basis([bad], build_cyclic8(), n_points=3),
        ):
            with pytest.raises(ValueError):
                call()
    # an integral float is an integer
    assert np.array_equal(coefficient_vector(replace(good, j=2.0)), coefficient_vector(good))


def test_basis_for_dispatch():
    assert [f.manifold for f in bases.basis_for("c2", 2)] == ["C2"] * MULT_C8[2]
    with pytest.raises(ValueError):
        bases.basis_for("S3", 1)


def test_evaluate_agrees_across_input_forms():
    f = bases.basis_c2(2)[3]
    x = gc.random_sphere_points(1, seed=8)[0]
    u = su2.matrix_from_point(x)
    stacked = np.stack([u, np.eye(2)])
    v_plain = f.evaluate(u)
    v_stack = f.evaluate(stacked)
    assert abs(v_plain - v_stack[0]) < 1e-14
    q1 = by_label(build_quaternion(), "q1").pair.left
    assert abs(f.evaluate(q1) - f.evaluate(q1.to_complex())) < 1e-14


def test_a_record_is_evaluated_as_one_grid_without_a_table(monkeypatch):
    # the terms of one record are one column of the kernel's grid, as a
    # conjugation-adapted harmonic's are, and give the bits of the list route
    x = gc.random_sphere_points(12, seed=6)
    forms = [
        su2.matrix_from_point(x[0]),
        su2.matrix_from_point(x).reshape(3, 4, 2, 2),
        EulerAngles(np.linspace(-1, 6, 5)[:, None], np.linspace(0, np.pi, 5)[:, None], np.linspace(0, 3, 2)),
        by_label(build_quaternion(), "q2").pair.left,
    ]
    fns = [f for j in (0, 3, 6) for manifold in ("C2", "C3") for f in bases.basis_for(manifold, j)[:3]]
    listed = [[basis_values([f], u)[..., 0] for u in forms] for f in fns]

    def no_table(*args):
        raise AssertionError("a single record built a table")

    monkeypatch.setattr(bases, "_terms", no_table)
    for f, expected in zip(fns, listed):
        for u, want in zip(forms, expected):
            got = np.asarray(f.evaluate(u))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # a record without terms is the empty sum
    empty = replace(fns[0], terms=())
    assert empty.evaluate(forms[0]) == 0 and empty.evaluate(forms[1]).shape == (3, 4)


@pytest.mark.parametrize("manifold", ["C2", "C3"])
def test_batched_evaluator_matches_per_function_sums(manifold):
    rng = np.random.default_rng(5)
    fns = [f for j in range(7) for f in bases.basis_for(manifold, j)]
    fns = [fns[i] for i in rng.permutation(len(fns))]
    angles = EulerAngles(
        rng.uniform(0, 2 * np.pi, 6), rng.uniform(0, np.pi, 6), rng.uniform(0, 2 * np.pi, 6)
    )
    stacked = np.stack([su2.matrix_from_point(x) for x in gc.random_sphere_points(6, seed=9)])
    exact = by_label(build_quaternion(), "q2").pair.left
    for u, mats in ((angles, euler_matrix(angles)), (stacked, stacked), (exact, exact.to_complex())):
        entries = (mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 0], mats[..., 1, 1])
        batched = basis_values(fns, u)
        assert batched.shape == mats.shape[:-2] + (len(fns),)
        for k, f in enumerate(fns):
            explicit = f.norm_factor * sum(
                coef * wigner_entry(f.j, m1, m2, *entries) for m1, m2, coef in f.terms
            )
            assert np.max(np.abs(batched[..., k] - f.evaluate(u))) < 1e-13
            assert np.max(np.abs(batched[..., k] - explicit)) < 1e-13
    bad = np.ones((3, 3))
    for call in (
        lambda: wigner_d(1, bad),
        lambda: wigner_d(1, stacked),
        lambda: conjugation_harmonic(3, 1, 0, bad),
        lambda: fns[0].evaluate(bad),
    ):
        with pytest.raises(ValueError):
            call()


def test_coefficient_vector_layout():
    f = bases.basis_c2(1)[0]   # terms at (0, 1) and (0, -1), j = 1
    vec = coefficient_vector(f)
    dim = 3
    assert vec.shape == (9,)
    assert abs(vec[(1 - 0) * dim + (1 - 1)] - f.norm_factor) < 1e-15
    assert abs(vec[(1 - 0) * dim + (1 + 1)] - f.norm_factor * 1j) < 1e-15
    assert np.count_nonzero(vec) == 2


def test_json_dict_round_trip_fields():
    f = bases.basis_c3(2)[7]
    blob = f.to_json_dict()
    assert blob["manifold"] == "C3" and blob["j"] == 2
    assert blob["kind"] == f.kind
    rebuilt = tuple((t["m1p"], t["m2p"], complex(t["re"], t["im"])) for t in blob["terms"])
    assert rebuilt == f.terms


def test_gram_is_identity_within_each_degree():
    for manifold, build in (("C2", bases.basis_c2), ("C3", bases.basis_c3)):
        for j in range(5):
            fns = build(j)
            if not fns:
                continue
            gram = bases.gram_matrix(fns)
            assert np.max(np.abs(gram - np.eye(len(fns)))) < 1e-10, (manifold, j)


def test_gram_across_degrees_stays_identity():
    fns = [f for j in range(4) for f in bases.basis_c3(j)]
    gram = bases.gram_matrix(fns, rule=euler_quadrature(6))
    assert np.max(np.abs(gram - np.eye(len(fns)))) < 1e-10


def product_grid_gram(fns, rule):
    """Test oracle: every function at every product node, values^H W values."""
    values = basis_values(fns, rule.angles)
    return 8.0 * math.pi**2 * (values.conj().T @ (values * rule.weights[:, None]))


@pytest.mark.parametrize("manifold", ["C2", "C3"])
def test_separable_gram_equals_product_grid_sum(manifold):
    for j_max in range(7):
        fns = [f for j in range(j_max + 1) for f in bases.basis_for(manifold, j)]
        default = bases.gram_matrix(fns)
        assert np.max(np.abs(default - product_grid_gram(fns, euler_quadrature(2 * j_max)))) < 1e-13
        coarse = euler_quadrature(6)
        assert np.max(np.abs(bases.gram_matrix(fns, coarse) - product_grid_gram(fns, coarse))) < 1e-13


def test_too_coarse_rule_aliases_alike_in_both_routes():
    rule = euler_quadrature(4)
    for manifold in ("C2", "C3"):
        fns = [f for j in range(5) for f in bases.basis_for(manifold, j)]
        separable, oracle = bases.gram_matrix(fns, rule), product_grid_gram(fns, rule)
        assert np.max(np.abs(separable - oracle)) < 1e-13
        if manifold == "C2":
            # alpha differences of 5 alias on the 5-node grid
            for gram in (separable, oracle):
                assert abs(np.max(np.abs(gram - np.eye(len(fns)))) - 0.703) < 1e-3


@pytest.mark.parametrize("manifold", ["C2", "C3"])
def test_blockwise_gram_error_is_the_dense_one_bit_for_bit(manifold):
    for j_max in (4, 8):
        fns = [f for j in range(j_max + 1) for f in bases.basis_for(manifold, j)]
        eye = np.eye(len(fns))
        for rule in (None, euler_quadrature(6)):
            err, channels, entries = bases._gram_error(bases._terms(fns), rule)
            assert err == np.max(np.abs(bases.gram_matrix(fns, rule) - eye))
            assert 0 < channels and len(fns) <= entries < len(fns) ** 2
    # on the 7-node grids m and m + 7 alias, which puts more functions into
    # one channel, adds entries and leaves a large error in both routes alike
    table = bases._terms(fns)
    aliased, exact = bases._gram_error(table, euler_quadrature(6)), bases._gram_error(table)
    assert aliased[0] > 0.1 and aliased[2] > exact[2]


def test_gram_error_counts_a_function_without_terms():
    fns = bases.basis_c2(2)
    empty = replace(fns[0], terms=())
    assert bases._gram_error(bases._terms(fns + [empty]))[0] == 1.0
    # that function has no entry, so its diagonal stays 0
    assert bases.gram_matrix(fns + [empty])[-1, -1] == 0.0


@pytest.mark.parametrize("manifold", ["C2", "C3"])
@pytest.mark.parametrize("rule", [None, euler_quadrature(6)], ids=["default", "aliased"])
def test_gram_of_a_shuffled_list_is_the_permuted_gram(manifold, rule):
    fns = [f for j in range(9) for f in bases.basis_for(manifold, j)]
    perm = np.random.default_rng(7).permutation(len(fns))
    shuffled = bases.gram_matrix([fns[i] for i in perm], rule)
    assert np.max(np.abs(shuffled - bases.gram_matrix(fns, rule)[perm][:, perm])) <= 1e-15


@pytest.mark.parametrize("rule", [None, euler_quadrature(6)], ids=["default", "aliased"])
def test_the_gram_batches_change_no_bit(rule, monkeypatch):
    # every channel set in one batch, against one set per batch
    tables = [mesh(range(9)) for mesh in (bases._mesh_c2, bases._mesh_c3)]
    routes = (
        lambda table: bases._gram_error(table, rule),
        lambda table: bases.gram_matrix(bases._views(table), rule),
    )
    default = [route(table) for table in tables for route in routes]
    monkeypatch.setattr(bases, "_GRAM_BUDGET", 1)
    smallest = [route(table) for table in tables for route in routes]
    assert smallest[0] == default[0] and smallest[2] == default[2]
    assert np.array_equal(smallest[1], default[1]) and np.array_equal(smallest[3], default[3])


@pytest.mark.parametrize("manifold", ["C2", "C3"])
def test_a_set_whose_channels_hold_other_functions_sums_like_the_grid(manifold):
    # records that lost their partner term, or hold it twice, leave the two
    # channels of their set with different functions: their set's grid has
    # padding slots and two ranks, which must give the product-grid sum
    fns = [f for j in range(5) for f in bases.basis_for(manifold, j)]
    paired = [i for i, f in enumerate(fns) if len(f.terms) == 2]
    fns[paired[3]] = replace(fns[paired[3]], terms=fns[paired[3]].terms[:1])
    fns[paired[-1]] = replace(fns[paired[-1]], terms=fns[paired[-1]].terms[1:] * 2)
    for rule in (euler_quadrature(8), euler_quadrature(6)):
        gram = bases.gram_matrix(fns, rule)
        assert np.max(np.abs(gram - product_grid_gram(fns, rule))) < 1e-13
        assert bases._gram_error(bases._terms(fns), rule)[0] == np.max(np.abs(gram - np.eye(len(fns))))


def test_a_chained_set_has_an_entry_only_where_two_functions_meet():
    # A and B share the channel (1, 0); B, C and D share (1, 1), which D
    # holds twice: one set of three channels, in which A meets neither C nor D
    def record(j, *pairs):
        terms = tuple((m1, m2, complex(1 + k, 0.5 * k)) for k, (m1, m2) in enumerate(pairs))
        return bases.BasisFunction("C2", j, *pairs[0], "single-term", terms, 0.3)

    fns = [record(1, (0, 0), (1, 0)), record(2, (1, 0), (1, 1)), record(1, (1, 1)), record(2, (1, 1), (1, 1))]
    meet = set(itertools.product(range(4), repeat=2)) - {(0, 2), (2, 0), (0, 3), (3, 0)}
    table = bases._terms(fns)
    for rule in (None, euler_quadrature(6)):
        assert bases._gram_error(table, rule)[1:] == (3, 12)
        keys = np.concatenate([keys for keys, _ in bases._gram_entries(table, rule)[1]])
        assert {divmod(key, 4) for key in keys.tolist()} == meet
        oracle = product_grid_gram(fns, rule or euler_quadrature(4))
        assert np.max(np.abs(bases.gram_matrix(fns, rule) - oracle)) < 1e-13


def test_gram_counts_and_error_of_the_recurrence():
    # the counts are those of every earlier route; the error is a few ulps
    for mesh, entries in ((bases._mesh_c2, (4593, 31681)), (bases._mesh_c3, (4453, 31021))):
        for top, channels, count in ((12, 325, entries[0]), (20, 861, entries[1])):
            err, n_channels, n_entries = bases._gram_error(mesh(range(top + 1)))
            assert (n_channels, n_entries) == (channels, count)
            assert err <= (2.5e-15 if top == 12 else 5e-15)


def dense_action(gather, phase):
    """Test helper: each element's exact action as a dense (2j+1)^2 matrix."""
    size = gather.shape[1]
    out = np.zeros((len(gather), size, size), dtype=complex)
    for h, (g, p) in enumerate(zip(gather, phase)):
        out[h, np.arange(size), g] = bases._MU8[p]
    return out


def test_batched_deck_operators_match_per_element_wigner_d():
    # kernel honesty: the exact monomial rows of every lift factor, made
    # dense, against the numeric Wigner kernel, and the pair action against
    # the Kronecker product of those factors.  The kernel raises
    # fl(exp(i pi/4)), of modulus 1 + 1.1e-16, to powers up to 2j, so its
    # unit entries drift from the exact ones by up to 2j * 2.2e-16.
    for group in (build_cyclic8(), build_quaternion()):
        for j in range(13):
            dim = 2 * j + 1
            kernel_tol = 1e-15 + 2 * j * 2.3e-16
            gather, phase = bases._deck_action(group, j)
            assert gather.shape == phase.shape == (8, dim * dim)
            assert phase.min() >= 0 and phase.max() < 8
            for el, pair_action in zip(group.elements, dense_action(gather, phase)):
                factors = []
                for lift in (el.pair.left.inverse(), el.pair.right):
                    cols, exps = bases._monomial_rows(bases._monomial_form(lift), j)
                    dense = np.zeros((dim, dim), dtype=complex)
                    dense[np.arange(dim), cols] = bases._MU8[exps]
                    assert np.max(np.abs(dense - wigner_d(j, lift))) < kernel_tol
                    factors.append(dense)
                assert np.max(np.abs(pair_action - np.kron(factors[0].T, factors[1]))) < 1e-15


def test_every_gather_is_an_involution():
    # each lift maps rows to columns by an involution, so `_average` reads
    # gather[:, index] for the positions the entries at index move to
    for group in (build_cyclic8(), build_quaternion()):
        for j in range(13):
            gather, _ = bases._deck_action(group, j)
            identity = np.broadcast_to(np.arange(gather.shape[1]), gather.shape)
            assert np.array_equal(np.take_along_axis(gather, gather, axis=1), identity)
            assert np.array_equal(np.argsort(gather, axis=1), gather)


def test_each_lift_is_read_once_for_every_degree():
    # the exact action itself is checked against wigner_d above
    group = build_cyclic8()
    bases._pair_forms.cache_clear()
    for j in range(6):
        bases._deck_action(group, j)
    info = bases._pair_forms.cache_info()
    assert (info.misses, info.hits) == (len(group.elements), 5 * len(group.elements))


def test_deck_operators_refuse_a_non_unitary_lift():
    def group_of(right):
        pair = su2.IsoPair(su2.Su2Exact.identity(), right)
        return SimpleNamespace(elements=(SimpleNamespace(pair=pair),))

    not_monomial = su2.weyl_matrix(2)
    assert not_monomial.det() == su2.Su2Exact.identity().det()
    with pytest.raises(ValueError, match="neither diagonal nor anti-diagonal"):
        bases._deck_action(group_of(not_monomial), 1)
    # diag(2, 1/2) has determinant 1, but its entries are not roots of unity
    stretched = su2.Su2Exact.from_rows((2, 0), (0, su2.Cyclo8((1, 0, 0, 0), 2)))
    assert stretched.det() == su2.Su2Exact.identity().det()
    with pytest.raises(ValueError, match="not an eighth root of unity"):
        bases._deck_action(group_of(stretched), 1)
    half_turn = su2.Su2Exact.from_rows((0, 1), (-1, 0))
    bases._deck_action(group_of(half_turn), 1)


def test_projector_fixes_coefficient_vectors():
    # the gather-plus-phase average on coefficient matrices against the
    # public dense projectors, at the basis matrices and at random matrices
    rng = np.random.default_rng(3)
    cases = (
        (bases.basis_c2, build_cyclic8(), lambda j: bases.projector_c8(j)[0]),
        (bases.basis_c3, build_quaternion(), lambda j: np.kron(bases.projector_q(j)[0], np.eye(2 * j + 1))),
    )
    for build, group, dense_projector in cases:
        for j in range(6):
            dim = 2 * j + 1
            dense = dense_projector(j)
            gather, phase = bases._deck_action(group, j)
            mats = [coefficient_vector(f) for f in build(j)]
            probes = rng.standard_normal((3, dim * dim)) + 1j * rng.standard_normal((3, dim * dim))
            for k, x in enumerate(mats + list(probes)):
                index = np.flatnonzero(x)
                moved, values = bases._average(gather, phase, index, x[index])
                projected = np.zeros(dim * dim, dtype=complex)
                np.add.at(projected, moved.reshape(-1), values.reshape(-1))
                assert np.max(np.abs(projected - dense @ x)) < 1e-13
                if k < len(mats):
                    assert np.max(np.abs(projected - x)) < 1e-12
            if mats:
                assert bases._fix_error(gather, phase, bases._terms(build(j)).terms) < 1e-12


def test_orbit_count_is_every_multiplicity_up_to_degree_200():
    counts = {}
    for name, group in (("C2", build_cyclic8()), ("C3", build_quaternion())):
        counts[name] = [len(bases._invariant_orbits(*bases._deck_action(group, j))[2]) for j in range(201)]
    assert counts["C2"][: len(MULT_C8)] == MULT_C8
    assert counts["C3"][: len(MULT_Q)] == MULT_Q
    for j in range(201):
        assert counts["C2"][j] == bases.multiplicity_c8(j)
        assert counts["C3"][j] == bases.multiplicity_q(j)
    # criterion-3 recursion m(j+4) = m(j) + 8j + 20 + 2(-1)^j
    for j in range(197):
        assert counts["C2"][j + 4] == counts["C2"][j] + 8 * j + 20 + 2 * (-1) ** j


def test_exact_trace_and_homomorphism_of_the_deck_action():
    for group in (build_cyclic8(), build_quaternion()):
        table = product_table(group)
        for j in range(9):
            gather, phase = bases._deck_action(group, j)
            assert bases._is_homomorphism(gather, phase, table)
            # the dense average is an idempotent whose trace is the rank
            average = dense_action(gather, phase).mean(axis=0)
            rank = len(bases._invariant_orbits(gather, phase)[2])
            assert np.max(np.abs(average @ average - average)) < 1e-13
            assert abs(np.trace(average) - rank) < 1e-12


@pytest.mark.parametrize("manifold", ["C2", "C3"])
def test_phased_orbit_sums_are_the_closed_form_records(manifold):
    group = build_cyclic8() if manifold == "C2" else build_quaternion()
    for j in range(13):
        rep, orbit_phase, invariant = bases._invariant_orbits(*bases._deck_action(group, j))
        orbit_vectors = {}
        for r in invariant:
            vec = np.where(rep == r, bases._MU8[orbit_phase], 0)
            orbit_vectors[r] = vec / np.linalg.norm(vec)
        records = bases.basis_for(manifold, j)
        hit = set()
        for f in records:
            vec = coefficient_vector(f)
            first = np.flatnonzero(vec)[0]
            orbit = orbit_vectors[rep[first]]
            # equal up to a unit factor: |<orbit, vec>| = |vec|
            assert abs(abs(np.vdot(orbit, vec)) - np.linalg.norm(vec)) < 1e-14
            hit.add(rep[first])
        assert len(records) == len(hit) == len(invariant)
        assert bases._matches_orbits(bases._terms(records).terms, rep, orbit_phase, invariant)
    # a record with a flipped relative phase is not an orbit vector
    rep, orbit_phase, invariant = bases._invariant_orbits(*bases._deck_action(group, 3))
    records = bases.basis_for(manifold, 3)
    m1, m2, coef = records[-1].terms[1]
    flipped = records[:-1] + [replace(records[-1], terms=(records[-1].terms[0], (m1, m2, -coef)))]
    assert not bases._matches_orbits(bases._terms(flipped).terms, rep, orbit_phase, invariant)
    # nor is a record scaled off the unit circle, or one missing an orbit
    (n1, n2, c), second = records[-1].terms
    halved = records[:-1] + [replace(records[-1], terms=((n1, n2, c / 2), second))]
    assert not bases._matches_orbits(bases._terms(halved).terms, rep, orbit_phase, invariant)
    assert not bases._matches_orbits(bases._terms(records[:-1]).terms, rep, orbit_phase, invariant)


def test_verify_basis_passes_for_both_manifolds():
    for manifold, group in (("C2", build_cyclic8()), ("C3", build_quaternion())):
        fns = [f for j in range(4) for f in bases.basis_for(manifold, j)]
        report = bases.verify_basis(fns, group, seed=42, tol=1e-10, n_points=40)
        assert report["passed"] is True
        assert report["manifold"] == manifold
        assert report["gram_max_error"] < 1e-10
        assert report["periodicity_max_error"] < 1e-10
        for j, block in report["projector"].items():
            assert block["rank"] == block["expected_rank"]
            assert isinstance(block["rank"], int)
            assert abs(block["trace"] - block["rank"]) < 1e-12
            assert block["fix_max_error"] < 1e-10
            assert block["homomorphism"] is True
            assert block["closed_form_matches"] is True
        assert report["multiplicity_routes_agree"] is True
        assert report["count_by_degree"] == report["multiplicity_by_degree"]


def test_verify_basis_holds_to_1e_12_at_the_cli_degree_cap():
    # the monomial kernel left 1.36e-11 of periodicity error at jmax 20, and
    # a Delta from an eigensolve 7.4e-15 (C2) and 8.0e-15 (C3) at jmax 40
    for manifold, group in (("C2", build_cyclic8()), ("C3", build_quaternion())):
        fns = [f for j in range(J_MAX_LIMIT + 1) for f in bases.basis_for(manifold, j)]
        report = bases.verify_basis(fns, group, tol=1e-12)
        assert report["gram_max_error"] < 1e-12
        assert report["periodicity_max_error"] < 6e-15
        assert report["passed"] is True
        assert report["gram_entries"] < len(fns) ** 2


@pytest.mark.parametrize("manifold", ["C2", "C3"])
def test_chunked_periodicity_is_the_dense_route(manifold, monkeypatch):
    group = bases._by_manifold(manifold, build_cyclic8, build_quaternion)()
    fns = [f for j in range(7) for f in bases.basis_for(manifold, j)]
    n_points = 37
    # a few base points and their images per kernel pass in verify_basis,
    # then every point in one pass of the dense route
    monkeypatch.setattr(wigner, "_ENTRY_BUDGET", 2**10)
    report = bases.verify_basis(fns, group, seed=3, n_points=n_points)
    monkeypatch.setattr(wigner, "_ENTRY_BUDGET", 2**40)
    points = gc.random_sphere_points(n_points, seed=3)
    moved = np.stack([points] + [gc.apply(el.element, points) for el in group.elements])
    values = basis_values(fns, su2.matrix_from_point(moved))
    assert report["periodicity_max_error"] == np.max(np.abs(values[1:] - values[0]))
    assert report["passed"] is True


def test_periodicity_stacks_no_identity_image(monkeypatch):
    # the identity's image is the base point bit for bit: verify_basis
    # parses n_points x |H| points once, not n_points x (|H| + 1), and every
    # degree evaluates that one stack in whole groups of |H| points
    parsed, evaluated = [], []
    real_points, real_slot_values = bases._points, bases._slot_values

    def points_spy(u, *args):
        parsed.append(np.shape(u))
        return real_points(u, *args)

    def slot_values_spy(two_j, pairs, owner, weights, points, group=1):
        evaluated.append((points.shape, group))
        return real_slot_values(two_j, pairs, owner, weights, points, group)

    monkeypatch.setattr(bases, "_points", points_spy)
    monkeypatch.setattr(bases, "_slot_values", slot_values_spy)
    for manifold, group in (("C2", build_cyclic8()), ("C3", build_quaternion())):
        fns = [f for j in range(5) for f in bases.basis_for(manifold, j)]
        assert bases.verify_basis(fns, group, n_points=13)["passed"] is True
    assert parsed == [(13, 8, 2, 2)] * 2
    # C3 has no function of degree 1, so it evaluates one degree fewer
    assert evaluated == [((13, 8), 8)] * 9


@pytest.mark.parametrize("manifold, group", [("C2", build_cyclic8), ("C3", build_quaternion)])
def test_verify_takes_d_once_per_degree_with_terms(manifold, group, monkeypatch):
    # one walk over the degrees: each degree with terms takes d^j in one
    # call over the distinct beta of the one parsed stack, and a degree
    # left out of the list (here 2) takes none, though it is still audited
    fns = [f for j in (0, 1, 3, 4) for f in bases.basis_for(manifold, j)]
    calls = []
    real_small_d = wigner._small_d

    def spy(two_j, pairs, beta):
        calls.append(two_j)
        return real_small_d(two_j, pairs, beta)

    monkeypatch.setattr(wigner, "_small_d", spy)
    for _ in range(2):
        report = bases.verify_basis(fns, group(), n_points=7)
        assert report["degrees"] == [0, 1, 2, 3, 4] and set(report["projector"]) == {0, 1, 2, 3, 4}
    with_terms = sorted({f.j for f in fns})
    assert calls == [2 * j for j in with_terms] * 2


@pytest.mark.parametrize("budget", [1, 2**9, 2**14, 2**40])
@pytest.mark.parametrize("manifold", ["C2", "C3"])
def test_distinct_beta_route_without_repeats_is_the_dense_route(manifold, budget, monkeypatch):
    # base points alone share no beta, so every point gathers its own row of
    # one d^j call over all of them; the references take every point in one
    # chunk, and no bit may depend on the chunking (a function alone has a
    # kernel of other shape than the list, so its last bits are its own)
    fns = [f for j in range(9) for f in bases.basis_for(manifold, j)]
    u = su2.matrix_from_point(gc.random_sphere_points(23, seed=11))
    points = wigner._points(u)
    assert len(points.beta) == len(points.where) == 23
    monkeypatch.setattr(wigner, "_ENTRY_BUDGET", 2**40)
    terms = bases._terms(fns).terms
    dense = np.full((len(fns), 23), np.nan, dtype=complex)
    for j in np.flatnonzero(np.bincount(terms.j)):
        degree = terms.degree(j)
        ((at, values),) = wigner._slot_values(2 * int(j), *degree.slot_columns(), points)
        dense[degree.owner[wigner._runs(degree.owner)[0]], at] = values
    one_by_one = np.stack([f.evaluate(u) for f in fns], axis=-1)
    monkeypatch.setattr(wigner, "_ENTRY_BUDGET", budget)
    assert np.array_equal(basis_values(fns, u), dense.T)
    assert np.array_equal(np.stack([f.evaluate(u) for f in fns], axis=-1), one_by_one)


def test_functions_of_one_to_three_terms_sum_like_their_entries(monkeypatch):
    # ranks 1, 2 and 3 in one degree pad the shorter functions with weight-0
    # slots, and a repeated (m1, m2) adds twice; the list mixes two degrees
    def fn(j, norm, *terms):
        return bases.BasisFunction("C2", j, terms[0][0], terms[0][1], "test", terms, norm)

    fns = [
        fn(5, 0.3, (5, -2, 1j), (0, 0, 0.5 - 0.25j), (-4, 3, -1.0)),
        fn(3, 1.1, (1, -2, 1.0)),
        fn(3, 0.7, (0, 0, 0.3), (2, -3, 1 + 2j), (-3, 1, -0.7)),
        fn(5, 0.9, (2, 2, 1.0)),
        fn(3, 0.5, (3, 0, 0.5 + 0.5j), (-1, 2, -1j)),
        fn(3, 1.3, (2, 2, 0.25), (1, 1, 1j), (2, 2, -0.75 + 0.1j)),
    ]
    u = su2.matrix_from_point(gc.random_sphere_points(29, seed=8))
    a, b, c, d = u[..., 0, 0], u[..., 0, 1], u[..., 1, 0], u[..., 1, 1]
    expected = np.stack(
        [f.norm_factor * sum(coef * wigner_entry(f.j, m1, m2, a, b, c, d) for m1, m2, coef in f.terms) for f in fns],
        axis=-1,
    )
    values = []
    for budget in (1, 2**9, 2**14, 2**40):
        monkeypatch.setattr(wigner, "_ENTRY_BUDGET", budget)
        values.append(basis_values(fns, u))
    assert np.max(np.abs(values[0] - expected)) <= 1e-13
    assert all(np.array_equal(v, values[0]) for v in values[1:])


def test_terms_shuffled_across_degrees_are_laid_out_by_the_kernel():
    # 1-, 2- and 3-term records in one degree, one holding a term twice,
    # shuffled across three degrees: each degree's flat term columns go to
    # the kernel, which pads its own grid, and each value is the sum of
    # weight times entry over the record's terms
    def fn(j, norm, *terms):
        return bases.BasisFunction("C2", j, terms[0][0], terms[0][1], "test", terms, norm)

    fns = [
        fn(2, 0.4, (2, 0, 1.0)),
        fn(2, 0.6, (0, -2, 1j), (-2, 2, -0.5)),
        fn(4, 1.2, (4, 4, 0.5 - 0.5j), (1, -3, 1.0), (-4, 0, 0.25j)),
        fn(4, 0.8, (3, 3, 1.0), (3, 3, -0.5 + 0.25j)),
        fn(4, 0.3, (0, 0, 1.0)),
        fn(7, 0.9, (7, -7, 1.0), (-6, 5, 1j), (2, 2, -1.0)),
        fn(7, 1.1, (-1, 1, 0.5)),
        fn(7, 0.5, (6, 0, 1.0), (-6, 0, -1.0)),
    ]
    shuffled = [fns[i] for i in (5, 0, 3, 6, 2, 1, 7, 4)]
    u = su2.matrix_from_point(gc.random_sphere_points(31, seed=4))
    entries = (u[..., 0, 0], u[..., 0, 1], u[..., 1, 0], u[..., 1, 1])
    points = wigner._points(u)
    terms = bases._terms(shuffled).terms
    seen = []
    for j in np.flatnonzero(np.bincount(terms.j)):
        degree = terms.degree(j)
        values = wigner._grid_values(2 * int(j), *degree.slot_columns(), points)
        owners = degree.owner[wigner._runs(degree.owner)[0]]
        assert values.shape == (len(owners), 31)
        for f, got in zip((shuffled[k] for k in owners), values):
            expected = sum(f.norm_factor * coef * wigner_entry(f.j, m1, m2, *entries) for m1, m2, coef in f.terms)
            assert np.max(np.abs(got - expected)) <= 1e-14
        seen.extend(owners.tolist())
    assert sorted(seen) == list(range(len(fns)))
    assert bases.verify_basis(shuffled, build_cyclic8()) == bases.verify_basis(fns, build_cyclic8())


@pytest.mark.parametrize("manifold", ["C2", "C3"])
def test_the_flat_index_is_where_the_coefficient_vector_is_nonzero(manifold):
    # the index the table derives from its (m1, m2) labels, against the
    # coefficient vector of each record, whose matrix holds each term's
    # coefficient at row j - m1 and column j - m2
    mesh = bases._by_manifold(manifold, bases._mesh_c2, bases._mesh_c3)(range(13))
    records = [f for j in range(13) for f in bases.basis_for(manifold, j)]
    bounds = np.append(wigner._runs(mesh.terms.owner)[0], len(mesh.terms.owner))
    assert len(records) == len(bounds) - 1
    for f, lo, hi in zip(records, bounds, bounds[1:]):
        vec = coefficient_vector(f)
        assert np.array_equal(np.sort(mesh.terms.flat[lo:hi]), np.flatnonzero(vec))
        matrix = vec.reshape(2 * f.j + 1, 2 * f.j + 1)
        assert all(matrix[f.j - m1, f.j - m2] == f.norm_factor * coef for m1, m2, coef in f.terms)


@pytest.mark.parametrize(
    "call, args",
    [
        (bases.basis_c2, ("4",)),
        (bases.multiplicity_c8, ("3",)),
        (bases.multiplicity_q, ("2",)),
        (wigner.su2_character, ("1", 0)),
    ],
    ids=["basis_c2", "multiplicity_c8", "multiplicity_q", "su2_character"],
)
def test_a_string_degree_is_refused(call, args):
    # doubled as a string, "4" was "44", and so degree 22
    with pytest.raises(ValueError, match="half-integer"):
        call(*args)


@pytest.mark.parametrize("label", [math.inf, -math.inf, math.nan, None, 1j, np.float64("inf"), [1]], ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        lambda j: wigner_d(j, np.eye(2)),
        lambda j: bases.multiplicity_for("C2", j),
        bases.basis_c3,
        bases.projector_q,
        lambda j: wigner.su2_character(j, 0.3),
    ],
    ids=["wigner_d", "multiplicity_for", "basis_c3", "projector_q", "su2_character"],
)
def test_a_label_that_is_no_finite_real_number_is_refused(call, label):
    # infinity overflowed int(), nan failed numpy's cast to an integer, and
    # None, 1j and a list failed with TypeError
    with pytest.raises(ValueError, match="half-integer"):
        call(label)
    # clebsch_gordan promises 0 for any label out of range
    assert wigner.clebsch_gordan(1, 0, label, 0, 1, 0) == 0.0


def test_a_label_a_hair_off_a_half_integer_is_refused_everywhere():
    # one exact rule for degree and m labels: twice the label must be an
    # integer exactly, as the table's labels and the exact lifts demand
    u = su2.matrix_from_point(gc.random_sphere_points(1, seed=2)[0])
    entries = (u[0, 0], u[0, 1], u[1, 0], u[1, 1])
    record = bases.basis_c2(2)[0]
    calls = {
        "basis_c2": lambda j: bases.basis_c2(j),
        "basis_c3": lambda j: bases.basis_c3(j),
        "multiplicity_c8": lambda j: bases.multiplicity_c8(j),
        "multiplicity_q": lambda j: bases.multiplicity_q(j),
        "wigner_d": lambda j: wigner_d(j, u),
        "wigner_entry": lambda j: wigner_entry(j, j, -j, *entries),
        "wigner_entry m1": lambda m: wigner_entry(2, m - 1, 0, *entries),
        "su2_character": lambda j: wigner.su2_character(j, 0.3),
        "evaluate": lambda j: replace(record, j=j).evaluate(u),
        "gram_matrix": lambda j: bases.gram_matrix([replace(record, j=j)]),
        "verify_basis": lambda j: bases.verify_basis([replace(record, j=j)], build_cyclic8(), n_points=3),
    }
    integer_only = {"basis_c2", "basis_c3", "wigner_entry m1", "evaluate", "gram_matrix", "verify_basis"}
    for name, call in calls.items():
        for off in (2 + 1e-10, 2 - 1e-12, 2.5 + 1e-10):
            with pytest.raises(ValueError):
                call(off)
        call(2.0)
        if name in integer_only:
            with pytest.raises(ValueError):
                call(2.5)
        else:
            call(2.5)
    assert bases.multiplicity_c8(2.0) == bases.multiplicity_c8(2) and bases.multiplicity_q(2.5) == 0
    assert wigner.clebsch_gordan(1, 0, 1, 0, 2 + 1e-10, 0) == 0.0
    assert wigner.clebsch_gordan(1, 0, 1, 0, 2.0, 0) == wigner.clebsch_gordan(1, 0, 1, 0, 2, 0) != 0.0
    assert wigner.clebsch_gordan(1.5, 0.5 + 1e-10, 1, 0, 2.5, 0.5) == 0.0
    assert wigner.clebsch_gordan(1.5, 0.5, 1, 0, 2.5, 0.5) != 0.0


def test_a_degree_or_m_that_is_no_number_is_refused_before_doubling():
    for value in ("1", b"1", True, np.True_):
        with pytest.raises(ValueError):
            wigner._two_j(value)
        with pytest.raises(ValueError):
            wigner._two_m(value, 2)
    # a label it cannot parse is still a coefficient of 0
    assert wigner.clebsch_gordan("1", 0, 1, 0, 0, 0) == 0.0
    assert wigner.clebsch_gordan(1, 0, 1, 0, 0, 0) != 0.0


def test_a_product_grid_takes_d_once_per_distinct_beta(monkeypatch):
    rule = euler_quadrature(6)
    fns = [f for j in range(4) for f in bases.basis_c3(j)]
    distinct = wigner._points(rule.angles).beta
    # the angles are read without the matrix, so each beta node comes back as itself
    assert np.array_equal(distinct, np.sort(rule.beta)) and len(distinct) == rule.shape[1]
    calls = []
    real_small_d = wigner._small_d

    def spy(two_j, pairs, beta):
        calls.append(beta.copy())
        return real_small_d(two_j, pairs, beta)

    monkeypatch.setattr(wigner, "_small_d", spy)
    values = basis_values(fns, rule.angles)
    assert values.shape == (rule.node_count, len(fns))
    # one call per degree that has functions (C3 has none at degree 1)
    assert len(calls) == 3 and all(np.array_equal(call, distinct) for call in calls)


@pytest.mark.parametrize("manifold", ["C2", "C3"])
def test_the_smallest_entry_budget_gives_the_same_periodicity_bits(manifold, monkeypatch):
    # and the same bits from every other pointwise evaluator, each one grid
    # of the kernel chunked by the same budget
    group = bases._by_manifold(manifold, build_cyclic8, build_quaternion)()
    fns = [f for j in range(13) for f in bases.basis_for(manifold, j)]
    u = su2.matrix_from_point(gc.random_sphere_points(31, seed=5))
    a, b, c, d = (u[:, row, col] for row in (0, 1) for col in (0, 1))

    def pointwise():
        return [
            basis_values(fns, u),
            wigner.wigner_entry(12, 3, -2, a, b, c, d),
            wigner.conjugation_harmonic(25, 10, 3, u),
            wigner.conjugation_harmonic(25, 24, -24, u),  # a single Clebsch-Gordan term
            wigner.wigner_d(12, u[0]),
        ]

    default, values = bases.verify_basis(fns, group), pointwise()
    # one base point and its images per kernel pass, whatever the degree, and
    # one point per pass elsewhere
    monkeypatch.setattr(wigner, "_ENTRY_BUDGET", 1)
    smallest = bases.verify_basis(fns, group)
    assert smallest["periodicity_max_error"] == default["periodicity_max_error"]
    assert 0.0 < default["periodicity_max_error"] < 1e-13
    assert [v.tobytes() for v in pointwise()] == [v.tobytes() for v in values]


@pytest.mark.parametrize("manifold", ["C2", "C3"])
def test_a_phase_flip_at_the_top_degree_fails_verification(manifold):
    group = bases._by_manifold(manifold, build_cyclic8, build_quaternion)()
    fns = [f for j in range(9) for f in bases.basis_for(manifold, j)]
    k = next(i for i, f in enumerate(fns) if f.j == 8 and len(f.terms) == 2)
    (first, (m1, m2, coef)) = fns[k].terms
    fns[k] = replace(fns[k], terms=(first, (m1, m2, -coef)))
    report = bases.verify_basis(fns, group, n_points=17)
    assert report["passed"] is False
    assert report["periodicity_max_error"] > 1e-3
    assert report["projector"][8]["closed_form_matches"] is False
    assert report["projector"][8]["fix_max_error"] > 1e-3


def test_pairs_against_the_product_table_fail_the_homomorphism_check():
    # swap the lifts of g1 and g1^2: the same eight operators, so the
    # average, rank and periodicity are unchanged, but g1 followed by g1
    # no longer acts as g1^2 does
    group = build_cyclic8()
    els = list(group.elements)
    g1, g2 = by_label(group, "g1"), by_label(group, "g1^2")
    els[els.index(g1)], els[els.index(g2)] = replace(g1, pair=g2.pair), replace(g2, pair=g1.pair)
    swapped = DeckGroup(name=group.name, isomorphism=group.isomorphism, elements=tuple(els))
    fns = [f for j in range(4) for f in bases.basis_c2(j)]
    report = bases.verify_basis(fns, swapped, n_points=30)
    assert report["passed"] is False
    blocks = report["projector"]
    assert blocks[0]["homomorphism"] is True
    assert not any(blocks[j]["homomorphism"] for j in (1, 2, 3))
    assert all(b["rank"] == b["expected_rank"] and b["fix_max_error"] < 1e-12 for b in blocks.values())
    assert report["periodicity_max_error"] < 1e-10
    assert report["multiplicity_routes_agree"] is True


def test_disagreeing_multiplicity_route_fails_the_report(monkeypatch):
    fns = [f for j in range(4) for f in bases.basis_c3(j)]
    assert bases.verify_basis(fns, build_quaternion(), n_points=30)["passed"] is True
    off_at_two = lambda j: bases.multiplicity_q_character_sum(j) + (j == 2)
    monkeypatch.setitem(bases._MULTIPLICITY_ROUTES, "C3", (bases.multiplicity_q, off_at_two))
    report = bases.verify_basis(fns, build_quaternion(), n_points=30)
    assert report["multiplicity_routes_agree"] is False
    assert report["passed"] is False


def test_verify_basis_fails_against_wrong_group():
    fns = [f for j in range(3) for f in bases.basis_c2(j)]
    report = bases.verify_basis(fns, build_quaternion(), seed=42, n_points=30)
    assert report["passed"] is False
    assert report["periodicity_max_error"] > 1e-3
    # the projector block audits the group it is given, not the manifold's own
    assert any(
        block["fix_max_error"] > 1e-3 or block["rank"] != block["expected_rank"]
        for block in report["projector"].values()
    )


def test_verify_basis_audits_a_degree_left_out_of_the_list():
    fns = [f for j in range(7) if j != 4 for f in bases.basis_c2(j)]
    report = bases.verify_basis(fns, build_cyclic8(), n_points=20)
    assert report["degrees"] == list(range(7))
    assert report["count_by_degree"][4] == 0
    assert report["multiplicity_by_degree"][4] == MULT_C8[4]
    assert report["projector"][4]["rank"] == MULT_C8[4]
    assert report["projector"][4]["closed_form_matches"] is False
    assert report["passed"] is False


def test_verify_basis_checks_the_rank_of_an_empty_degree(monkeypatch):
    fns = [f for j in range(4) for f in bases.basis_c3(j)]
    assert not bases.basis_c3(1)
    report = bases.verify_basis(fns, build_quaternion(), n_points=20)
    assert report["degrees"] == [0, 1, 2, 3]
    assert report["count_by_degree"][1] == report["multiplicity_by_degree"][1] == 0
    assert report["projector"][1] == {
        "rank": 0, "expected_rank": 0, "trace": 0.0, "fix_max_error": 0.0,
        "homomorphism": True, "closed_form_matches": True,
    }
    assert report["passed"] is True
    empty = bases._terms(fns).terms.degree(1)
    assert bases._fix_error(*bases._deck_action(build_quaternion(), 1), empty) == 0.0
    # a route that counts one harmonic at the empty degree fails the report
    one_at_one = lambda j: bases.multiplicity_q_character_sum(j) + (j == 1)
    monkeypatch.setitem(bases._MULTIPLICITY_ROUTES, "C3", (bases.multiplicity_q, one_at_one))
    report = bases.verify_basis(fns, build_quaternion(), n_points=20)
    assert report["multiplicity_routes_agree"] is False
    assert report["passed"] is False


def test_verify_basis_of_one_degree_audits_that_degree_alone():
    report = bases.verify_basis(bases.basis_c3(3), build_quaternion(), n_points=20)
    assert report["degrees"] == [3]
    assert list(report["projector"]) == [3]
    assert report["passed"] is True


def test_verify_basis_empty_list():
    report = bases.verify_basis([], build_cyclic8())
    assert report["passed"] is True and report["count"] == 0


def test_verify_basis_of_an_empty_table_keeps_its_manifold():
    # C3 has no harmonic at degree 1, so its table there is empty
    table = bases._mesh_c3(range(1, 2))
    assert not len(table.j)
    report = bases.verify_basis(table, build_quaternion())
    assert report["manifold"] == "C3"
    assert report["passed"] is True and report["count"] == 0
    assert bases.verify_basis([], build_quaternion())["manifold"] is None


def test_verify_basis_rejects_mixed_manifolds():
    fns = bases.basis_c2(0) + bases.basis_c3(2)
    with pytest.raises(ValueError):
        bases.verify_basis(fns, build_cyclic8())
    # no sample point would make the periodicity check pass vacuously
    with pytest.raises(ValueError):
        bases.verify_basis(bases.basis_c2(2), build_cyclic8(), n_points=0)


@pytest.mark.parametrize("bad", [{"n_points": 2.5}, {"n_points": True}, {"seed": 1.5}], ids=repr)
def test_verify_basis_refuses_a_bad_count_or_seed_before_the_gram(bad, monkeypatch):
    # the points are drawn first, so a bad value fails before any Gram entry
    def summed(*args):
        raise AssertionError("the Gram ran before the sample points")

    monkeypatch.setattr(bases, "_gram_entries", summed)
    with pytest.raises(ValueError, match="must be an integer"):
        bases.verify_basis(bases.basis_c2(2), build_cyclic8(), **bad)


def test_periodicity_under_every_deck_element():
    # direct pointwise check, independent of verify_basis bookkeeping: each
    # sampled function on the stack of points and on its image under each element
    pts = gc.random_sphere_points(25, seed=17)
    u = su2.matrix_from_point(pts)
    for manifold, group in (("C2", build_cyclic8()), ("C3", build_quaternion())):
        fns = [f for j in range(4) for f in bases.basis_for(manifold, j)]
        sampled = fns[:: max(1, len(fns) // 7)]
        at_points = [f.evaluate(u) for f in sampled]
        for el in group.elements:
            v = su2.matrix_from_point(gc.apply(el.element, pts))
            for f, values in zip(sampled, at_points):
                assert values.shape == (25,)
                assert np.max(np.abs(values - f.evaluate(v))) < 1e-10


@pytest.mark.parametrize("check", ["gram", "periodicity", "fix"])
def test_a_nan_at_one_degree_fails_verification(monkeypatch, check):
    fns = [f for j in range(5) for f in bases.basis_c2(j)]
    if check == "gram":
        real_small_d = bases._small_d_by_degree

        def poisoned_small_d(*args):
            for degree, rows in real_small_d(*args):
                yield degree, rows * np.nan if degree == 3 else rows

        monkeypatch.setattr(bases, "_small_d_by_degree", poisoned_small_d)
    elif check == "periodicity":
        real_values = bases._slot_values

        def poisoned_values(two_j, *grid_and_points):
            for at, values in real_values(two_j, *grid_and_points):
                yield at, values * np.nan if two_j == 6 else values

        monkeypatch.setattr(bases, "_slot_values", poisoned_values)
    else:
        real_fix = bases._fix_error

        def poisoned_fix(gather, phase, *terms):
            return math.nan if gather.shape[1] == 7**2 else real_fix(gather, phase, *terms)

        monkeypatch.setattr(bases, "_fix_error", poisoned_fix)
    report = bases.verify_basis(fns, build_cyclic8())
    measured = {"gram": "gram_max_error", "periodicity": "periodicity_max_error", "fix": None}[check]
    assert math.isnan(report[measured] if measured else report["projector"][3]["fix_max_error"])
    if check == "gram":  # the poison reaches the Gram's fold alone
        assert math.isfinite(report["periodicity_max_error"])
    assert report["passed"] is False

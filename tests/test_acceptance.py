"""Acceptance gate: one test per shipped claim, stated tolerances pinned.

Each test prints a single CRITERION line; run with -s to see them inline.
"""

import time

import numpy as np

from s3harm import bases
from s3harm import deck
from s3harm import groupcore as gc
from s3harm import induced
from s3harm import su2
from s3harm.wigner import (
    conjugation_harmonic,
    euler_quadrature,
    quadrature_inner,
    wigner_d,
    wigner_entry_function,
)

from helpers import by_label


MULT_C8 = [1, 1, 7, 11, 23, 27, 45, 53, 77]
MULT_Q = [1, 0, 10, 7, 27, 22, 52, 45, 85]


def random_su2(rng):
    x = rng.normal(size=4)
    return su2.matrix_from_point(x / np.linalg.norm(x))


def test_criterion_01_cyclic_multiplicities():
    start = time.monotonic()
    got = [bases.multiplicity_c8(j) for j in range(9)]
    elapsed = time.monotonic() - start
    assert got == MULT_C8
    assert elapsed < 1.0
    print(f"CRITERION 1: PASS - cyclic-8 multiplicities j=0..8 exact in {elapsed:.3f}s")


def test_criterion_02_quaternion_multiplicities():
    start = time.monotonic()
    got = [bases.multiplicity_q(j) for j in range(9)]
    elapsed = time.monotonic() - start
    assert got == MULT_Q
    assert elapsed < 1.0
    print(f"CRITERION 2: PASS - quaternion multiplicities j=0..8 exact in {elapsed:.3f}s")


def test_criterion_03_multiplicity_recursion():
    for j in range(0, 13):
        step = bases.multiplicity_c8(j + 4) - bases.multiplicity_c8(j)
        assert step == 8 * j + 20 + 2 * (-1) ** j
    print("CRITERION 3: PASS - degree recursion exact for j <= 12")


def test_criterion_04_group_structure():
    start = time.monotonic()
    big = gc.closure(list(gc.WEYL_GENERATORS.values()), bound=500)
    assert len(big) == 384

    c2 = deck.build_cyclic8()
    assert c2.isomorphism == "cyclic-8" and c2.order == 8
    g1 = by_label(c2, "g1").element
    p = gc.IDENTITY
    for t in range(1, 9):
        p = gc.multiply(g1, p)
        assert (p == gc.IDENTITY) == (t == 8)
    g1_4 = by_label(c2, "g1^4").element
    assert g1_4 == gc.INVERSION

    c3 = deck.build_quaternion()
    assert c3.isomorphism == "quaternion"
    q1 = by_label(c3, "q1").element
    q2 = by_label(c3, "q2").element
    q3 = by_label(c3, "q3").element
    j4 = by_label(c3, "J4").element
    assert j4 == gc.INVERSION
    for q in (q1, q2, q3):
        assert gc.multiply(q, q) == j4
    # q1 then q2 then q3, composed as isometries
    assert gc.multiply(q3, gc.multiply(q2, q1)) == j4

    centers = {tuple(v) for v in np.vstack([np.eye(4), -np.eye(4)]).tolist()}
    for group in (c2, c3):
        for d in group.elements:
            expected = d.label == "e"
            assert gc.has_fixed_point_on_sphere(d.element) == expected
        orbit = {
            tuple(np.round(gc.apply(d.element, (1.0, 0.0, 0.0, 0.0)), 12).tolist())
            for d in group.elements
        }
        assert orbit == centers

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"CRITERION 4: PASS - closure 384, deck structures, fixed-point-free, orbits in {elapsed:.3f}s")


CYCLIC_TABLE = [
    ("g1",   "(+-++)", "(0132)",   "(x1,-x3,x0,x2)",    "[[a^3, 0], [0, -a]]",    "[[0, -a^3], [-a, 0]]"),
    ("g1^2", "(--++)", "(03)(12)", "(-x3,-x2,x1,x0)",   "[[-a^2, 0], [0, a^2]]",  "[[-1, 0], [0, -1]]"),
    ("g1^3", "(---+)", "(0231)",   "(-x2,-x0,-x3,x1)",  "[[a, 0], [0, -a^3]]",    "[[0, a^3], [a, 0]]"),
    ("g1^4", "(----)", "e",        "(-x0,-x1,-x2,-x3)", "[[-1, 0], [0, -1]]",     "[[1, 0], [0, 1]]"),
    ("g1^5", "(-+--)", "(0132)",   "(-x1,x3,-x0,-x2)",  "[[-a^3, 0], [0, a]]",    "[[0, -a^3], [-a, 0]]"),
    ("g1^6", "(++--)", "(03)(12)", "(x3,x2,-x1,-x0)",   "[[a^2, 0], [0, -a^2]]",  "[[-1, 0], [0, -1]]"),
    ("g1^7", "(+++-)", "(0231)",   "(x2,x0,x3,-x1)",    "[[-a, 0], [0, a^3]]",    "[[0, a^3], [a, 0]]"),
    ("e",    "(++++)", "e",        "(x0,x1,x2,x3)",     "[[1, 0], [0, 1]]",       "[[1, 0], [0, 1]]"),
]

QUATERNION_GENERATORS = [
    ("q1", "(+-+-)", "(01)(23)", "(x1,-x0,x3,-x2)", "[[0, -a^2], [-a^2, 0]]", "[[1, 0], [0, 1]]"),
    ("q2", "(+--+)", "(02)(13)", "(x2,-x3,-x0,x1)", "[[0, -1], [1, 0]]",      "[[1, 0], [0, 1]]"),
    ("q3", "(++--)", "(03)(12)", "(x3,x2,-x1,-x0)", "[[-a^2, 0], [0, a^2]]",  "[[1, 0], [0, 1]]"),
]


def test_criterion_05_table_fidelity():
    c2 = deck.build_cyclic8()
    for d, row in zip(c2.elements, CYCLIC_TABLE):
        label, eps, cycles, action, left, right = row
        assert d.label == label
        assert "(" + "".join("+" if s > 0 else "-" for s in d.element.signs) + ")" == eps
        assert gc.perm_to_cycles(d.element.perm) == cycles
        assert d.element.action_string() == action
        got = (str(d.pair.left), str(d.pair.right))
        flipped = (str(-d.pair.left), str(-d.pair.right))
        assert got == (left, right) or flipped == (left, right), label
    c3 = deck.build_quaternion()
    for label, eps, cycles, action, left, right in QUATERNION_GENERATORS:
        d = by_label(c3, label)
        assert "(" + "".join("+" if s > 0 else "-" for s in d.element.signs) + ")" == eps
        assert gc.perm_to_cycles(d.element.perm) == cycles
        assert d.element.action_string() == action
        got = (str(d.pair.left), str(d.pair.right))
        flipped = (str(-d.pair.left), str(-d.pair.right))
        assert got == (left, right) or flipped == (left, right), label
    print("CRITERION 5: PASS - generated element tables match the frozen rows exactly")


def test_criterion_06_projector_oracle_equivalence():
    start = time.monotonic()
    worst_residual = 0.0
    worst_idem = 0.0
    for j in range(7):
        averaged, closed = bases.projector_c8(j)
        trace = np.trace(averaged).real
        worst_residual = max(worst_residual, abs(trace - bases.multiplicity_c8(j)))
        worst_idem = max(worst_idem, float(np.max(np.abs(averaged @ averaged - averaged))))
        assert np.max(np.abs(averaged - closed)) < 1e-12
        small, small_closed = bases.projector_q(j)
        trace_q = np.trace(small).real * (2 * j + 1)
        worst_residual = max(worst_residual, abs(trace_q - bases.multiplicity_q(j)))
        worst_idem = max(worst_idem, float(np.max(np.abs(small @ small - small))))
        assert np.max(np.abs(small - small_closed)) < 1e-12
    elapsed = time.monotonic() - start
    assert worst_residual < 1e-9
    assert worst_idem < 1e-12
    assert elapsed < 30.0
    print(f"CRITERION 6: PASS - projector traces match multiplicities (residual {worst_residual:.1e}, idempotence {worst_idem:.1e}) in {elapsed:.1f}s")


def test_criterion_07_basis_orthonormality():
    start = time.monotonic()
    worst = 0.0
    for manifold, builder, mult in (("C2", bases.basis_c2, bases.multiplicity_c8),
                                    ("C3", bases.basis_c3, bases.multiplicity_q)):
        for j in range(6):
            fns = builder(j)
            assert len(fns) == mult(j)
            if not fns:
                continue
            gram = bases.gram_matrix(fns)
            worst = max(worst, float(np.max(np.abs(gram - np.eye(len(fns))))))
    elapsed = time.monotonic() - start
    assert worst < 1e-10
    assert elapsed < 60.0
    print(f"CRITERION 7: PASS - per-degree Gram identity to {worst:.1e}, counts match, in {elapsed:.1f}s")


def test_criterion_08_periodicity():
    start = time.monotonic()
    points = gc.random_sphere_points(100, seed=42)
    mats = np.stack([su2.matrix_from_point(x) for x in points])
    worst = 0.0
    for manifold, group in (("C2", deck.build_cyclic8()), ("C3", deck.build_quaternion())):
        fns = [f for j in range(6) for f in bases.basis_for(manifold, j)]
        base_vals = np.column_stack([f.evaluate(mats) for f in fns])
        for d in group.elements:
            moved = np.stack([su2.matrix_from_point(gc.apply(d.element, x)) for x in points])
            moved_vals = np.column_stack([f.evaluate(moved) for f in fns])
            worst = max(worst, float(np.max(np.abs(moved_vals - base_vals))))
    elapsed = time.monotonic() - start
    assert worst < 1e-10
    print(f"CRITERION 8: PASS - deck periodicity at 100 seeded points to {worst:.1e} in {elapsed:.1f}s")


def test_criterion_09_induced_census():
    start = time.monotonic()
    rows = induced.irrep_census()
    assert sum(r["dim"] ** 2 for r in rows) == 384

    by_key = {(r["orbit"], r["f"]): r for r in rows}
    frozen = {
        ("{++++}", "[4]"): (1, 1), ("{++++}", "[1111]"): (0, 1),
        ("{++++}", "[31]"): (0, 0), ("{++++}", "[211]"): (1, 0),
        ("{++++}", "[22]"): (1, 2),
        ("{+++-}", "[3]x[1]"): (0, 0), ("{+++-}", "[111]x[1]"): (0, 0),
        ("{+++-}", "[21]x[1]"): (0, 0),
        ("{---+}", "[3]x[1]"): (0, 0), ("{---+}", "[111]x[1]"): (0, 0),
        ("{---+}", "[21]x[1]"): (0, 0),
        ("{++--}", "[2]x[2]"): (1, 0), ("{++--}", "[2]x[11]"): (2, 3),
        ("{++--}", "[11]x[2]"): (2, 3), ("{++--}", "[11]x[11]"): (1, 0),
    }
    for key, (mc8, mq) in frozen.items():
        assert (by_key[key]["m_c8"], by_key[key]["m_q"]) == (mc8, mq), key
    # Q column of the all-minus orbit equals the all-plus column: every
    # quaternion deck element has sign product +1
    minus_q = [by_key[("{----}", f)]["m_q"] for f in ("[4]", "[1111]", "[31]", "[211]", "[22]")]
    assert minus_q == [1, 1, 0, 0, 2]

    # flagged row: the all-minus cyclic column must come from the formula;
    # reusing the all-plus row instead would be wrong because odd powers of
    # the cyclic generator have sign product -1.  The comparison is reported;
    # only the aggregate identity below is required.
    computed = [by_key[("{----}", f)]["m_c8"] for f in ("[4]", "[1111]", "[31]", "[211]", "[22]")]
    reused_plus_row = [by_key[("{++++}", f)]["m_c8"] for f in ("[4]", "[1111]", "[31]", "[211]", "[22]")]
    flag = "matches" if computed == reused_plus_row else "differs from"
    print(f"CRITERION 9 note: all-minus cyclic row computed {computed} {flag} the reused all-plus row {reused_plus_row}")

    assert sum(r["dim"] * r["m_c8"] for r in rows) == 48
    assert sum(r["dim"] * r["m_q"] for r in rows) == 48
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"CRITERION 9: PASS - census sums and frozen blocks reproduced in {elapsed:.3f}s")


def test_criterion_10_wigner_kernel():
    rng = np.random.default_rng(42)
    # unitarity and homomorphism
    for j in (0.5, 1, 2, 3, 4, 5, 6):
        for _ in range(3):
            u, v = random_su2(rng), random_su2(rng)
            du, dv = wigner_d(j, u), wigner_d(j, v)
            assert np.max(np.abs(wigner_d(j, u @ v) - du @ dv)) < 1e-10
            assert np.max(np.abs(du.conj().T @ du - np.eye(du.shape[0]))) < 1e-10

    # quadrature orthogonality over every entry pair with j, j' <= 4
    rule = euler_quadrature(8)
    fns, norms = [], []
    for j in range(5):
        for m1 in range(j, -j - 1, -1):
            for m2 in range(j, -j - 1, -1):
                fns.append(wigner_entry_function(j, m1, m2))
                norms.append(1.0 / (2 * j + 1))
    values = np.column_stack([f(rule.angles) for f in fns])
    gram = values.conj().T @ (values * rule.weights[:, None])
    worst = float(np.max(np.abs(gram - np.diag(norms))))
    assert worst < 1e-12

    # generator matrices in closed form, exact sign and phase
    import cmath
    q = deck.build_quaternion()
    for jx2 in range(1, 7):
        j = jx2 / 2
        ms = [(jx2 - 2 * k) / 2 for k in range(jx2 + 1)]
        dim = len(ms)
        pats = {k: np.zeros((dim, dim), complex) for k in ("q1", "q2", "q3")}
        for r, m1 in enumerate(ms):
            for c, m2 in enumerate(ms):
                if m1 == -m2:
                    pats["q1"][r, c] = (-1.0) ** (j - m1) * cmath.exp(-1j * np.pi * m1)
                    pats["q2"][r, c] = (-1.0) ** (j + m1)
                if m1 == m2:
                    pats["q3"][r, c] = cmath.exp(-1j * np.pi * m1)
        for label, pat in pats.items():
            got = wigner_d(j, by_label(q, label).pair.left)
            assert np.max(np.abs(got - pat)) < 1e-12, (label, j)

    # transformation law of the conjugation-adapted harmonics
    law_worst = 0.0
    for _ in range(20):
        g, u = random_su2(rng), random_su2(rng)
        for beta_label, l in ((3, 1), (5, 2)):
            moved = np.array([
                conjugation_harmonic(beta_label, l, m, g.conj().T @ u @ g)
                for m in range(l, -l - 1, -1)
            ])
            stayed = np.array([
                conjugation_harmonic(beta_label, l, m, u)
                for m in range(l, -l - 1, -1)
            ])
            law_worst = max(law_worst, float(np.max(np.abs(moved - stayed @ wigner_d(l, g)))))
    assert law_worst < 1e-10
    print(f"CRITERION 10: PASS - kernel homomorphism/unitarity, quadrature ({worst:.1e}), generator phases, transformation law ({law_worst:.1e})")

"""Rotation matrix elements, characters, couplings, quadrature.

The coupling coefficients get an independent oracle: a ladder-operator
construction that never touches the factorial sum used in the library.
The Wigner kernel, which works from Delta = d^j(pi/2) in closed form,
gets two: the monomial factorial sum in floating point, and the same sum
in exact rational arithmetic at Pythagorean points; Delta itself is checked
against its exact rational squares.  The Gram's d^j, from the
recurrence in degree, is checked against the kernel at every pair, against
exact orthonormality under the quadrature rule, and at its seed against
exact rational squares.
"""

import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from s3harm import bases, su2, wigner
from s3harm import groupcore as gc
from s3harm.deck import build_cyclic8, build_quaternion
from s3harm.wigner import (
    EulerAngles,
    _gauss_legendre,
    clebsch_gordan,
    character_jj,
    conjugation_harmonic,
    euler_quadrature,
    quadrature_inner,
    su2_character,
    wigner_d,
    wigner_entry,
    wigner_entry_function,
)

from helpers import by_label, euler_matrix


def random_su2(rng):
    x = rng.normal(size=4)
    return su2.matrix_from_point(x / np.linalg.norm(x))


def mrange(j):
    two_j = int(round(2 * j))
    return [(two_j - 2 * k) / 2 for k in range(two_j + 1)]


def all_pairs(two_j):
    """Every (2 m1, 2 m2) of degree j, row-major in the descending layout."""
    ms = range(two_j, -two_j - 1, -2)
    return [(tm1, tm2) for tm1 in ms for tm2 in ms]


def monomial_wigner(two_j, a, b, c, d):
    """Full D^j at the entries (a, b, c, d), batch shape first, from the
    monomial factorial sum over the exact coefficients of
    wigner._entry_terms: the floating-point oracle of the kernel."""
    pairs = all_pairs(two_j)
    out = np.zeros(np.shape(a) + (len(pairs),), dtype=complex)
    for col, (tm1, tm2) in enumerate(pairs):
        for coef, ka, kb, kc, kd in wigner._entry_terms(two_j, tm1, tm2):
            out[..., col] += coef * a**ka * b**kb * c**kc * d**kd
    return out.reshape(np.shape(a) + (two_j + 1, two_j + 1))


def kernel_small_d(two_j, pairs, beta):
    """d^j(beta) from the pointwise kernel at the (2 m1, 2 m2) in pairs, points by pairs."""
    return wigner._small_d(two_j, pairs, beta)


def small_d(two_j, beta):
    """Full d^j(beta) from the kernel, shape beta.shape + (2j+1, 2j+1)."""
    return kernel_small_d(two_j, all_pairs(two_j), beta).reshape(np.shape(beta) + (two_j + 1,) * 2)


def wigner_from_harmonics(beta_label, m1, m2, u):
    """Inverse expansion, the oracle of conjugation_harmonic: D^j_{m1,m2}(u)
    rebuilt from the adapted harmonics."""
    two_j = wigner._beta_two_j(beta_label)
    j = two_j / 2
    tm1 = wigner._two_m(m1, two_j, "m1")
    tm2 = wigner._two_m(m2, two_j, "m2")
    tm = tm2 - tm1
    total = 0
    for tl in range(0, 2 * two_j + 1, 2):
        if abs(tm) > tl:
            continue
        cg = clebsch_gordan(j, -tm1 / 2, j, tm2 / 2, tl / 2, tm / 2)
        if cg == 0.0:
            continue
        total = total + cg * conjugation_harmonic(beta_label, tl / 2, tm / 2, u)
    phase = (-1.0) ** ((two_j - tm1) // 2)
    return phase * total


# ---------------------------------------------------------------- rotations


def test_dimension_and_identity():
    for j in (0, 0.5, 1, 1.5, 2, 3.5):
        d = wigner_d(j, np.eye(2))
        assert d.shape == (int(2 * j) + 1,) * 2
        assert np.allclose(d, np.eye(int(2 * j) + 1), atol=1e-14)


def test_half_integer_sign_of_minus_one():
    for j in (0.5, 1, 1.5, 2):
        d = wigner_d(j, -np.eye(2))
        assert np.allclose(d, (-1.0) ** (2 * j) * np.eye(int(2 * j) + 1), atol=1e-14)


def test_homomorphism_and_unitarity():
    rng = np.random.default_rng(4242)
    for j in (0.5, 1, 1.5, 2, 3, 4):
        for _ in range(6):
            u, v = random_su2(rng), random_su2(rng)
            du, dv = wigner_d(j, u), wigner_d(j, v)
            assert np.allclose(wigner_d(j, u @ v), du @ dv, atol=1e-10)
            assert np.allclose(du.conj().T @ du, np.eye(du.shape[0]), atol=1e-10)


def test_rejects_non_unitary_input():
    with pytest.raises(ValueError):
        wigner_d(1, np.array([[1.0, 0.3], [0.0, 1.0]]))


def test_entry_broadcasting_matches_scalar_loop():
    rng = np.random.default_rng(77)
    us = np.stack([random_su2(rng) for _ in range(6)])
    a, b = us[:, 0, 0], us[:, 0, 1]
    c, d = us[:, 1, 0], us[:, 1, 1]
    vec = wigner_entry(2, 1, -1, a, b, c, d)
    for k in range(6):
        assert abs(vec[k] - wigner_d(2, us[k])[1, 3]) < 1e-13
    # one stack of 1681 x 40 entries, past the entry budget, in chunks of the kernel
    us = np.stack([random_su2(rng) for _ in range(40)])
    assert 41 * 41 * 40 > wigner._ENTRY_BUDGET
    points = wigner._points(us)
    batched = wigner._grid_values(40, all_pairs(40), np.arange(41 * 41), None, points)
    assert batched.shape == (41 * 41, 40)
    for k in range(40):
        assert np.max(np.abs(batched[:, k].reshape(41, 41) - wigner_d(20, us[k]))) < 1e-14


def test_euler_angle_chart():
    ang = EulerAngles(0.9, 0.7, -0.4)
    u = euler_matrix(ang)
    assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-14)
    assert abs(np.linalg.det(u) - 1.0) < 1e-14


def test_euler_angles_are_parsed_without_the_matrix():
    # beta and the phases e^{i(alpha +- gamma)/2} come straight from the
    # angles, beta in [0, pi] unchanged; outside it they fold as the matrix does
    rng = np.random.default_rng(77)
    beta = np.concatenate([rng.uniform(0, np.pi, 40), rng.uniform(-3 * np.pi, 5 * np.pi, 40),
                           [0.0, np.pi, 2 * np.pi, -np.pi, 3 * np.pi, -2 * np.pi]])
    angles = EulerAngles(rng.uniform(-7, 7, (len(beta), 1)), beta[:, None], rng.uniform(-7, 7, (len(beta), 2)))
    direct, matrix = wigner._points(angles), wigner._points(euler_matrix(angles))
    direct_beta, matrix_beta = direct.beta[direct.where], matrix.beta[matrix.where]
    assert direct.shape == matrix.shape == (len(beta), 2)
    assert np.max(np.abs(direct.unit - matrix.unit)) < 1e-14
    assert np.max(np.abs(direct_beta - matrix_beta)) < 1e-14
    inside = np.repeat((beta >= 0) & (beta <= np.pi), 2)
    assert np.array_equal(direct_beta[inside], np.repeat(beta, 2)[inside])
    outside = EulerAngles(0.3, 4.0, -1.2)
    assert np.max(np.abs(wigner_d(3, outside) - wigner_d(3, euler_matrix(outside)))) < 1e-14
    with pytest.raises(ValueError):
        wigner_d(1, EulerAngles(0.0, np.nan, 0.0))


def test_euler_factorization_of_matrix_entries():
    # D^j(alpha, beta, gamma) = e^{+i m1 alpha} d^j(beta) e^{+i m2 gamma},
    # with d^1(beta) the transpose of the usual table
    al, b, ga = 0.9, 0.7, -0.4
    c, s = np.cos(b), np.sin(b)
    d1 = np.array([
        [(1 + c) / 2, s / np.sqrt(2), (1 - c) / 2],
        [-s / np.sqrt(2), c, s / np.sqrt(2)],
        [(1 - c) / 2, -s / np.sqrt(2), (1 + c) / 2],
    ])
    assert np.allclose(wigner_d(1, euler_matrix(EulerAngles(0, b, 0))), d1, atol=1e-13)
    got = wigner_d(1, euler_matrix(EulerAngles(al, b, ga)))
    ms = [1, 0, -1]
    want = np.array([
        [np.exp(1j * m1 * al) * d1[r, cc] * np.exp(1j * m2 * ga)
         for cc, m2 in enumerate(ms)]
        for r, m1 in enumerate(ms)
    ])
    assert np.allclose(got, want, atol=1e-13)


def test_monomial_kernel_factorises_at_euler_angles():
    # the separable Gram sum and the pointwise kernel rely on
    # D(a, b, g) = e^{i m1 a} d(b) e^{i m2 g}; checked here on the monomial
    # oracle, which does not assume it
    rng = np.random.default_rng(2015)
    for two_j in range(13):
        ms = np.array(mrange(two_j / 2))
        for al, b, ga in rng.uniform([0, 0, 0], [2 * np.pi, np.pi, 2 * np.pi], size=(4, 3)):
            small = monomial_wigner(two_j, *EulerAngles(0.0, b, 0.0).matrix_entries())
            want = np.exp(1j * ms * al)[:, None] * small * np.exp(1j * ms * ga)[None, :]
            got = monomial_wigner(two_j, *EulerAngles(al, b, ga).matrix_entries())
            assert np.max(np.abs(got - want)) < 1e-13


# ------------------------------------------------- stable d^j(beta) kernel


# Pythagorean triples: cos(beta/2) = p/r and sin(beta/2) = q/r are rational
PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29))


def exact_wigner(two_j, a, b, denom):
    """D^j at u = [[a, b], [-conj(b), conj(a)]] from the monomial formula in
    exact arithmetic, for a and b Gaussian integers (re, im) over the common
    integer denom: each part of an entry is sqrt(N) times a rational sum, so
    one square root and one rounding are its only errors."""

    def mul(z, w):
        return (z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0])

    def powers(z):
        out = [(1, 0)]
        for _ in range(two_j):
            out.append(mul(out[-1], z))
        return out

    pa, pb, pc, pd = (powers(z) for z in (a, b, (-b[0], b[1]), (a[0], -a[1])))
    out = np.zeros((two_j + 1, two_j + 1), dtype=complex)
    for r in range(two_j + 1):
        for c in range(two_j + 1):
            jm1, jm2 = two_j - r, two_j - c
            m1m2 = jm1 + jm2 - two_j
            re = im = Fraction(0)
            for k in range(max(0, m1m2), min(jm1, jm2) + 1):
                den = (math.factorial(k) * math.factorial(jm2 - k)
                       * math.factorial(jm1 - k) * math.factorial(k - m1m2))
                # every monomial has degree 2j: denom^(2j) is divided out below
                term = mul(mul(pa[k], pb[jm1 - k]), mul(pc[jm2 - k], pd[k - m1m2]))
                re += Fraction(term[0], den)
                im += Fraction(term[1], den)
            norm = Fraction(math.factorial(jm1) * math.factorial(r) * math.factorial(jm2) * math.factorial(c),
                            denom ** (2 * two_j))
            out[r, c] = complex(*(math.copysign(math.sqrt(float(x * x * norm)), x) for x in (re, im)))
    return out


def test_stable_small_d_matches_exact_rational_values():
    for p, q, r in PYTHAGOREAN:
        for cos_half, sin_half in ((p, q), (q, p)):
            beta = 2.0 * math.atan2(sin_half, cos_half)
            for two_j in (*range(13), 24):
                want = exact_wigner(two_j, (cos_half, 0), (sin_half, 0), r)
                assert np.max(np.abs(small_d(two_j, beta) - want)) < 1e-14, (two_j, beta)


def test_stable_small_d_at_degree_20_is_within_1_5e_15_of_exact_rational_values():
    # a Delta from an eigensolve was off by 3.2e-15 at both of these beta
    for p, q, r in (PYTHAGOREAN[0], PYTHAGOREAN[3]):
        beta = 2.0 * math.atan2(q, p)
        assert np.max(np.abs(small_d(40, beta) - exact_wigner(40, (p, 0), (q, 0), r))) < 1.5e-15, (p, q, r)


def test_pointwise_kernel_matches_exact_rational_values():
    # a = (p/r) zeta and b = (q/r) eta with Pythagorean phases zeta, eta:
    # every entry of u is a Gaussian rational, so D^j(u) is known exactly
    for i, (p, q, r) in enumerate(PYTHAGOREAN):
        (zp, zq, zr), (ep, eq, er) = PYTHAGOREAN[(i + 1) % 4], PYTHAGOREAN[(i + 2) % 4]
        a, b, denom = (p * zp * er, p * zq * er), (-q * eq * zr, q * ep * zr), r * zr * er
        fa, fb = complex(*(Fraction(v, denom) for v in a)), complex(*(Fraction(v, denom) for v in b))
        u = np.array([[fa, fb], [-fb.conjugate(), fa.conjugate()]])
        for two_j in (*range(13), 24):
            assert np.max(np.abs(wigner_d(two_j / 2, u) - exact_wigner(two_j, a, b, denom))) < 1e-14, (i, two_j)


def test_stable_small_d_matches_monomial_kernel():
    # the monomial oracle itself drifts by up to 1.4e-13 at 2j = 24 (against
    # the exact values above), hence 2e-13 rather than the kernel's accuracy
    betas = np.concatenate([[0.0, np.pi], np.random.default_rng(43).uniform(0, np.pi, 14)])
    for two_j in range(25):
        small = kernel_small_d(two_j, all_pairs(two_j), betas)
        assert small.shape == (betas.size, (two_j + 1) ** 2)
        want = monomial_wigner(two_j, *EulerAngles(0.0, betas, 0.0).matrix_entries())
        assert np.max(np.abs(small.reshape(want.shape) - want)) < 2e-13, two_j


def test_pointwise_kernel_matches_monomial_oracle():
    # seeded points, then the degenerate ones: a = 0, b = 0, +-I and every
    # exact deck lift, where a unit phase of the kernel is taken as 1
    x = np.random.default_rng(2024).normal(size=(6, 4))
    points = [su2.matrix_from_point(v / np.linalg.norm(v)) for v in x]
    t = np.exp(0.7j)
    points += [np.array([[0, t], [-t.conjugate(), 0]]), np.diag([t, t.conjugate()]), np.eye(2), -np.eye(2)]
    for group in (build_cyclic8(), build_quaternion()):
        points += [lift.to_complex() for el in group.elements for lift in (el.pair.left, el.pair.right)]
    points = np.stack(points)
    for two_j in range(25):
        want = monomial_wigner(two_j, *(points[:, r, c] for r in (0, 1) for c in (0, 1)))
        got = np.stack([wigner_d(two_j / 2, u) for u in points])
        # the oracle's own drift again sets the bound (1e-13 at 2j = 24)
        assert np.max(np.abs(got - want)) < 2e-13, two_j


def test_stable_small_d_stays_unitary_at_high_degree():
    # the monomial kernel is off by about 1e-5 at j = 40
    betas = np.random.default_rng(44).uniform(0, np.pi, 8)
    small = small_d(80, betas)
    assert small.dtype == float
    assert np.max(np.abs(small @ small.swapaxes(-1, -2) - np.eye(81))) < 1e-13


def test_small_d_over_many_beta_in_blocks_gives_the_bits_of_one_matmul():
    # 10,000 distinct beta are taken in three blocks, each written into one
    # result; every entry keeps the bits of one matmul per parity over all of
    # them, whose folded rows are built here from the columns lam >= 0 of
    # Delta = O: the product O_{r1} O_{r2} times 2 (1 at lam = 0) and the
    # real part of i^{r1-r2} for even r1 - r2, against cos, or its -Im for
    # odd, against sin
    two_j, beta = 40, np.random.default_rng(45).uniform(0, np.pi, 10_000)
    pairs = np.array([(6, -4), (40, 40), (0, 2), (-38, 12), (2, 2)])
    lam, vec = wigner._delta(two_j)
    lam, vec = lam[two_j // 2:], vec[:, two_j // 2:]
    r1, r2 = (two_j - pairs[:, 0]) // 2, (two_j - pairs[:, 1]) // 2
    power = 1j ** ((r1 - r2) % 4)
    odd = (r1 - r2) % 2 == 1
    rows = np.where(odd, -power.imag, power.real)[:, None] * np.where(lam > 0, 2.0, 1.0) * (vec[r1] * vec[r2])
    assert rows.shape == (5, two_j // 2 + 1) and odd.tolist() == [True, False, True, True, False]
    angle = beta[:, None] * lam
    whole = np.empty((beta.size, len(pairs)))
    whole[:, ~odd] = np.cos(angle) @ rows[~odd].T
    whole[:, odd] = np.sin(angle) @ rows[odd].T
    assert -(-beta.size // wigner._BETA_BLOCK) == 3
    assert wigner._small_d(two_j, pairs, beta).tobytes() == whole.tobytes()


def test_small_d_folds_lam_with_minus_lam_in_bounded_memory():
    # C3's degree-80 grid has 13,202 pairs: folded, their rows take 8.6 MB
    # (81 coefficients a pair) and one call at 200 beta peaks near 39 MiB;
    # the unfolded rows, half of them zeros, took 34 MB and the call 54 MiB
    terms, owner, _ = bases._mesh_c3(range(81)).terms.degree(80).slot_columns()
    _, run, rank = wigner._runs(owner)
    pairs = np.zeros((2, run[-1] + 1, 2), dtype=int) + terms[0]  # padded as `_slot_values` pads
    pairs[rank, run] = terms
    beta = np.random.default_rng(46).uniform(0, np.pi, 200)
    tracemalloc.start()
    try:
        values = wigner._small_d(160, pairs, beta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (200, 13_202) and np.all(np.isfinite(values))
    assert peak <= 45 * 2**20


def test_kernel_delta_at_minus_lam_is_its_column_at_lam_up_to_row_signs():
    # the fold's premise: O[x, 2j - k] = (-1)^x O[x, k] in value (a zero may
    # differ in sign), so a product O_{r1} O_{r2} at -lam is (-1)^{r1-r2} that
    # at lam
    for two_j in range(162):
        _, vec = wigner._delta(two_j)
        signs = 1 - 2 * (np.arange(two_j + 1) % 2)
        assert np.array_equal(vec[:, ::-1], signs[:, None] * vec), two_j


def test_kernel_delta_is_its_exact_closed_form_to_the_last_bits():
    # Delta^2 at row x and column k is C(2j, x) K^2 / (C(2j, k) 4^j), with
    # K[x, k] the coefficient of t^k in (1 + t)^x (1 - t)^{2j-x}, summed here
    # term by term: every entry has the sign (-1)^{x+k} sign(K), its square
    # lies within 2^-53 (one ulp of [1/2, 1)) of the exact rational, and the
    # entry within two of its own ulps of the exact root
    for two_j in (*range(25), 80):
        lam, vec = wigner._delta(two_j)
        assert vec.dtype == float and lam.tolist() == [k - two_j / 2 for k in range(two_j + 1)]
        for x in range(two_j + 1):
            for k in range(two_j + 1):
                terms = range(max(0, k - x), min(k, two_j - x) + 1)
                coef = sum((-1) ** s * math.comb(two_j - x, s) * math.comb(x, k - s) for s in terms)
                value = float(vec[x, k])
                assert (value > 0) - (value < 0) == (-1) ** (x + k) * ((coef > 0) - (coef < 0)), (two_j, x, k)
                if coef:
                    square = Fraction(math.comb(two_j, x) * coef**2, math.comb(two_j, k) * 2**two_j)
                    size, ulp = abs(Fraction(value)), Fraction(np.spacing(abs(value)))
                    assert abs(size**2 - square) <= Fraction(1, 2**53), (two_j, x, k)
                    assert (size - 2 * ulp) ** 2 <= square <= (size + 2 * ulp) ** 2, (two_j, x, k)
    for two_j in (160, 161):
        _, vec = wigner._delta(two_j)
        assert np.max(np.abs(vec @ vec.T - np.eye(two_j + 1))) <= 1e-15


def test_kernel_delta_is_the_recurrence_at_t_0():
    # the Gram's route at beta = pi/2 gives the same Delta, in the same
    # layout and signs; an eigensolve's Delta was off by up to 9.1e-15
    top = 80
    m1, m2 = ring_pairs(top)
    delta = recurrence_table(m1, m2, np.array([0.0]), top)[..., 0]
    for j in range(top + 1):
        grid = np.zeros((2 * j + 1, 2 * j + 1))
        inside = (np.abs(m1) <= j) & (np.abs(m2) <= j)
        grid[j - m1[inside], j - m2[inside]] = delta[j, inside]
        assert np.max(np.abs(wigner._delta(2 * j)[1] - grid)) <= 1e-15, j


def test_kernel_delta_refuses_a_degree_it_cannot_represent():
    # 2^-floor(j) is a normal float up to j = 1022.5; beyond, a ValueError
    # names the limit before any work, never an OverflowError
    with pytest.raises(ValueError, match="limit of 1022.5"):
        wigner._delta(2046)
    with pytest.raises(ValueError, match="limit of 1022.5"):
        wigner_entry(1023, 0, 0, 1.0, 0.0, 0.0, 1.0)


def test_no_eigensolve_is_reached(monkeypatch):
    # Delta comes from exact integers: with LAPACK's symmetric eigensolvers
    # refusing and Delta's cache empty, a deck lift's D^20 and the C2 basis
    # up to degree 6 still evaluate and verify
    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolve was reached")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    wigner._delta.cache_clear()
    lift = build_quaternion().elements[5].pair.left.to_complex()
    value = wigner_d(20, lift)
    assert np.max(np.abs(value @ value.conj().T - np.eye(41))) < 1e-13
    fns = [f for j in range(7) for f in bases.basis_for("C2", j)]
    assert bases.verify_basis(fns, build_cyclic8(), tol=1e-12)["passed"] is True


def ring_pairs(top):
    """Every integer (m1, m2) with |m1|, |m2| <= top, in ascending order of
    j0 = max(|m1|, |m2|), as the recurrence takes them."""
    m1, m2 = (v.reshape(-1) for v in np.meshgrid(np.arange(-top, top + 1), np.arange(-top, top + 1)))
    order = np.argsort(np.maximum(np.abs(m1), np.abs(m2)), kind="stable")
    return m1[order], m2[order]


def recurrence_table(m1, m2, t, top, scale=1.0):
    """Every row the recurrence yields, d[j, k] for the k-th pair, 0 below its j0."""
    table = np.zeros((top + 1, len(m1), len(t)))
    for j, rows in wigner._small_d_by_degree(m1, m2, t, top, scale):
        table[j, : len(rows)] = rows
    return table


def test_recurrence_in_degree_matches_the_kernel_over_every_pair():
    # the Gram's d^j against the periodicity's, two independent routes
    rule = euler_quadrature(80)
    m1, m2 = ring_pairs(40)
    j0 = np.maximum(np.abs(m1), np.abs(m2))
    table = recurrence_table(m1, m2, rule.cos_beta, 40)
    for j in range(41):
        on = j0 <= j
        kernel = kernel_small_d(2 * j, np.stack([2 * m1[on], 2 * m2[on]], axis=-1), rule.beta)
        assert np.max(np.abs(table[j, on] - kernel.T)) <= 1e-13, j
        assert not np.any(table[j, ~on])


def test_recurrence_rows_are_orthonormal_under_the_162_node_rule():
    # (2j+1) sum_b (w_b / 2) d^j d^j' = delta_jj' for every pair and every
    # two degrees up to 80, one ring j0 = max(|m1|, |m2|) at a time
    rule = euler_quadrature(160)
    assert rule.shape[1] == 162
    root_w = np.sqrt(rule.beta_weights / 2.0)
    worst = 0.0
    for low in range(81):
        m1, m2 = ring_pairs(low)
        ring = np.maximum(np.abs(m1), np.abs(m2)) == low
        table = recurrence_table(m1[ring], m2[ring], rule.cos_beta, 80, root_w)[low:]
        rows = table.transpose(1, 0, 2) * np.sqrt(2.0 * np.arange(low, 81) + 1.0)[:, None]
        worst = max(worst, np.max(np.abs(rows @ rows.transpose(0, 2, 1) - np.eye(81 - low))))
    assert worst <= 2e-14


def test_recurrence_seeds_in_t_hold_at_degree_80():
    # the seed d^80 at j0 = 80 against its exact square in rationals of the
    # node t, C(160, a) ((1 + t)/2)^a ((1 - t)/2)^b; a seed from a rounded
    # cos(beta/2) raised to the power 120 is off by 1.2e-12 at (60, 60)
    rule = euler_quadrature(160)
    m1, m2 = ring_pairs(80)
    ring = (np.maximum(np.abs(m1), np.abs(m2)) == 80) & (m1 % 10 == 0) & (m2 % 10 == 0)
    ((degree, seed),) = wigner._small_d_by_degree(m1[ring], m2[ring], rule.cos_beta, 80)
    assert degree == 80 and len(seed) == np.count_nonzero(ring)
    worst = 0.0
    for k, (a, b) in enumerate(zip(np.abs(m1 + m2)[ring].tolist(), np.abs(m1 - m2)[ring].tolist())):
        for n in range(0, 162, 9):
            t = Fraction(float(rule.cos_beta[n]))
            square = math.comb(160, a) * ((1 + t) / 2) ** a * ((1 - t) / 2) ** b
            if square > Fraction(1, 10**250):  # far above the doubles' underflow
                worst = max(worst, abs(float(Fraction(float(seed[k, n])) ** 2 / square) - 1.0) / 2.0)
    assert worst <= 1.5e-14


def test_recurrence_refuses_seeds_whose_binomial_overflows():
    # C(2 j0, j0) is a finite float up to j0 = 514 and overflows at 515
    t = np.array([0.0])
    ((degree, seed),) = wigner._small_d_by_degree([0], [514], t, 514)
    assert degree == 514 and np.isfinite(seed).all()
    with pytest.raises(ValueError, match="overflows a float"):
        next(wigner._small_d_by_degree([515], [0], t, 515))


def test_recurrence_refuses_pairs_out_of_order():
    with pytest.raises(ValueError, match="ascending"):
        next(wigner._small_d_by_degree(np.array([2, 0]), np.array([0, 0]), np.array([0.5]), 3))


def test_phase_tables_hold_at_exponents_above_100():
    # numpy's complex power leaves its integer fast path above exponent
    # 100; there it was off by 3.9e-14 at the powers of i, 2.4e-14 at those
    # of fl(exp(i pi/4)) and 1.8e-14 at those of fl((3 + 4i)/5)
    top, r = 200, math.sqrt(0.5)
    eighth = [complex(*z) for z in ((1, 0), (r, r), (0, 1), (-r, r), (-1, 0), (-r, -r), (0, -1), (r, -r))]
    units = np.array(eighth + [complex(0.6, 0.8)])
    powers = wigner._unit_powers(np.stack([units, units.conj()]), top)
    assert powers.shape == (2, 2 * top + 1, len(units))
    exponents = range(top + 1)
    for n in range(8):
        exact = np.array([eighth[n * k % 8] for k in exponents])
        if n % 2 == 0:  # powers of i stay exact
            assert np.array_equal(powers[0, top:, n], exact)
        else:
            assert np.max(np.abs(powers[0, top:, n] - exact)) < 1e-15
    # fl((3 + 4i)/5), the double itself, raised in exact rational arithmetic
    re, im, a, b, exact = Fraction(0.6), Fraction(0.8), Fraction(1), Fraction(0), []
    for _ in exponents:
        exact.append(complex(a, b))
        a, b = a * re - b * im, a * im + b * re
    assert np.max(np.abs(powers[0, top:, 8] - exact)) < 4e-15
    # the negative exponents are the conjugates, mirrored
    assert np.array_equal(powers[:, :top + 1], powers[:, top:][:, ::-1].conj())
    assert np.array_equal(powers[1], powers[0].conj())


@pytest.mark.parametrize("j", [30, 40])
def test_wigner_d_unitary_and_multiplicative_at_high_degree(j):
    # the monomial sum gave 4.6e-8 (j = 30) and 4.4e-5 (j = 40) here
    rng = np.random.default_rng(3040)
    for _ in range(3):
        u, v = random_su2(rng), random_su2(rng)
        du, dv = wigner_d(j, u), wigner_d(j, v)
        assert np.max(np.abs(du @ du.conj().T - np.eye(2 * j + 1))) < 1e-12
        assert np.max(np.abs(wigner_d(j, u @ v) - du @ dv)) < 1e-12


def test_every_evaluator_refuses_a_point_off_su2():
    # unitary with determinant i, scalar multiples of the identity, NaN
    for call in (
        lambda: wigner_d(1, np.diag([1, 1j])),
        lambda: wigner_entry(1, 1, 0, 2, 0, 0, 3),
        lambda: wigner_entry(1, 0, 0, 1, 0, 0, 1j),
        lambda: wigner_d(1, np.full((2, 2), np.nan)),
        lambda: conjugation_harmonic(3, 1, 0, 2 * np.eye(2)),
        lambda: bases.basis_c2(2)[0].evaluate(2 * np.eye(2)),
        lambda: bases.basis_c2(2)[0].evaluate(np.stack([np.eye(2), np.diag([1j, 1j])])),
    ):
        with pytest.raises(ValueError):
            call()
    nearly = np.array([[1.0, 1e-4], [-1e-4, 1.0]])
    with pytest.raises(ValueError):
        wigner_d(1, nearly)
    assert wigner_d(1, nearly, unitary_tol=1e-6).shape == (3, 3)


def test_wigner_d_is_the_all_pairs_grid():
    # wigner_d evaluates every (m1, m2) as one rank of one-slot functions,
    # m1-major with both descending, and builds its d^j rows in each call
    u = random_su2(np.random.default_rng(8))
    first = wigner_d(20, u)
    assert wigner_d(20, u).tobytes() == first.tobytes()
    points = wigner._points(u)
    grid = wigner._grid_values(40, all_pairs(40), np.arange(41 * 41), None, points)
    assert grid.reshape(41, 41).tobytes() == first.tobytes()
    # calls at other degrees in between change no bit
    for j in range(12):
        wigner_d(j, u)
    assert wigner_d(20, u).tobytes() == first.tobytes()


def test_the_kernel_pads_a_shorter_function_and_refuses_padding_without_weights():
    # functions of 2 and 1 terms: the kernel lays out two ranks and pads the
    # second function with the first term's pair at weight 0
    u = random_su2(np.random.default_rng(3))
    points = wigner._points(u)
    entry = [wigner_entry(1, m1, m2, u[0, 0], u[0, 1], u[1, 0], u[1, 1]) for m1, m2 in ((1, 0), (0, -1), (-1, 1))]
    values = wigner._grid_values(2, [(2, 0), (0, -2), (-2, 2)], [4, 4, 9], [1.0, 1j, 0.5], points)
    assert values.shape == (2, 1)
    assert abs(values[0, 0] - (entry[0] + 1j * entry[1])) < 1e-15 and abs(values[1, 0] - 0.5 * entry[2]) < 1e-15
    with pytest.raises(ValueError, match="needs weights"):
        wigner._grid_values(2, [(2, 0), (0, -2), (-2, 2)], [4, 4, 9], None, points)


def test_a_harmonic_over_a_large_stack_is_evaluated_in_bounded_memory():
    # the stack goes through the kernel in chunks of the entry budget, so its
    # phase tables and products stay small; in one pass they take 130 MB
    u = su2.matrix_from_point(gc.random_sphere_points(20_000, seed=21))
    tracemalloc.start()
    try:
        values = conjugation_harmonic(41, 10, 3, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (20_000,) and np.all(np.isfinite(values))
    assert peak < 64 * 2**20


def test_one_entry_over_a_large_stack_is_evaluated_in_bounded_memory():
    # d^j is taken in blocks of distinct beta, and a chunk holds as many
    # points as keep its table of powers (2 (4j + 1) rows) within the entry
    # budget, so one slot at j = 40 stays small; with neither bound it
    # peaks at about 208 MB
    u = su2.matrix_from_point(gc.random_sphere_points(50_000, seed=22))
    tracemalloc.start()
    try:
        values = wigner_entry(40, 3, -2, u[:, 0, 0], u[:, 0, 1], u[:, 1, 0], u[:, 1, 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (50_000,) and np.all(np.isfinite(values))
    assert peak < 40 * 2**20


def test_runtime_paths_never_reach_the_monomial_sum():
    wigner._entry_terms.cache_clear()
    u = random_su2(np.random.default_rng(6))
    report = bases.verify_basis(bases.basis_c3(3), build_quaternion(), n_points=5)
    assert report["passed"] is True
    wigner_d(2, u)
    wigner_entry(1.5, 0.5, -0.5, u[0, 0], u[0, 1], u[1, 0], u[1, 1])
    wigner_entry_function(1, 1, 0)(EulerAngles(0.3, 0.2, 0.1))
    conjugation_harmonic(5, 2, 1, u)
    bases.basis_c2(3)[1].evaluate(u)
    info = wigner._entry_terms.cache_info()
    assert info.hits == info.misses == 0


# ------------------------------------------------- deck generators, frozen


def test_quaternion_generator_matrices_follow_closed_patterns():
    q = build_quaternion()
    for jx2 in range(1, 7):
        j = jx2 / 2
        ms = mrange(j)
        dim = len(ms)
        pat_q1 = np.zeros((dim, dim), complex)
        pat_q2 = np.zeros((dim, dim), complex)
        pat_q3 = np.zeros((dim, dim), complex)
        for r, m1 in enumerate(ms):
            for col, m2 in enumerate(ms):
                if m1 == -m2:
                    pat_q1[r, col] = (-1.0) ** (j - m1) * cmath.exp(-1j * np.pi * m1)
                    pat_q2[r, col] = (-1.0) ** (j + m1)
                if m1 == m2:
                    pat_q3[r, col] = cmath.exp(-1j * np.pi * m1)
        assert np.allclose(wigner_d(j, by_label(q, "q1").pair.left), pat_q1, atol=1e-12)
        assert np.allclose(wigner_d(j, by_label(q, "q2").pair.left), pat_q2, atol=1e-12)
        assert np.allclose(wigner_d(j, by_label(q, "q3").pair.left), pat_q3, atol=1e-12)
        # central element enters through the right factor only
        wr = wigner_d(j, by_label(q, "J4").pair.right)
        assert np.allclose(wr, (-1.0) ** (2 * j) * np.eye(dim), atol=1e-12)


def test_spot_values_spin_one_generators():
    q = build_quaternion()
    d_q1 = wigner_d(1, by_label(q, "q1").pair.left)
    d_q2 = wigner_d(1, by_label(q, "q2").pair.left)
    d_q3 = wigner_d(1, by_label(q, "q3").pair.left)
    assert np.allclose(d_q1, np.fliplr(np.diag([-1, -1, -1])), atol=1e-13)
    assert np.allclose(d_q2, np.fliplr(np.diag([1, -1, 1])), atol=1e-13)
    assert np.allclose(d_q3, np.diag([-1, 1, -1]), atol=1e-13)


# ----------------------------------------------------------------- character


def test_character_against_sine_ratio():
    rng = np.random.default_rng(13)
    for j in (0, 0.5, 1, 1.5, 2, 3, 4.5):
        for phi in rng.uniform(0.05, 2 * np.pi - 0.05, size=12):
            want = np.sin((2 * j + 1) * phi / 2) / np.sin(phi / 2)
            assert abs(su2_character(j, phi) - want) < 1e-11


def test_character_endpoints():
    for j in (0, 0.5, 1, 1.5, 2, 3):
        assert abs(su2_character(j, 0.0) - (2 * j + 1)) < 1e-12
        assert abs(su2_character(j, 2 * np.pi) - (-1.0) ** (2 * j) * (2 * j + 1)) < 1e-12


def test_character_trace_identity():
    rng = np.random.default_rng(14)
    for j in (0.5, 1, 2, 2.5):
        for _ in range(5):
            u = random_su2(rng)
            phi = 2 * np.arccos(np.clip(u.trace().real / 2, -1, 1))
            assert abs(np.trace(wigner_d(j, u)) - su2_character(j, phi)) < 1e-10


def test_two_sided_character_examples():
    c2 = build_cyclic8()
    q = build_quaternion()
    assert abs(character_jj(by_label(c2, "e").pair, 2) - 25.0) < 1e-12
    assert abs(character_jj(by_label(q, "J4").pair, 1) - 9.0) < 1e-12
    assert abs(character_jj(by_label(q, "q1").pair, 2) - 5.0) < 1e-12


def test_two_sided_character_ignores_simultaneous_sign():
    q = build_quaternion()
    for d in q.elements:
        flipped = su2.IsoPair(-d.pair.left, -d.pair.right)
        for j in (0.5, 1, 1.5, 2):
            assert abs(character_jj(d.pair, j) - character_jj(flipped, j)) < 1e-12


# ---------------------------------------------------------------- couplings


def ladder_cg_table(two_j1, two_j2):
    """All coupling coefficients for j1 x j2, built by lowering operators.

    Start from the stretched state, lower with J- = J1- + J2-, and get each
    new highest-weight vector as the orthogonal complement inside its weight
    space, signed so the top component is positive.
    """
    basis = [(m1, m2)
             for m1 in range(two_j1, -two_j1 - 1, -2)
             for m2 in range(two_j2, -two_j2 - 1, -2)]
    index = {bm: k for k, bm in enumerate(basis)}

    def lower(vec):
        out = np.zeros_like(vec)
        for (m1, m2), k in index.items():
            amp = vec[k]
            if amp == 0:
                continue
            if m1 > -two_j1:
                c = np.sqrt((two_j1 + m1) * (two_j1 - m1 + 2)) / 2
                out[index[(m1 - 2, m2)]] += c * amp
            if m2 > -two_j2:
                c = np.sqrt((two_j2 + m2) * (two_j2 - m2 + 2)) / 2
                out[index[(m1, m2 - 2)]] += c * amp
        return out

    coupled = {}
    for two_l in range(two_j1 + two_j2, abs(two_j1 - two_j2) - 2, -2):
        if two_l == two_j1 + two_j2:
            top = np.zeros(len(basis))
            top[index[(two_j1, two_j2)]] = 1.0
        else:
            others = [coupled[(l2, two_l)] for l2 in range(two_l + 2, two_j1 + two_j2 + 2, 2)]
            weight = [k for (m1, m2), k in index.items() if m1 + m2 == two_l]
            top = None
            for k in weight:
                cand = np.zeros(len(basis))
                cand[k] = 1.0
                for o in others:
                    cand -= np.dot(o, cand) * o
                if np.linalg.norm(cand) > 1e-8:
                    top = cand / np.linalg.norm(cand)
                    break
            best_m1 = max(m1 for (m1, m2) in index if m1 + m2 == two_l and abs(top[index[(m1, m2)]]) > 1e-12)
            if top[index[(best_m1, two_l - best_m1)]] < 0:
                top = -top
        coupled[(two_l, two_l)] = top
        vec = top
        for two_m in range(two_l, -two_l, -2):
            norm = np.sqrt((two_l + two_m) * (two_l - two_m + 2)) / 2
            vec = lower(vec) / norm
            coupled[(two_l, two_m - 2)] = vec
    return basis, coupled


@pytest.mark.parametrize("two_j1,two_j2", [
    (1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2), (4, 4), (5, 5),
])
def test_coupling_matches_ladder_oracle(two_j1, two_j2):
    basis, coupled = ladder_cg_table(two_j1, two_j2)
    for (two_l, two_m), vec in coupled.items():
        for (tm1, tm2), k in zip(basis, range(len(basis))):
            got = clebsch_gordan(two_j1 / 2, tm1 / 2, two_j2 / 2, tm2 / 2,
                                 two_l / 2, two_m / 2)
            want = vec[k] if tm1 + tm2 == two_m else 0.0
            assert abs(got - want) < 1e-12


def test_coupling_frozen_values():
    r2 = 1 / np.sqrt(2)
    assert abs(clebsch_gordan(0.5, 0.5, 0.5, -0.5, 1, 0) - r2) < 1e-15
    assert abs(clebsch_gordan(0.5, 0.5, 0.5, -0.5, 0, 0) - r2) < 1e-15
    assert abs(clebsch_gordan(0.5, -0.5, 0.5, 0.5, 0, 0) + r2) < 1e-15
    assert abs(clebsch_gordan(1, 1, 1, -1, 0, 0) - 1 / np.sqrt(3)) < 1e-15
    assert abs(clebsch_gordan(1, 0, 1, 0, 2, 0) - np.sqrt(2 / 3)) < 1e-15


def test_coupling_zero_outside_selection_rules():
    assert clebsch_gordan(1, 1, 1, 1, 1, 0) == 0.0        # m mismatch
    assert clebsch_gordan(1, 0, 1, 0, 4, 0) == 0.0        # l too large
    assert clebsch_gordan(0.5, 0.5, 0.5, 0.5, 0, 1) == 0.0
    assert clebsch_gordan(1, 0, 1, 0, 1, 0) == 0.0        # antisymmetric combination


def test_coupling_columns_are_orthonormal():
    for j in (0.5, 1, 1.5, 2, 3):
        two_j = int(round(2 * j))
        ms = [v / 2 for v in range(two_j, -two_j - 1, -2)]
        for two_l in range(0, 2 * two_j + 1, 2):
            l = two_l / 2
            for m in range(-int(l), int(l) + 1):
                col = np.array([clebsch_gordan(j, m1, j, m - m1, l, m) for m1 in ms])
                assert abs(np.dot(col, col) - 1.0) < 1e-12


# --------------------------------------------------------------- quadrature


def test_quadrature_integrates_constants():
    rule = euler_quadrature(0)
    one = lambda angles: np.ones_like(angles.alpha)
    assert abs(quadrature_inner(one, one, rule) - 1.0) < 1e-14


def test_quadrature_orthogonality_small_degrees():
    rule = euler_quadrature(4)
    fns, labels = [], []
    for j in (0, 1, 2):
        for m1 in range(j, -j - 1, -1):
            for m2 in range(j, -j - 1, -1):
                fns.append(wigner_entry_function(j, m1, m2))
                labels.append((j, m1, m2))
    for i, f in enumerate(fns):
        for k, g in enumerate(fns):
            got = quadrature_inner(f, g, rule)
            want = 1 / (2 * labels[i][0] + 1) if labels[i] == labels[k] else 0.0
            assert abs(got - want) < 1e-12, (labels[i], labels[k])


def test_quadrature_resolution_can_be_an_integer():
    f = wigner_entry_function(1, 0, 0)
    assert abs(quadrature_inner(f, f, 2) - 1 / 3) < 1e-13


@pytest.mark.parametrize(
    "sizes",
    [(4, 5.5), (2.5,), (4.0,), (True,), (4, None, 6.0), (4, None, None, np.True_), (4, 5, 6, 5.0)],
    ids=repr,
)
def test_quadrature_sizes_that_are_no_integer_are_refused(sizes):
    # 5.5 alpha nodes were placed at 2 pi k / 5.5 for k = 0..5, a grid that is
    # not uniform; 2.5 and 4.0 failed with TypeError inside the Gauss-Legendre
    # rule, and True built the degree-1 rule
    with pytest.raises(ValueError, match="must be an integer"):
        euler_quadrature(*sizes)


def test_quadrature_resolution_that_is_no_integer_is_refused():
    # 2.7 was truncated to the rule of band limit 2
    f = wigner_entry_function(1, 0, 0)
    for resolution in (2.7, 2.0, True):
        with pytest.raises(ValueError, match="must be an integer"):
            quadrature_inner(f, f, resolution)
    # a numpy integer is an integer
    rule = euler_quadrature(np.int64(4), np.int32(5))
    assert rule.shape == (5, 6, 5) and type(rule.max_degree) is int
    assert quadrature_inner(f, f, np.int64(2)) == quadrature_inner(f, f, 2)


def test_low_rule_aliases_high_degrees():
    # adequate rule: band limit 4 for a degree-2 pair; the degree-2 rule
    # aliases the alpha difference of 3 and produces a large spurious overlap
    f = wigner_entry_function(2, 2, 0)
    g = wigner_entry_function(1, -1, 0)
    assert abs(quadrature_inner(f, g, euler_quadrature(4))) < 1e-12
    assert abs(quadrature_inner(f, g, euler_quadrature(2))) > 0.1


def test_rule_node_counts_enforce_minimums():
    rule = euler_quadrature(4)
    assert rule.max_degree == 4
    assert rule.node_count >= 5 * 6 * 5
    with pytest.raises(ValueError):
        euler_quadrature(4, n_alpha=4)
    with pytest.raises(ValueError):
        euler_quadrature(4, n_beta=5)
    with pytest.raises(ValueError):
        euler_quadrature(4, n_gamma=3)


def test_rule_keeps_its_factors():
    rule = euler_quadrature(4, n_alpha=6, n_beta=7, n_gamma=5)
    assert rule.shape == (6, 7, 5) and rule.node_count == 210
    grid = [v.reshape(rule.shape) for v in (rule.angles.alpha, rule.angles.beta, rule.angles.gamma)]
    assert np.array_equal(grid[0][:, 0, 0], rule.alpha)
    assert np.array_equal(grid[1][0, :, 0], rule.beta)
    assert np.array_equal(grid[2][0, 0, :], rule.gamma)
    assert np.allclose(np.cos(rule.beta), np.polynomial.legendre.leggauss(7)[0], atol=1e-15)
    assert np.array_equal(rule.cos_beta, _gauss_legendre(7)[0])  # the nodes themselves
    assert np.array_equal(rule.beta, np.arccos(rule.cos_beta))  # read off them, never stored
    weights = rule.weights.reshape(rule.shape)
    assert np.array_equal(weights[2, :, 3], rule.beta_weights / (2.0 * 6 * 5))
    assert abs(rule.weights.sum() - 1.0) < 1e-14


def test_gauss_legendre_integrates_monomials_to_their_exact_values():
    # int_{-1}^{1} t^k dt = 2/(k+1) for even k and 0 for odd k; errors are
    # relative to int |t|^k = 2/(k+1).  Rounding the nodes to double alone
    # costs about k * 1.1e-16, hence k <= 80.
    worst = 0.0
    for n in range(2, 203):
        t, w = _gauss_legendre(n)
        for k in range(min(2 * n - 1, 80) + 1):
            exact = Fraction(2, k + 1) if k % 2 == 0 else Fraction(0)
            got = Fraction(float(np.sum(w * t**k)))
            worst = max(worst, float(abs(got - exact) * Fraction(k + 1, 2)))
    assert worst < 5e-14


def test_gauss_legendre_beats_leggauss_on_the_peaked_integrand():
    # sum_b w_b ((1 + t_b)/2)^{2j} = 2/(2j + 1), the mass of |d^j_{jj}|^2,
    # at the Gram's rule size n = 2j + 2.
    def worst_error(rule):
        errors = []
        for j in range(101):
            t, w = rule(2 * j + 2)
            exact = 2.0 / (2 * j + 1)
            errors.append(abs(np.sum(w * ((1.0 + t) / 2.0) ** (2 * j)) - exact) / exact)
        return max(errors)

    ours = worst_error(_gauss_legendre)
    assert ours < 5e-14
    assert worst_error(leggauss) > 20 * ours


def test_gauss_legendre_is_symmetric_positive_and_sums_to_two():
    for n in range(1, 203):
        t, w = _gauss_legendre(n)
        assert t.shape == w.shape == (n,)
        assert np.all(np.diff(t) > 0) and -1 < t[0] and t[-1] < 1
        assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(w > 0) and abs(np.sum(w) - 2.0) < 2e-15


def test_gauss_legendre_raises_when_newton_does_not_settle(monkeypatch):
    monkeypatch.setattr(wigner, "_NEWTON_STEPS", 1)
    with pytest.raises(RuntimeError):
        _gauss_legendre(40)


def test_oversampled_rule_still_exact():
    f = wigner_entry_function(2, 1, -1)
    rule = euler_quadrature(4, n_alpha=11, n_beta=9, n_gamma=12)
    assert abs(quadrature_inner(f, f, rule) - 1 / 5) < 1e-12


# ------------------------------------------------- conjugation-type harmonics


def test_lowest_harmonic_is_constant():
    rng = np.random.default_rng(31)
    for _ in range(5):
        u = random_su2(rng)
        assert abs(conjugation_harmonic(1, 0, 0, u) - 1.0) < 1e-13


def test_harmonic_transformation_law():
    # moving the argument by conjugation mixes components through the
    # integer-spin matrix of the conjugator
    rng = np.random.default_rng(32)
    for beta_label, l in ((3, 1), (3, 2), (5, 0), (5, 2), (5, 4)):
        for _ in range(4):
            g = random_su2(rng)
            u = random_su2(rng)
            moved = np.array([
                conjugation_harmonic(beta_label, l, m, g.conj().T @ u @ g)
                for m in range(l, -l - 1, -1)
            ])
            d_l = wigner_d(l, g)
            stayed = np.array([
                conjugation_harmonic(beta_label, l, m, u)
                for m in range(l, -l - 1, -1)
            ])
            assert np.allclose(moved, stayed @ d_l, atol=1e-10)


def test_harmonics_reassemble_matrix_entries():
    # odd labels only: the expansion is defined for integer spin
    rng = np.random.default_rng(33)
    for j in (1, 2, 3):
        u = random_su2(rng)
        d = wigner_d(j, u)
        ms = mrange(j)
        for r, m1 in enumerate(ms):
            for c, m2 in enumerate(ms):
                got = wigner_from_harmonics(2 * j + 1, m1, m2, u)
                assert abs(got - d[r, c]) < 1e-11


def test_harmonic_label_validation():
    u = np.eye(2)
    with pytest.raises(ValueError):
        conjugation_harmonic(2, 0, 0, u)      # even label
    with pytest.raises(ValueError):
        conjugation_harmonic(3, 3, 0, u)      # l beyond 2j
    with pytest.raises(ValueError):
        conjugation_harmonic(3, 1, 2, u)      # |m| beyond l


@pytest.mark.parametrize("label", [True, "3", 2, 3.5], ids=repr)
def test_both_harmonic_routes_refuse_a_beta_label_that_is_no_odd_integer(label):
    # True was read as the label 1 and "3" raised TypeError; the inverse
    # expansion took 2 and 3.5 for the degrees 0.5 and 1.25
    u = random_su2(np.random.default_rng(34))
    for route in (conjugation_harmonic, wigner_from_harmonics):
        with pytest.raises(ValueError, match="beta label"):
            route(label, 0, 0, u)


@pytest.mark.parametrize("label", [3.0, np.int64(3)], ids=repr)
def test_both_harmonic_routes_take_an_integral_beta_label_of_any_type(label):
    u = random_su2(np.random.default_rng(35))
    assert conjugation_harmonic(label, 1, 0, u) == conjugation_harmonic(3, 1, 0, u)
    assert wigner_from_harmonics(label, 1, 0, u) == wigner_from_harmonics(3, 1, 0, u)


def test_a_clebsch_gordan_column_is_summed_once_per_label(monkeypatch):
    # the column is summed from exact fractions, most of a single-point call
    wigner._cg_column.cache_clear()
    calls = []
    real_clebsch_gordan = wigner.clebsch_gordan

    def spy(*labels):
        calls.append(labels)
        return real_clebsch_gordan(*labels)

    monkeypatch.setattr(wigner, "clebsch_gordan", spy)
    u = random_su2(np.random.default_rng(36))
    first = conjugation_harmonic(41, 10, 3, u)
    summed = len(calls)
    assert summed > 0
    assert conjugation_harmonic(41, 10, 3, u) == first
    assert len(calls) == summed
    # another label is a column of its own
    conjugation_harmonic(41, 10, -3, u)
    assert len(calls) > summed


def test_harmonic_accepts_exact_matrices():
    q = build_quaternion()
    d = by_label(q, "q1")
    via_exact = conjugation_harmonic(3, 2, 1, d.pair.left)
    via_complex = conjugation_harmonic(3, 2, 1, d.pair.left.to_complex())
    assert abs(via_exact - via_complex) < 1e-14

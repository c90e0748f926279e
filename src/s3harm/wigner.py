"""Representation kernel for SU(2): D-matrices, characters, Clebsch-Gordan
coefficients, Euler-angle quadrature, and conjugation-adapted harmonics.

Conventions, pinned by regression against the deck-group representation
matrices:

* A degree-j block is indexed with m1 on rows and m2 on columns, both
  DESCENDING: entry [r, c] holds (m1, m2) = (j - r, j - c).
* The entry D^j_{m1 m2}(u) for u = [[ahat, b], [c, d]] is defined by the
  monomial sum over k of  N(j,m1,m2) * ahat^k b^{j+m1-k} c^{j+m2-k}
  d^{k-m1-m2} / [k! (j+m2-k)! (j+m1-k)! (k-m1-m2)!]  with the square-root
  factorial prefactor; at the diagonal lift diag(-i, i) this yields the
  diagonal phase exp(-i pi m1).
* Half-integer degrees are supported throughout, although the space-form
  bases only consume integer ones.

* At Euler angles every entry factorises as
  D^j_{m1 m2}(alpha, beta, gamma) = e^{i m1 alpha} d^j_{m1 m2}(beta) e^{i m2 gamma}.

Every pointwise evaluator takes one route.  _points parses a point
argument once, whatever its form: the SU(2) check, the unit phases and
beta over the flattened stack of points (EulerAngles give beta and the
phases directly, `_euler_points`), and the distinct beta values.
_slot_values is then the one place where D^j values are summed: it lays
out the flat term columns of functions of one degree as a padded (rank,
function) grid, evaluates it from that factorisation, written in u alone,
with one row per slot and one column per point, sums each function's
weighted slots over the rank blocks, and takes the points in chunks of
bounded size.  Its d^j
factor (`_small_d`, the one source of the kernel's d^j) is the Delta form
d^j_{m1 m2}(beta) = sum_lam i^{m2-m1} Delta_{lam m1} Delta_{lam m2} e^{i lam beta}
(Risbo 1996, J. Geodesy 70, 383; Trapani & Navaza 2006, Acta Cryst. A62,
262), lam folded with -lam into floor(j) + 1 real coefficients a pair, with
Delta = d^j(pi/2) in closed form from exact integers (`_delta`).  The
callers differ only in their terms: wigner_entry_function one (wigner_entry
stacks its entries into matrices and calls it), conjugation_harmonic and
`bases.BasisFunction.evaluate` those of one function, weighted by
Clebsch-Gordan (kept per label, `_cg_column`) or closed-form coefficients,
wigner_d (2j+1)^2 one-term functions at one point, and `bases.verify_basis`
each degree of its table.
D^j stays unitary to 1e-14 at j = 40, where the monomial sum, now only the
tests' oracle, is off by 1e-5.

The separable Gram sum takes d^j by a second route, independent of the
kernel: `_small_d_by_degree` runs the three-term recurrence in j at fixed
(m1, m2) from an exact seed at the Gauss-Legendre nodes t = cos(beta)
(`EulerQuadrature.cos_beta`), every degree of a pair in one pass.

EulerQuadrature keeps the one-dimensional factors of its product rule, so
sums over it can be taken in separable order.  Its Gauss-Legendre factor is
computed here, by Newton steps on the three-term Legendre recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .groupcore import _integer
from .su2 import IsoPair, _complex_matrices, rotation_angles

__all__ = [
    "EulerAngles",
    "EulerQuadrature",
    "character_jj",
    "clebsch_gordan",
    "conjugation_harmonic",
    "euler_quadrature",
    "quadrature_inner",
    "su2_character",
    "wigner_d",
    "wigner_entry",
    "wigner_entry_function",
]

# padded slots times points per chunk of `_slot_values`
_ENTRY_BUDGET = 2**14
# distinct beta per `_small_d` matmul; fixed, as a handful takes another BLAS path
_BETA_BLOCK = 2**12
_FOLD_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])  # Re of i^0, i^2 and -Im of i^1, i^3


def _two_j(j, what: str = "degree", signed: bool = False) -> int:
    """2j as an int; refuses with ValueError a j that is not exactly a
    non-negative half-integer (with signed, a half-integer of either sign),
    among them every j that is no finite real number."""
    kind = "a half-integer" if signed else "a non-negative half-integer"
    if isinstance(j, (str, bytes, bool, np.bool_)):  # 2 * "4" is "44"
        raise ValueError(f"{what} must be {kind}, got {j!r}")
    try:
        value = float(2 * j)
    except (TypeError, ValueError, OverflowError):  # None, 1j, a list, an int past the floats
        value = math.nan
    if not math.isfinite(value) or 2 * j != round(value) or (round(value) < 0 and not signed):
        raise ValueError(f"{what} must be {kind}, got {j}")
    return round(value)


def _two_m(m, two_j: int, what: str = "m") -> int:
    rounded = _two_j(m, what, signed=True)
    if (rounded - two_j) % 2 or abs(rounded) > two_j:
        raise ValueError(f"{what}={m} invalid for degree {two_j / 2}")
    return rounded


@lru_cache(maxsize=None)
def _entry_terms(two_j: int, two_m1: int, two_m2: int):
    """Monomial data for one matrix entry: tuples (coef, ka, kb, kc, kd).  Only
    the tests' oracle calls it; perfbench/tracing.py reads its cache_info()."""
    jm1 = (two_j + two_m1) // 2
    jm1c = (two_j - two_m1) // 2
    jm2 = (two_j + two_m2) // 2
    jm2c = (two_j - two_m2) // 2
    norm_sq = math.prod(math.factorial(v) for v in (jm1, jm1c, jm2, jm2c))
    m1m2 = (two_m1 + two_m2) // 2
    terms = []
    for k in range(max(0, m1m2), min(jm1, jm2) + 1):
        den = math.prod(math.factorial(v) for v in (k, jm2 - k, jm1 - k, k - m1m2))
        coef = math.sqrt(float(Fraction(norm_sq, den * den)))
        terms.append((coef, k, jm1 - k, jm2 - k, k - m1m2))
    return tuple(terms)


def _euler_points(angles: EulerAngles) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """(shape, unit, beta) of `_points` read straight off EulerAngles, which
    give a = e^{i(alpha+gamma)/2} cos(beta/2) and b = e^{i(alpha-gamma)/2}
    sin(beta/2): the unit phases are those exponentials times the signs of
    the cosine and the sine (1 where either is 0), and beta in [0, pi] is
    taken as it is, elsewhere as 2 atan2(|sin(beta/2)|, |cos(beta/2)|).
    Refuses an angle that is not finite with ValueError."""
    alpha, beta, gamma = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (angles.alpha, angles.beta, angles.gamma))
    )
    if not np.all(np.isfinite(alpha) & np.isfinite(beta) & np.isfinite(gamma)):
        raise ValueError("Euler angles must be finite")
    shape = alpha.shape
    alpha, beta, gamma = (v.reshape(-1) for v in (alpha, beta, gamma))
    half = np.stack([np.cos(beta / 2.0), np.sin(beta / 2.0)])
    unit = np.where(half == 0.0, 1.0, np.exp(0.5j * np.stack([alpha + gamma, alpha - gamma])) * np.sign(half))
    folded = 2.0 * np.arctan2(np.abs(half[1]), np.abs(half[0]))
    return shape, unit, np.where((beta >= 0.0) & (beta <= np.pi), beta, folded)


class _Points(NamedTuple):
    """A stack of points parsed once (`_points`): its batch shape, the unit
    phases a column per point, the distinct beta values, and for each
    point its place among them (point k at beta[where[k]])."""

    shape: tuple[int, ...]
    unit: np.ndarray
    beta: np.ndarray
    where: np.ndarray


def _points(u, tol: float = 1e-9) -> _Points:
    """The one parser of a point argument u: EulerAngles (`_euler_points`),
    one 2x2 special unitary, a (..., 2, 2) stack of them or an Su2Exact.
    The points [[a, b], [c, d]] are flattened in C order: unit[0] = a/|a|,
    unit[1] = b/|b| (1 where the modulus is 0), beta = 2 atan2(|b|, |a|).
    Refused with ValueError unless |a|^2 + |b|^2 = 1, c = -conj(b) and
    d = conj(a) within tol."""
    if isinstance(u, EulerAngles):
        shape, unit, beta = _euler_points(u)
    else:
        arr = _complex_matrices(u)
        a, b, c, d = arr[..., 0, 0], arr[..., 0, 1], arr[..., 1, 0], arr[..., 1, 1]
        off_su2 = [np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0), np.abs(c + b.conj()), np.abs(d - a.conj())]
        if not np.max(off_su2, initial=0.0) <= tol:  # a NaN fails too
            raise ValueError("argument matrix is not special unitary")
        a_b = np.stack([a.reshape(-1), b.reshape(-1)])
        modulus = np.abs(a_b)
        unit = np.divide(a_b, modulus, out=np.ones_like(a_b), where=modulus > 0)
        shape, beta = a.shape, 2.0 * np.arctan2(modulus[1], modulus[0])
    return _Points(shape, unit, *np.unique(beta, return_inverse=True))


@lru_cache(maxsize=None)
def _delta(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """lam = -j..j ascending and O = Delta = d^j(pi/2), rows and columns
    descending in m, whose column k is J_x's eigenvector of eigenvalue
    lam_k = k - j, so V = D O diagonalises J_y = D J_x D^H, D = diag(i^{j-m}).
    O[x, k] = (-1)^{x+k} sqrt(C(2j, x) / C(2j, k)) K[x, k] / 2^j, K[x] the
    integer coefficients of (1 + t)^x (1 - t)^{2j-x}: row x + 1 is row x
    times (1 + t), whose running sum divides by (1 - t), and row 2j - x is
    row x times (-1)^k.  K / 2^floor(j) and C(2j, x) / 4^q, 4^q <= C(2j, x)
    < 4^{q+1}, are correctly rounded int divisions, and ldexp puts the
    powers of two back exactly.  Refuses a degree whose 2^-floor(j) is no
    normal float with ValueError."""
    half, n = two_j // 2, two_j + 1
    if half > -np.finfo(float).minexp:
        raise ValueError(f"degree {two_j / 2} is beyond the kernel's limit of {0.5 - np.finfo(float).minexp}")
    scaled, scale = np.empty((n, n)), 1 << half
    row = [(-1) ** k * math.comb(two_j, k) for k in range(n)]  # (1 - t)^{2j}
    for x in range(half + 1):
        scaled[x] = [v / scale for v in row]
        row = list(accumulate(a + b for a, b in zip(row, [0] + row[:-1])))
    parity = 1 - 2 * (np.arange(n) % 2)
    scaled[half + 1:] = scaled[: n // 2][::-1] * parity
    q = np.array([(math.comb(two_j, x).bit_length() - 1) // 2 for x in range(n)])
    g = np.array([math.comb(two_j, x) / 4**e for x, e in enumerate(q.tolist())])
    ratio = np.sqrt(np.divide.outer(g, g * 2.0 ** (two_j % 2)))
    vec = np.ldexp(np.outer(parity, parity) * scaled * ratio, np.subtract.outer(q, q))
    lam = np.arange(-two_j, two_j + 1, 2) / 2.0
    lam.flags.writeable = vec.flags.writeable = False
    return lam, vec


def _unit_powers(unit: np.ndarray, top: int) -> np.ndarray:
    """unit^k for k = -top..top along a new axis 1, the negative powers as
    conjugates: one running product over [1, u, u, ...], which keeps the
    powers of i exact and adds about an ulp per step.  numpy's complex
    power leaves its integer fast path above exponent 100 and was off by
    4.9e-14 by exponent 160."""
    steps = np.repeat(unit[:, None, :], top + 1, axis=1)
    steps[:, 0] = 1.0
    powers = np.cumprod(steps, axis=1)
    return np.concatenate([powers[:, :0:-1].conj(), powers], axis=1)


def _small_d(two_j: int, pairs, beta) -> np.ndarray:
    """d^j_{m1 m2}(beta) at each (2 m1, 2 m2) in pairs, points by pairs.  With
    r the rows of m1 and m2 it sums i^{r1-r2} O_{r1} O_{r2} e^{i beta lam} over
    lam (`_delta`), where O_{r1} O_{r2} at -lam is (-1)^{r1-r2} that at lam:
    folded, a pair's row is the product at lam >= 0 times 2 (1 at lam = 0) and
    `_FOLD_SIGNS`: floor(j) + 1 coefficients of cos(beta lam) for even r1 - r2,
    of sin(beta lam) for odd, one matmul per parity and block of at most
    _BETA_BLOCK beta.  Blocks are of nearly equal size and break at multiples
    of 64, since an entry's last bits depend on the shape of its matmul: at
    2j = 80 on one thread, splitting 400 beta into blocks of 4 or 16 changed
    86% of the entries, into 100 or 200 none, and into 399 + 1 the lone beta's."""
    lam, vec = (v[..., (two_j + 1) // 2:] for v in _delta(two_j))  # lam >= 0
    r1, r2 = (two_j - np.asarray(pairs, dtype=int).reshape(-1, 2).T) // 2
    columns = [np.flatnonzero((r1 - r2) % 2 == parity) for parity in (0, 1)]
    weight = np.where(lam > 0, 2.0, 1.0)  # with the sign, +-1 or +-2: each product scaled exactly
    rows = [vec[r1[at]] * vec[r2[at]] * (_FOLD_SIGNS[(r1[at] - r2[at]) % 4, None] * weight) for at in columns]
    beta = np.asarray(beta, dtype=float)
    out = np.empty((beta.size, len(r1)))
    blocks = -(-beta.size // _BETA_BLOCK)
    edges = [64 * (k * -(-beta.size // 64) // blocks) for k in range(1, blocks)]
    for part, into in zip(np.split(beta.reshape(-1), edges), np.split(out, edges)):
        angle = part[:, None] * lam
        for at, row, wave in zip(columns, rows, (np.cos(angle), np.sin(angle))):
            into[:, at] = wave @ row.T
    return out.reshape(beta.shape + (len(r1),))


def _runs(labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(first, run, rank) of items whose equal labels come in contiguous
    runs: the position of each run's first item, and for each item the
    number of its run and its position within it."""
    labels = np.asarray(labels)
    starts = np.diff(labels, prepend=labels[:1] - 1) != 0
    first = np.flatnonzero(starts)
    run = np.cumsum(starts) - 1
    return first, run, np.arange(len(labels)) - first[run]


def _slot_values(two_j: int, pairs, owner, weights, points: _Points, group: int = 1):
    """Values at points (`_points`) of functions of one degree j, chunk by
    chunk: yields (at, values), the slice of the flattened points a chunk
    covers and their values, a row per function and a column per point.
    This is the one place where D^j values are summed.

    The functions come as flat term columns: pairs holds each term's
    (2 m1, 2 m2), owner its function (a function's terms are one contiguous
    run, a row per run), and weights its weight, or None for a weight of 1
    that multiplies nothing (1 + 0j would flip the sign of a zero part).
    They are laid out here on a padded (rank, function) grid, rank-major; a
    function with fewer terms is padded with the first term's pair at
    weight 0, which needs weights.  A value is the sum of its function's
    weight times D^j_{m1 m2} over the ranks, added in rank order.

    An entry is (a/|a|)^{m1+m2} (b/|b|)^{m1-m2} d^j_{m1 m2}(beta); the phases
    are integer powers, not exp(i k arg z), so exact lifts stay exact, and
    each is a row of the chunk's table of powers (`_unit_powers`), so the
    lookups are row gathers.  d^j is taken in one call over the distinct
    beta (`_small_d`) and each chunk gathers its rows, so no bit of a value
    depends on the chunking.  A chunk holds whole groups of `group`
    consecutive points, as many as keep points times the larger of the
    slots and the 2 (4j + 1) rows of the table of powers within
    _ENTRY_BUDGET, and one group at least.
    """
    pairs = np.reshape(pairs, (-1, 2))
    grid = (len(pairs), 1)  # one function's terms are its ranks, in order
    if owner[0] != owner[-1]:  # more functions: the padded rank-major grid
        _, run, rank = _runs(owner)
        grid = (int(rank.max()) + 1, int(run[-1]) + 1)
        slot = np.zeros(grid, dtype=np.intp)  # a padding slot reads the first term
        slot[rank, run] = np.arange(len(run))
        pairs = pairs[slot.reshape(-1)]
        if weights is not None:
            padded = np.zeros(grid, dtype=complex)
            padded[rank, run] = weights
            weights = padded
        elif slot.size > len(run):
            raise ValueError("a padded grid needs weights")
    weights = None if weights is None else np.reshape(weights, (-1, 1))
    small_d = _small_d(two_j, pairs, points.beta)
    a_power = two_j + (pairs[:, 0] + pairs[:, 1]) // 2
    b_power = two_j + (pairs[:, 0] - pairs[:, 1]) // 2
    width = max(math.prod(grid), 2 * (2 * two_j + 1))
    step = group * max(1, _ENTRY_BUDGET // (width * group))
    for start in range(0, max(len(points.where), 1), step):  # one chunk at least, empty for no points
        at = slice(start, start + step)
        powers = _unit_powers(points.unit[:, at], two_j)
        columns = powers[0][a_power]
        columns *= small_d[points.where[at]].T
        # in place but for one entry (one slot at one point): numpy multiplies a
        # one-element array into itself with other last bits than its vector
        # loop gives, so a value would depend on the chunk size
        columns = np.multiply(columns, powers[1][b_power], out=columns if columns.size > 1 else None)
        if weights is not None:
            columns *= weights
        # the rank blocks added in order: numpy's sum of a one-point chunk, a
        # contiguous reduction, would add more than 8 of them pairwise
        values = reduce(np.add, columns.reshape(grid + (-1,)))
        del powers, columns  # only the values stay bound while the caller holds them
        yield at, values


_SEED_MAX_DEGREE = 514  # the largest j0 whose binomial C(2 j0, j0) is a finite float


def _small_d_by_degree(m1: np.ndarray, m2: np.ndarray, t: np.ndarray, top: int, scale=1.0):
    """d^j_{m1 m2}(arccos t) of integer pairs, in `_small_d`'s sign
    convention ((-1)^{m1-m2} times the standard d), times scale, at every
    degree from j0 = max(|m1|, |m2|) to top: the three-term recurrence in j
    at fixed (m1, m2) (Kostelec & Rockmore 2008, J. Fourier Anal. Appl. 14,
    145), independent of the kernel's Delta.

    The pairs come in ascending order of j0.  Yields (j, rows) for each j
    from the first pair's j0 to top: rows[k] holds the values of the k-th
    pair at the nodes t, for the pairs with j0 <= j.  rows is a view that
    the next steps overwrite.  Pairs beyond j0 = _SEED_MAX_DEGREE raise
    ValueError: their seed's binomial overflows a float.

    The seed at j0 is sqrt(C(2 j0, |m1+m2|)) cos(b/2)^{|m1+m2|}
    sin(b/2)^{|m1-m2|}, written in t alone: an exact integer binomial
    times integer powers of (1 + t)/2 and (1 - t)/2, with one square root,
    taken over the binomial times (1 + t)(1 - t)/4 where the exponents are
    odd.  It is within 1e-14 relative of its exact value at j0 = 80, where
    a rounded cos(b/2) raised to the power, or a seed through logarithms,
    is off by 1e-13 to 1e-12.  Each step is
    d^{j+1} = A (t - B) d^j - C d^{j-1}, with U = ((j+1)^2 - m1^2)((j+1)^2 - m2^2),
    A = (j+1)(2j+1) / sqrt(U), B = m1 m2 / (j(j+1)) and
    C = (j+1) sqrt((j^2 - m1^2)(j^2 - m2^2)) / (j sqrt(U)).
    """
    m1, m2 = np.asarray(m1, dtype=np.int64), np.asarray(m2, dtype=np.int64)
    j0 = np.maximum(np.abs(m1), np.abs(m2))
    if np.any(np.diff(j0) < 0):
        raise ValueError("pairs must come in ascending order of max(|m1|, |m2|)")
    if j0.size and j0[-1] > _SEED_MAX_DEGREE:
        raise ValueError(
            f"the recurrence seed at max(|m1|, |m2|) = {j0[-1]} overflows a float "
            f"(its limit is {_SEED_MAX_DEGREE})"
        )
    t = np.asarray(t, dtype=float)
    plus, minus = (1.0 + t) / 2.0, (1.0 - t) / 2.0
    cos_power, sin_power = np.abs(m1 + m2), np.abs(m1 - m2)  # they add up to 2 j0
    binomial = np.array([float(math.comb(2 * k, e)) for k, e in zip(j0.tolist(), cos_power.tolist())])
    binomial = binomial[:, None]
    seed = np.sqrt(np.where((cos_power % 2 == 1)[:, None], binomial * (plus * minus), binomial))
    seed *= plus ** (cos_power // 2)[:, None]
    seed *= minus ** (sin_power // 2)[:, None]
    seed *= np.where(m2 > m1, 1 - 2 * ((m2 - m1) % 2), 1)[:, None] * scale
    previous, current, following = np.zeros((3,) + seed.shape)
    sq1, sq2, product = m1 * m1, m2 * m2, m1 * m2
    active = 0
    for j in range(int(j0[0]), top + 1):
        if active:  # the step i = j - 1 -> j of the pairs already started
            k, i = active, j - 1
            upper = np.sqrt(((j * j - sq1[:k]) * (j * j - sq2[:k])).astype(float))
            lower = np.sqrt(((i * i - sq1[:k]) * (i * i - sq2[:k])).astype(float))
            out = following[:k]
            np.subtract(t, (product[:k] / (i * j or 1))[:, None], out=out)  # B is 0 at i = 0
            out *= (j * (2 * i + 1) / upper)[:, None]
            out *= current[:k]
            previous[:k] *= (j * lower / ((i or 1) * upper))[:, None]  # C is 0 where j0 = i
            out -= previous[:k]
            previous, current, following = current, following, previous
        started = int(np.searchsorted(j0, j, side="right"))
        current[active:started] = seed[active:started]  # the other buffers hold 0 there
        active = started
        yield j, current[:active]


def _scalar_or_array(values: np.ndarray):
    return values if values.shape else complex(values)


def _grid_values(two_j: int, pairs, owner, weights, points: _Points) -> np.ndarray:
    """Every value of `_slot_values`, a row per function and a column per
    flattened point."""
    out = None
    for at, values in _slot_values(two_j, pairs, owner, weights, points):
        if out is None:  # the first chunk gives the number of functions
            out = np.empty((len(values), len(points.where)), dtype=complex)
        out[:, at] = values
    return out


def _entry_sum(two_j: int, pairs, weights, u):
    """The value of one function, whose terms are pairs (2 m1, 2 m2) with
    weights (`_slot_values`), at the point argument u (`_points`), in its
    batch shape; a complex at a single point."""
    points = _points(u)
    return _scalar_or_array(_grid_values(two_j, pairs, [0] * len(pairs), weights, points).reshape(points.shape))


def wigner_entry(j, m1, m2, a, b, c, d):
    """D^j_{m1,m2} evaluated at matrix entries a,b,c,d (arrays broadcast)."""
    evaluate = wigner_entry_function(j, m1, m2)
    u = np.stack(np.broadcast_arrays(a, b, c, d), axis=-1)
    return evaluate(u.reshape(u.shape[:-1] + (2, 2)))


def wigner_d(j, u, unitary_tol: float = 1e-9) -> np.ndarray:
    """Full (2j+1) x (2j+1) representation matrix at a special unitary u.

    Rows and columns run over m1 and m2 in descending order.  An argument
    not special unitary within unitary_tol is rejected with ValueError.
    """
    two_j = _two_j(j)
    points = _points(u, unitary_tol)
    if points.shape != ():
        raise ValueError(f"expected one 2x2 matrix, got a batch of shape {points.shape}")
    ms = np.arange(two_j, -two_j - 1, -2)
    pairs = np.stack(np.meshgrid(ms, ms, indexing="ij"), axis=-1).reshape(-1, 2)
    return _grid_values(two_j, pairs, np.arange(len(pairs)), None, points).reshape(two_j + 1, two_j + 1)


def su2_character(j, phi) -> float:
    """Character chi^j at rotation angle phi in [0, 2 pi].

    Equals sin((2j+1) phi/2) / sin(phi/2); evaluated as the equivalent
    cosine sum, which needs no special casing at phi = 0 or 2 pi.
    """
    tj = _two_j(j)
    phi = float(phi)
    return float(sum(math.cos((tj / 2 - k) * phi) for k in range(tj + 1)))


def character_jj(pair: IsoPair, j) -> float:
    """Character of the two-sided degree-(j, j) representation at a pair."""
    phi_l, phi_r = rotation_angles(pair)
    return su2_character(j, phi_l) * su2_character(j, phi_r)


def clebsch_gordan(j1, m1, j2, m2, l, m) -> float:
    """Clebsch-Gordan coefficient <j1 m1 j2 m2 | l m>, Condon-Shortley.

    Evaluated from the exact rational square with the sign of the k-sum;
    any out-of-range label returns 0 rather than raising.
    """
    try:
        tj1, tj2, tl = _two_j(j1, "j1"), _two_j(j2, "j2"), _two_j(l, "l")
        tm1 = _two_m(m1, tj1, "m1")
        tm2 = _two_m(m2, tj2, "m2")
        tm = _two_m(m, tl, "m")
    except ValueError:
        return 0.0
    if tm1 + tm2 != tm:
        return 0.0
    if not abs(tj1 - tj2) <= tl <= tj1 + tj2 or (tj1 + tj2 + tl) % 2:
        return 0.0

    def fact(two_value: int) -> int:
        if two_value % 2:
            raise ValueError("non-integer factorial argument")
        return math.factorial(two_value // 2)

    prefactor = Fraction(
        (tl + 1)
        * fact(tj1 + tj2 - tl)
        * fact(tj1 - tj2 + tl)
        * fact(-tj1 + tj2 + tl)
        * fact(tl + tm)
        * fact(tl - tm)
        * fact(tj1 + tm1)
        * fact(tj1 - tm1)
        * fact(tj2 + tm2)
        * fact(tj2 - tm2),
        fact(tj1 + tj2 + tl + 2),
    )
    total = Fraction(0)
    k_lo = max(0, (tj2 - tl - tm1) // 2, (tj1 + tm2 - tl) // 2)
    k_hi = min((tj1 + tj2 - tl) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    for k in range(k_lo, k_hi + 1):
        doubled = (tj1 + tj2 - tl - 2 * k, tj1 - tm1 - 2 * k, tj2 + tm2 - 2 * k, tl - tj2 + tm1 + 2 * k, tl - tj1 - tm2 + 2 * k)
        den = math.factorial(k) * math.prod(map(fact, doubled))
        total += Fraction((-1) ** k, den)
    if total == 0:
        return 0.0
    sign = 1.0 if total > 0 else -1.0
    return sign * math.sqrt(float(prefactor * total * total))


@dataclass(frozen=True)
class EulerAngles:
    """Euler coordinates on SU(2); fields may be scalars or broadcastable arrays."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray

    def matrix_entries(self):
        """Entries (a, b, c, d) of [[z1, z2], [-conj(z2), conj(z1)]]."""
        alpha = np.asarray(self.alpha, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        gamma = np.asarray(self.gamma, dtype=float)
        z1 = np.exp(0.5j * (alpha + gamma)) * np.cos(beta / 2.0)
        z2 = np.exp(0.5j * (alpha - gamma)) * np.sin(beta / 2.0)
        return z1, z2, -np.conj(z2), np.conj(z1)

    def matrix(self) -> np.ndarray:
        """Stacked 2x2 special unitary matrices, shape (..., 2, 2)."""
        a, b, c, d = self.matrix_entries()
        return np.stack([np.stack([a, b], axis=-1), np.stack([c, d], axis=-1)], axis=-2)


def wigner_entry_function(j, m1, m2):
    """Vectorized callable returning D^j_{m1,m2} at any point argument that
    `_points` takes: EulerAngles, one 2x2 special unitary, a (..., 2, 2)
    stack of them or an Su2Exact."""
    tj = _two_j(j)
    pairs = [(_two_m(m1, tj, "m1"), _two_m(m2, tj, "m2"))]

    def evaluate(u):
        return _entry_sum(tj, pairs, None, u)

    return evaluate


@dataclass(frozen=True)
class EulerQuadrature:
    """Product rule for the normalized measure (1/8 pi^2) da sin(b) db dg.

    Kept as its one-dimensional factors: uniform grids alpha and gamma, and
    Gauss-Legendre nodes t = `cos_beta` with their weights in t, which sum
    to 2; the nodes in beta are `beta` = arccos(t).  The product nodes
    (`angles`, alpha slowest, gamma fastest) and their `weights` are built
    from the factors on request.
    """

    alpha: np.ndarray
    cos_beta: np.ndarray
    beta_weights: np.ndarray
    gamma: np.ndarray
    max_degree: int

    @property
    def beta(self) -> np.ndarray:
        return np.arccos(self.cos_beta)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.alpha.size, self.cos_beta.size, self.gamma.size

    @property
    def node_count(self) -> int:
        return math.prod(self.shape)

    @property
    def angles(self) -> EulerAngles:
        aa, bb, gg = np.meshgrid(self.alpha, self.beta, self.gamma, indexing="ij")
        return EulerAngles(aa.reshape(-1), bb.reshape(-1), gg.reshape(-1))

    @property
    def weights(self) -> np.ndarray:
        na, nb, ng = self.shape
        per_beta = self.beta_weights / (2.0 * na * ng)
        return np.broadcast_to(per_beta[None, :, None], self.shape).reshape(-1)


_NEWTON_STEPS = 10  # the guesses settle in 3 or 4 steps for every n <= 1000


def _legendre_and_derivative(n: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(t) and P_n'(t) from the three-term recurrence, for |t| < 1."""
    previous, current = np.ones_like(t), t
    for k in range(2, n + 1):
        previous, current = current, ((2 * k - 1) * t * current - (k - 1) * previous) / k
    return current, n * (previous - t * current) / ((1.0 - t) * (1.0 + t))


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1]: ascending nodes, weights.

    The positive nodes start from the asymptotic guess
    (1 - 1/(8 n^2) + 1/(8 n^3)) cos(pi (4k - 1) / (4n + 2)) and are refined
    by Newton steps on P_n (Hale & Townsend 2013, SIAM J. Sci. Comput. 35,
    A652); the weights are 2 / ((1 - t^2) P_n'(t)^2).  The negative half is
    the mirror image, so the rule is symmetric bit for bit, and an odd n
    has the node 0.  Raises RuntimeError if the steps do not settle.
    """
    k = np.arange(n // 2, 0, -1)
    t = (1.0 - 1.0 / (8 * n**2) + 1.0 / (8 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(_NEWTON_STEPS):
        value, slope = _legendre_and_derivative(n, t)
        step = value / slope
        t -= step
        if np.all(np.abs(step) <= 1e-13):  # what is left is of order step^2
            break
    else:
        raise RuntimeError(f"Newton steps for the {n}-point Gauss-Legendre nodes did not converge")
    half = np.append(np.zeros(n % 2), t)
    _, slope = _legendre_and_derivative(n, half)
    weights = 2.0 / ((1.0 - half) * (1.0 + half) * slope**2)
    return np.concatenate([-t[::-1], half]), np.concatenate([weights[n % 2:][::-1], weights])


def euler_quadrature(
    max_degree: int,
    n_alpha: int | None = None,
    n_beta: int | None = None,
    n_gamma: int | None = None,
) -> EulerQuadrature:
    """Quadrature exact for trigonometric polynomials up to max_degree.

    max_degree is the band limit of the integrand (2 j_max for a product of
    two degree-j_max matrix elements).  Uniform grids in alpha and gamma
    need max_degree + 1 nodes, the Gauss-Legendre rule in cos(beta) needs
    max_degree + 2; explicitly requesting fewer raises ValueError, as does
    a size that is a bool or no integer.
    """
    max_degree = _integer(max_degree, "max_degree")
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    na = max_degree + 1 if n_alpha is None else _integer(n_alpha, "n_alpha")
    ng = max_degree + 1 if n_gamma is None else _integer(n_gamma, "n_gamma")
    nb = max_degree + 2 if n_beta is None else _integer(n_beta, "n_beta")
    if na < max_degree + 1 or ng < max_degree + 1:
        raise ValueError(
            f"alpha/gamma grids need at least {max_degree + 1} nodes for degree {max_degree}"
        )
    if nb < max_degree + 2:
        raise ValueError(
            f"cos(beta) rule needs at least {max_degree + 2} nodes for degree {max_degree}"
        )
    t, wt = _gauss_legendre(nb)
    return EulerQuadrature(
        alpha=2.0 * np.pi * np.arange(na) / na,
        cos_beta=t,
        beta_weights=wt,
        gamma=2.0 * np.pi * np.arange(ng) / ng,
        max_degree=max_degree,
    )


def quadrature_inner(f, g, resolution) -> complex:
    """Normalized inner product (1/8 pi^2) inte conj(f) g over Euler angles.

    resolution is either the integrand band limit (an int, parsed as
    euler_quadrature's max_degree) or a prebuilt EulerQuadrature.  f and g
    must broadcast over array-valued angles.
    """
    rule = resolution if isinstance(resolution, EulerQuadrature) else euler_quadrature(resolution)
    angles = rule.angles
    fv = np.asarray(f(angles), dtype=complex)
    gv = np.asarray(g(angles), dtype=complex)
    return complex(np.sum(rule.weights * np.conj(fv) * gv))


@lru_cache(maxsize=None)
def _cg_column(two_j: int, tl: int, tm: int) -> tuple[tuple[int, int, float], ...]:
    """Coefficients <j -m1 j m+m1 | l m> with phase (-1)^(j-m1), by m1, as
    (2 m1, 2 (m + m1), coefficient); kept per label, since each is summed
    from exact fractions."""
    j = two_j / 2
    out = []
    for tm1 in range(-two_j, two_j + 1, 2):
        tm2 = tm + tm1
        if abs(tm2) > two_j:
            continue
        cg = clebsch_gordan(j, -tm1 / 2, j, tm2 / 2, tl / 2, tm / 2)
        if cg == 0.0:
            continue
        phase = (-1.0) ** ((two_j - tm1) // 2)
        out.append((tm1, tm2, phase * cg))
    return tuple(out)


def _beta_two_j(beta_label) -> int:
    """2j of the label beta = 2j+1 of an adapted harmonic, parsed by
    `_two_j`; refuses a label that is not a positive odd integer."""
    two_label = _two_j(beta_label, "beta label")
    if two_label % 4 != 2:
        raise ValueError(f"beta label must be a positive odd integer 2j+1, got {beta_label}")
    return two_label // 2 - 1


def conjugation_harmonic(beta_label: int, l, m, u):
    """Harmonic psi_{beta l m} at u, adapted to conjugation on the sphere.

    beta_label = 2j+1 must be odd so the degree j is an integer; l runs
    0..2j and |m| <= l.  u may be a single 2x2 unitary, a stacked array of
    them, or EulerAngles.
    """
    two_j = _beta_two_j(beta_label)
    tl = _two_j(l, "l")
    if tl % 2 or tl > 2 * two_j:
        raise ValueError(f"l must be an integer in 0..{two_j}")
    tm = _two_m(m, tl, "m")
    column = _cg_column(two_j, tl, tm)
    return _entry_sum(two_j, [pair for *pair, _ in column], [coef for *_, coef in column], u)

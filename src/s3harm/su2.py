"""Exact SU(2) x SU(2) lifts of the even hyperoctahedral isometries.

All matrix entries live in the cyclotomic ring Z[a], a = exp(i*pi/4),
extended by half powers of sqrt(2) in the denominator; sqrt(2) = a - a^3,
i = a^2.  A point x on S^3 is identified with the special unitary matrix

    u(x) = [[z1, z2], [-conj(z2), conj(z1)]],   z1 = x0 - i*x3,  z2 = -x2 - i*x1,

and an even isometry acts as u -> wl^{-1} u wr for a pair (wl, wr) that is
well defined up to a simultaneous sign flip.  Pairs of consecutive letters
(s, s') in a glue word contribute wl *= v_s v_{s'}^{-1} and wr *= v_s^{-1} v_{s'}
in reading order, and each central inversion letter flips the sign of wr.

Ring elements are validated once, where they enter through the Cyclo8
constructor; sums, differences, products and negations of valid
elements are formed in straight-line integer code and normalised
once each, by `_normalised`, which the constructor runs as well.

Floats come from one table of eighth roots, `_MU8`, correctly rounded at
each root: `Cyclo8.to_complex` reads each power of a off it, so each entry
of a deck lift converts to its table entry bit for bit, and `bases` reads
the deck action's phases off it by `Cyclo8.root_exponent`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import acos, sqrt

import numpy as np

from .groupcore import J4

__all__ = [
    "Cyclo8",
    "Su2Exact",
    "IsoPair",
    "lift_even_word",
    "matrix_from_point",
    "point_from_matrix",
    "rotation_angles",
    "weyl_matrix",
]

# mu8[k] = exp(i pi k / 4), exact at the even k and correctly rounded at the odd
_R = sqrt(0.5)
_MU8 = np.array([1, _R + _R * 1j, 1j, -_R + _R * 1j, -1, -_R - _R * 1j, -1j, _R - _R * 1j])


def _times_root2(c):
    # multiply (c0, c1, c2, c3) by sqrt(2) = a - a^3 in Z[a]/(a^4 + 1)
    c0, c1, c2, c3 = c
    return (c1 - c3, c0 + c2, c1 + c3, c2 - c0)


def _normalised(c: tuple[int, int, int, int], k: int) -> "Cyclo8":
    """The Cyclo8 of value c / sqrt(2)^k, k >= 0, with the fewest half
    powers, built without the constructor's checks: the one place a value
    is normalised, run by the constructor and by every ring operation."""
    if c == (0, 0, 0, 0):
        k = 0
    while k > 0:
        d = _times_root2(c)
        if d[0] % 2 or d[1] % 2 or d[2] % 2 or d[3] % 2:
            break
        c = (d[0] // 2, d[1] // 2, d[2] // 2, d[3] // 2)
        k -= 1
    out = object.__new__(Cyclo8)
    object.__setattr__(out, "coeffs", c)
    object.__setattr__(out, "half_powers", k)
    return out


def _exact_int(value, what: str) -> int:
    """value as an int, refused with ValueError unless it equals that int:
    integral floats and numpy integers pass, 0.5, "3", infinity and a bool
    do not."""
    try:
        n = None if isinstance(value, (bool, np.bool_)) else int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return n


@dataclass(frozen=True)
class Cyclo8:
    """Element (c0 + c1*a + c2*a^2 + c3*a^3) / sqrt(2)^half_powers, a = exp(i*pi/4).

    Instances normalise on construction so that half_powers is minimal;
    equality and hashing are therefore exact value comparisons.  The
    constructor checks its input; the ring operations (+, -, *, negation,
    conjugation) combine valid values in straight-line integer code and
    normalise each result once, by the same `_normalised`.
    """

    coeffs: tuple[int, int, int, int]
    half_powers: int = 0

    def __post_init__(self):
        c = tuple(_exact_int(v, "coefficient") for v in self.coeffs)
        if len(c) != 4:
            raise ValueError("need exactly four coefficients")
        k = _exact_int(self.half_powers, "half_powers")
        if k < 0:
            raise ValueError("half_powers must be nonnegative")
        value = _normalised(c, k)
        object.__setattr__(self, "coeffs", value.coeffs)
        object.__setattr__(self, "half_powers", value.half_powers)

    @classmethod
    def from_int(cls, n: int) -> "Cyclo8":
        return cls((n, 0, 0, 0))

    def _lifted(self, k: int) -> tuple[int, int, int, int]:
        # coefficients after multiplying value by sqrt(2)^(k - half_powers)
        c = self.coeffs
        for _ in range(k - self.half_powers):
            c = _times_root2(c)
        return c

    def __add__(self, other: "Cyclo8") -> "Cyclo8":
        k = max(self.half_powers, other.half_powers)
        a0, a1, a2, a3 = self._lifted(k)
        b0, b1, b2, b3 = other._lifted(k)
        return _normalised((a0 + b0, a1 + b1, a2 + b2, a3 + b3), k)

    def __sub__(self, other: "Cyclo8") -> "Cyclo8":
        k = max(self.half_powers, other.half_powers)
        a0, a1, a2, a3 = self._lifted(k)
        b0, b1, b2, b3 = other._lifted(k)
        return _normalised((a0 - b0, a1 - b1, a2 - b2, a3 - b3), k)

    def __neg__(self) -> "Cyclo8":
        c0, c1, c2, c3 = self.coeffs
        return _normalised((-c0, -c1, -c2, -c3), self.half_powers)

    def __mul__(self, other: "Cyclo8") -> "Cyclo8":
        c0, c1, c2, c3 = self.coeffs
        d0, d1, d2, d3 = other.coeffs
        # convolution in Z[a]/(a^4 + 1): a^4 = -1 folds the high powers back
        return _normalised(
            (
                c0 * d0 - c1 * d3 - c2 * d2 - c3 * d1,
                c0 * d1 + c1 * d0 - c2 * d3 - c3 * d2,
                c0 * d2 + c1 * d1 + c2 * d0 - c3 * d3,
                c0 * d3 + c1 * d2 + c2 * d1 + c3 * d0,
            ),
            self.half_powers + other.half_powers,
        )

    def is_zero(self) -> bool:
        return self.coeffs == (0, 0, 0, 0)

    def root_exponent(self) -> int:
        """k with self = exp(i pi k / 4) exactly; refuses any other value."""
        nonzero = [(k, c) for k, c in enumerate(self.coeffs) if c]
        if self.half_powers or len(nonzero) != 1 or abs(nonzero[0][1]) != 1:
            raise ValueError(f"{self} is not an eighth root of unity")
        k, c = nonzero[0]
        return k if c == 1 else k + 4

    def to_complex(self) -> complex:
        """The value as a float, each power of a read off `_MU8`: bit for bit
        its entry at each eighth root, the sign of a zero part included (the
        sum starts at -0j and the parts are scaled one by one); 0 is 0j."""
        value = sum((c * mu for c, mu in zip(self.coeffs, _MU8) if c), -0j) or 0j
        scale = _R ** (self.half_powers % 2) * 0.5 ** (self.half_powers // 2)
        return complex(value.real * scale, value.imag * scale)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            base = f"a^{k}" if k > 1 else ("a" if k == 1 else "")
            if base:
                mag = "" if abs(c) == 1 else str(abs(c))
                term = mag + base
            else:
                term = str(abs(c))
            parts.append(("-" if c < 0 else "+") + term)
        body = "".join(parts).lstrip("+")
        if body.startswith("-"):
            body = "-" + body[1:]
        if self.half_powers == 0:
            return body
        twos, root = divmod(self.half_powers, 2)
        den = (str(2**twos) if twos else "") + ("√2" if root else "")
        if len(parts) > 1:
            body = f"({body})"
        return f"{body}/{den}"


_ZERO = Cyclo8((0, 0, 0, 0))
_ONE = Cyclo8((1, 0, 0, 0))
_I = Cyclo8((0, 0, 1, 0))


@dataclass(frozen=True)
class Su2Exact:
    """2x2 matrix over Cyclo8; the lift routines only ever build unitaries."""

    entries: tuple[tuple[Cyclo8, Cyclo8], tuple[Cyclo8, Cyclo8]]

    @classmethod
    def from_rows(cls, row0, row1) -> "Su2Exact":
        rows = []
        for row in (row0, row1):
            rows.append(
                tuple(v if isinstance(v, Cyclo8) else Cyclo8.from_int(v) for v in row)
            )
        return cls((rows[0], rows[1]))

    @classmethod
    def identity(cls) -> "Su2Exact":
        return cls.from_rows((_ONE, _ZERO), (_ZERO, _ONE))

    def __mul__(self, other: "Su2Exact") -> "Su2Exact":
        a, b = self.entries
        c, d = other.entries
        return Su2Exact(
            (
                (a[0] * c[0] + a[1] * d[0], a[0] * c[1] + a[1] * d[1]),
                (b[0] * c[0] + b[1] * d[0], b[0] * c[1] + b[1] * d[1]),
            )
        )

    def __neg__(self) -> "Su2Exact":
        (a, b), (c, d) = self.entries
        return Su2Exact(((-a, -b), (-c, -d)))

    def det(self) -> Cyclo8:
        (a, b), (c, d) = self.entries
        return a * d - b * c

    def trace(self) -> Cyclo8:
        return self.entries[0][0] + self.entries[1][1]

    def inverse(self) -> "Su2Exact":
        if self.det() != _ONE:
            raise ValueError("inverse implemented for determinant-1 matrices only")
        (a, b), (c, d) = self.entries
        return Su2Exact(((d, -b), (-c, a)))

    def to_complex(self) -> np.ndarray:
        return np.array(
            [[e.to_complex() for e in row] for row in self.entries], dtype=complex
        )

    def __str__(self) -> str:
        (a, b), (c, d) = self.entries
        return f"[[{a}, {b}], [{c}, {d}]]"


def _half(*coeffs) -> Cyclo8:
    return Cyclo8(tuple(coeffs), 1)


# the exact SU(2) lifts v_0..v_4 of the reflection generators, built once
_WEYL_LIFTS = dict(enumerate((
    Su2Exact.identity(),
    Su2Exact.from_rows((-_I, _ZERO), (_ZERO, _I)),
    Su2Exact.from_rows((_half(0, 0, -1, 0), _half(1, 0, 0, 0)), (_half(-1, 0, 0, 0), _half(0, 0, 1, 0))),
    Su2Exact.from_rows((_ZERO, _half(1, 0, -1, 0)), (_half(-1, 0, -1, 0), _ZERO)),
    Su2Exact.from_rows((_half(-1, 0, 0, 0), _half(0, 0, -1, 0)), (_half(0, 0, -1, 0), _half(-1, 0, 0, 0))),
)))


def weyl_matrix(s: int) -> Su2Exact:
    """SU(2) lift v_s of reflection generator s (0..4), exact entries."""
    if s not in _WEYL_LIFTS:
        raise ValueError(f"unknown generator index {s}; expected 0..4")
    return _WEYL_LIFTS[s]


@dataclass(frozen=True)
class IsoPair:
    """Pair (left, right) acting on u by left^{-1} u right.

    Equality is exact; `same_isometry` identifies (wl, wr) with (-wl, -wr),
    which represent the same rotation of S^3.
    """

    left: Su2Exact
    right: Su2Exact

    def compose(self, other: "IsoPair") -> "IsoPair":
        """Pair of self followed by other (application order)."""
        return IsoPair(self.left * other.left, self.right * other.right)

    def same_isometry(self, other: "IsoPair") -> bool:
        if self.left == other.left and self.right == other.right:
            return True
        return self.left == -other.left and self.right == -other.right


@lru_cache(maxsize=None)
def _letter_pair(s: int, s2: int) -> tuple[Su2Exact, Su2Exact]:
    """The factors (v_s v_s2^-1, v_s^-1 v_s2) that two consecutive
    reflection letters multiply into the left and right lifts."""
    vs, vs2 = weyl_matrix(s), weyl_matrix(s2)
    return vs * vs2.inverse(), vs.inverse() * vs2


def lift_even_word(word) -> IsoPair:
    """Lift a glue word with an even number of reflection letters to a pair.

    The minus sign of each central inversion letter is absorbed into the
    right factor, so "J4" alone lifts to (identity, -identity).
    """
    letters = [s for s in word if s != J4]
    flips = sum(1 for s in word if s == J4)
    if len(letters) % 2:
        raise ValueError("word must contain an even number of reflection letters")
    wl = Su2Exact.identity()
    wr = Su2Exact.identity()
    for s, s2 in zip(letters[0::2], letters[1::2]):
        left, right = _letter_pair(s, s2)
        wl = wl * left
        wr = wr * right
    if flips % 2:
        wr = -wr
    return IsoPair(wl, wr)


def _complex_matrices(u) -> np.ndarray:
    """Su2Exact, one 2x2 matrix or a (..., 2, 2) stack, as a complex array."""
    arr = u.to_complex() if isinstance(u, Su2Exact) else np.asarray(u, dtype=complex)
    if arr.shape[-2:] != (2, 2):
        raise ValueError(f"expected 2x2 matrices, got shape {arr.shape}")
    return arr


def matrix_from_point(x) -> np.ndarray:
    """Coordinate chart sending x on S^3 (or a (..., 4) stack) to special
    unitary 2x2 matrices."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (4,):
        raise ValueError(f"expected length-4 points, got shape {x.shape}")
    z1 = x[..., 0] - 1j * x[..., 3]
    z2 = -x[..., 2] - 1j * x[..., 1]
    return np.stack([np.stack([z1, z2], -1), np.stack([-z2.conj(), z1.conj()], -1)], -2)


def point_from_matrix(u) -> np.ndarray:
    """Inverse of `matrix_from_point`, on one matrix or a (..., 2, 2) stack."""
    u = _complex_matrices(u)
    z1, z2 = u[..., 0, 0], u[..., 0, 1]
    return np.stack([z1.real, -z2.imag, -z2.real, -z1.imag], axis=-1)


def _angle(trace_value: complex) -> float:
    tr = complex(trace_value).real
    return 2.0 * acos(min(1.0, max(-1.0, tr / 2.0)))


@lru_cache(maxsize=None)
def rotation_angles(pair: IsoPair) -> tuple[float, float]:
    """Rotation angles (phi_left, phi_right) in [0, 2*pi] from the traces,
    computed once per pair value (the character averages ask at every
    degree)."""
    return (
        _angle(pair.left.trace().to_complex()),
        _angle(pair.right.trace().to_complex()),
    )

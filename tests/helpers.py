"""Lookups and oracles that only the tests need, kept out of the package."""

import numpy as np

from s3harm.bases import _terms
from s3harm.groupcore import IDENTITY_PERM, _perm_inverse
from s3harm.su2 import IsoPair, Su2Exact, _complex_matrices, _normalised


def by_label(group, label: str):
    """The element of a deck group with the given label; KeyError if none."""
    return {el.label: el for el in group.elements}[label]


def adjoint(m: Su2Exact) -> Su2Exact:
    """The conjugate transpose of an exact 2x2 matrix."""
    (a, b), (c, d) = m.entries
    return Su2Exact(((conjugate(a), conjugate(c)), (conjugate(b), conjugate(d))))


def identity_pair() -> IsoPair:
    """The pair (e, e), which moves no point."""
    return IsoPair(Su2Exact.identity(), Su2Exact.identity())


def cycles_to_perm(text: str) -> tuple[int, int, int, int]:
    """Parse a cycle string such as "(01)(23)" or "e" into one-line form.

    Cycles are read right to left: within "(abc)" the permutation sends
    c to b, b to a and a to c.
    """
    text = text.strip()
    if text in ("e", "", "()"):
        return IDENTITY_PERM
    perm = [0, 1, 2, 3]
    seen = set()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"malformed cycle string {text!r}")
    for cyc in text[1:-1].split(")("):
        idx = []
        for ch in cyc:
            if ch not in "0123":
                raise ValueError(f"bad coordinate {ch!r} in {text!r}")
            idx.append(int(ch))
        if len(idx) < 2 or set(idx) & seen:
            raise ValueError(f"invalid cycle {cyc!r} in {text!r}")
        seen.update(idx)
        for a, b in zip(idx, idx[1:]):
            perm[b] = a
        perm[idx[0]] = idx[-1]
    return tuple(perm)


def signed_perm_matrix(g) -> np.ndarray:
    """4x4 integer matrix M of a HyperoctElement, M @ x == apply(g, x)."""
    inv = _perm_inverse(g.perm)
    m = np.zeros((4, 4), dtype=int)
    for i in range(4):
        m[i, inv[i]] = g.signs[i]
    return m


def conjugate(x):
    """The complex conjugate of a Cyclo8."""
    c0, c1, c2, c3 = x.coeffs
    return _normalised((c0, -c3, -c2, -c1), x.half_powers)


def pair_action(pair: IsoPair, u) -> np.ndarray:
    """Numeric image of a special unitary u (or a stack) under the pair."""
    return pair.left.inverse().to_complex() @ _complex_matrices(u) @ pair.right.to_complex()


def euler_matrix(angles) -> np.ndarray:
    """Stacked 2x2 special unitary matrices of EulerAngles, shape (..., 2, 2)."""
    a, b, c, d = angles.matrix_entries()
    return np.stack([np.stack([a, b], axis=-1), np.stack([c, d], axis=-1)], axis=-2)


def coefficient_vector(f) -> np.ndarray:
    """Coefficients of a BasisFunction on the (2j+1)^2 space, (m1, m2) both descending."""
    table = _terms([f])
    vec = np.zeros((2 * int(table.j[0]) + 1) ** 2, dtype=complex)
    vec[table.terms.flat] = table.terms.coef
    return f.norm_factor * vec

"""Lookups that only the tests need, kept out of the package."""

from s3harm.su2 import Su2Exact


def by_label(group, label: str):
    """The element of a deck group with the given label; KeyError if none."""
    return {el.label: el for el in group.elements}[label]


def adjoint(m: Su2Exact) -> Su2Exact:
    """The conjugate transpose of an exact 2x2 matrix."""
    (a, b), (c, d) = m.entries
    return Su2Exact(((a.conjugate(), c.conjugate()), (b.conjugate(), d.conjugate())))

"""Closed-form periodic spherical harmonics on S^3 for two cubic space forms.

Its modules cover exact hyperoctahedral group arithmetic (`groupcore`),
cyclotomic-exact SU(2) lifts (`su2`), the two deck groups (`deck`), Wigner
representation kernels and quadrature (`wigner`), multiplicities, projectors
and orthonormal bases (`bases`), and the induced-representation reduction of
the full symmetry group (`induced`).
"""

from . import bases, deck, groupcore, induced, su2, wigner

__version__ = "0.1.0"

__all__ = ["bases", "deck", "groupcore", "induced", "su2", "wigner", "__version__"]

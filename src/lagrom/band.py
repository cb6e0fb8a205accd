"""Symmetric matrices in LAPACK band storage.

The full-order mass, Rayleigh damping and tangent stiffness of the truss
share one half-bandwidth (23 for two or more bays), independent of the
number of dofs, so every full-order operator is held as a band: O(N)
storage, O(N) products and O(N) factorizations in place of N x N ones.
"""

import numpy as np
import scipy.linalg
import scipy.sparse

_GBSV, = scipy.linalg.get_lapack_funcs(("gbsv",), (np.zeros(1),))


class SymmetricBand:
    """A symmetric ``N x N`` matrix in LAPACK band storage.

    ``ab`` has shape ``(2 * half + 1, N)`` and holds entry ``(i, j)`` at
    ``ab[half + i - j, j]``; both triangles are stored, as LAPACK's general
    band routines read them.  Sums and scalar multiples act elementwise on
    the storage, so they equal the dense ones entry for entry.  Products go
    through a zero-copy ``scipy.sparse.dia_array`` view of the storage,
    which serves every N (LAPACK's ``dgbmv`` rejects ``N < 2 * half + 1``,
    trusses of up to three bays).
    """

    __array_ufunc__ = None   # ndarray operands defer to the methods below

    def __init__(self, ab):
        self.ab = ab
        self.half = (ab.shape[0] - 1) // 2
        self.shape = (ab.shape[1], ab.shape[1])
        self._view = None

    def __add__(self, other):
        if not isinstance(other, SymmetricBand):
            return NotImplemented
        return SymmetricBand(self.ab + other.ab)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return SymmetricBand(scalar * self.ab)

    __rmul__ = __mul__

    @property
    def sparse(self) -> scipy.sparse.dia_array:
        """Zero-copy ``dia_array`` view of the storage."""
        if self._view is None:
            offsets = self.half - np.arange(2 * self.half + 1)
            self._view = scipy.sparse.dia_array((self.ab, offsets),
                                                shape=self.shape)
        return self._view

    def __matmul__(self, x) -> np.ndarray:
        """Product with a vector ``(N,)`` or a matrix ``(N, k)``."""
        return self.sparse @ x

    def toarray(self) -> np.ndarray:
        """The dense matrix."""
        return self.sparse.toarray()

    def shifted(self, sigma) -> "SymmetricBand":
        """``A + sigma * I``."""
        ab = self.ab.copy()
        ab[self.half] += sigma
        return SymmetricBand(ab)

    def solve(self, b) -> np.ndarray:
        """``A^{-1} b`` by banded LU with partial pivoting (LAPACK ``gbsv``).

        Raises ``numpy.linalg.LinAlgError`` when ``A`` is exactly singular.
        """
        # gbsv keeps the LU factor in place: the band plus ``half`` rows for
        # the fill-in of row interchanges.
        work = np.zeros((3 * self.half + 1, self.shape[0]))
        work[self.half:] = self.ab
        _, _, x, info = _GBSV(self.half, self.half, work, b, overwrite_ab=True)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        if info < 0:
            raise ValueError("illegal value in argument %d of gbsv" % -info)
        return x

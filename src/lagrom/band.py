"""Symmetric matrices in LAPACK band storage.

The full-order mass, Rayleigh damping and tangent stiffness of the truss
share one half-bandwidth (23 for two or more bays), independent of the
number of dofs, so every full-order operator is held as a band: O(N)
storage, O(N) products and O(N) factorizations in place of N x N ones.
"""

import numpy as np
import scipy.linalg
import scipy.sparse

_GBTRF, _GBTRS = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"),
                                               (np.zeros(1),))


class SymmetricBand:
    """A symmetric ``N x N`` matrix in LAPACK band storage.

    ``ab`` has shape ``(2 * half + 1, N)`` and holds entry ``(i, j)`` at
    ``ab[half + i - j, j]``; both triangles are stored, as LAPACK's general
    band routines read them.  Sums and scalar multiples act elementwise on
    the storage, so they equal the dense ones entry for entry.  Products go
    through a zero-copy ``scipy.sparse.dia_array`` view of the storage,
    which serves every N (LAPACK's ``dgbmv`` rejects ``N < 2 * half + 1``,
    trusses of up to three bays).

    The storage is read-only: a band keeps its LU factor after the first
    :meth:`solve` and its product view after the first product, so an
    in-place edit would leave both stale.  Build a new band instead (as
    :meth:`shifted` does).
    """

    __array_ufunc__ = None   # ndarray operands defer to the methods below

    def __init__(self, ab):
        ab.flags.writeable = False
        self.ab = ab
        self.half = (ab.shape[0] - 1) // 2
        self.shape = (ab.shape[1], ab.shape[1])
        self._view = None
        self._lu = None

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

    def entries(self, rows, cols) -> np.ndarray:
        """The block ``A[rows][:, cols]``: the stored entries, and zeros
        farther from the diagonal than the half-bandwidth."""
        offset = self.half + rows[:, None] - cols[None, :]
        inside = (offset >= 0) & (offset <= 2 * self.half)
        return np.where(inside, self.ab[np.where(inside, offset, 0), cols], 0.0)

    def release_factor(self):
        """Drop the kept LU factor; a later :meth:`solve` factors again."""
        self._lu = None

    def solve(self, b) -> np.ndarray:
        """``A^{-1} b`` by banded LU with partial pivoting (LAPACK ``gbtrf``
        once per band, then ``gbtrs``; together they are ``gbsv``).

        Raises ``numpy.linalg.LinAlgError`` when ``A`` is exactly singular.
        """
        if self._lu is None:
            # gbtrf factors in place: the band plus ``half`` rows for the
            # fill-in of row interchanges, in Fortran order so that neither
            # wrapper copies it.
            work = np.zeros((3 * self.half + 1, self.shape[0]), order="F")
            work[self.half:] = self.ab
            lu, ipiv, info = _GBTRF(work, self.half, self.half,
                                    overwrite_ab=True)
            if info > 0:
                raise np.linalg.LinAlgError("singular matrix")
            self._lu = lu, ipiv
        lu, ipiv = self._lu
        return _GBTRS(lu, self.half, self.half, b, ipiv)[0]

"""Symmetric matrices in LAPACK band storage.

The full-order mass, Rayleigh damping and tangent stiffness of the truss
share one half-bandwidth (23 for two or more bays), independent of the
number of dofs, so every full-order operator is held as a band: O(N)
storage, O(N) products and O(N) factorizations in place of N x N ones.
"""

import functools

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse._sparsetools import dia_matvec, dia_matvecs

_GBTRF, _GBTRS = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"),
                                               (np.zeros(1),))


@functools.cache
def _diagonal_offsets(half) -> np.ndarray:
    """Offset of each storage row's diagonal, read-only: ``half - row``."""
    offsets = half - np.arange(2 * half + 1)
    offsets.flags.writeable = False
    return offsets


class SymmetricBand:
    """A symmetric ``N x N`` matrix in LAPACK band storage.

    ``ab`` has shape ``(2 * half + 1, N)`` and holds entry ``(i, j)`` at
    ``ab[half + i - j, j]``; both triangles are stored, as LAPACK's general
    band routines read them.  Sums and scalar multiples act elementwise on
    the storage, so they equal the dense ones entry for entry.  Products
    call scipy's diagonal-storage kernels (``dia_matvec``/``dia_matvecs``)
    on the storage itself, which serve every N (LAPACK's ``dgbmv`` rejects
    ``N < 2 * half + 1``, trusses of up to three bays) and sum each entry
    in the order ``scipy.sparse.dia_array`` does, diagonal by diagonal.

    The storage is read-only: a band keeps its LU factor after the first
    :meth:`solve` and its :attr:`sparse` view once made, so an in-place
    edit would leave both stale.  Build a new band instead (as
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
            self._view = scipy.sparse.dia_array(
                (self.ab, _diagonal_offsets(self.half)), shape=self.shape)
        return self._view

    def __matmul__(self, x) -> np.ndarray:
        """Product with a float vector ``(N,)`` or matrix ``(N, k)``.

        The kernels read ``x`` without bounds checks, so its shape and dtype
        are checked here and a mismatch raises ``ValueError``.
        """
        x = np.asarray(x)
        n, rows = self.shape[0], self.ab.shape[0]
        if x.ndim not in (1, 2) or x.shape[0] != n:
            raise ValueError("operand of shape %s does not match a band of "
                             "shape %s" % (x.shape, self.shape))
        if x.dtype.kind != "f":
            raise ValueError("operand must be floating point, got %s" % x.dtype)
        offsets = _diagonal_offsets(self.half)
        if x.ndim == 1:
            y = np.zeros(n)
            dia_matvec(n, n, rows, n, offsets, self.ab, x, y)
        else:
            y = np.zeros((n, x.shape[1]))
            dia_matvecs(n, n, rows, n, offsets, self.ab, x.shape[1], x, y)
        return y

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

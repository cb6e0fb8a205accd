"""Parameterized geometrically nonlinear truss: the full-order model.

A clamped--free prismatic lattice of three-dimensional bar elements with
Green--Lagrange strain and a quadratic (St. Venant--Kirchhoff) bar energy,
consistent mass, Rayleigh damping, and parameterized geometry, initial
condition, and forcing.  Sixteen parameters in the unit box control the
model; the force amplitude/frequency entries additionally admit the value
-2, which switches the corresponding load component off; the section
width and height mu[2], mu[3] lie in (-1, 1] (-1 is a zero section).

Bay topology: each bay carries 4 longitudinal chords, 4 perimeter bars in
its end cross-section, and 8 side-face diagonals (16 bars, 12 free degrees
of freedom per bay).  The clamped end face carries no degrees of freedom.

Every operator is one gather -> element kernel -> sparse-product scatter
through an :class:`AssemblyPlan`.  The full assembly is the plan over all
dofs; the sampled evaluators (selected rows/entries, sparse displacement
arguments) use plans over their index sets, whose scatters are the full
scatter filtered in its own order, so both agree bit for bit by
construction.  A potential under a reduced map (Galerkin's basis, the
structure-preserving sparse map) evaluates a plan's elements through
reduced maps instead (:class:`ReducedElementKernel`), sharing the plan's
constants and strain core; its Hessian form follows from the map: the
element sum over every dof, the congruence of the rows' stiffness block
for a map on given rows.
"""

import functools
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse._sparsetools import csr_matvec

from .band import SymmetricBand
from .midpoint import NewtonSettings, newton

DENSITY = 2700.0          # kg/m^3 (aluminum)
ELASTIC_MODULUS = 62.0e9  # Pa

# Deformed bar shorter than this fraction of its rest length is an error.
COLLAPSE_RTOL = 1e-9
# Newton iteration budget of each static solve (initial-condition load case).
IC_MAX_ITERS = 50
# Entries of the parameter vector.
PARAMETER_COUNT = 16
# Pencil frequencies closer than this relative gap count as one.
DISTINCT_RTOL = 1e-6

# Corner order within a cross-section: counterclockwise from bottom-left
# in the (width, height) plane.  Corner 0 is the "bottom-left" chord whose
# end-face y-displacement is the reported quantity of interest.
_CORNERS = ((-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5))

# Side faces of a bay as corner pairs; each carries two crossing diagonals.
_SIDE_FACES = ((0, 1), (1, 2), (2, 3), (3, 0))

# Dof axis loaded along each corner chord line (load group).
_LOAD_AXES = (1, 1, 2, 2)

# Plan topologies kept across models (see _plan_topology), and the bay
# counts whose element arrays are kept (see _bay_elements).
PLAN_CACHE_SIZE = 256
BAY_CACHE_SIZE = 16

# Element-matrix node blocks ((row end, column end), weight) in the order
# each full matrix scatter visits them; 0 is an element's first node, 1 its
# second.  The stiffness scatter reads the second-node block k22, the mass
# scatter the element's mass coefficient times the identity.  Reordering
# either changes the summation order, and with it the last bits of the
# assembled matrix.
_STIFFNESS_BLOCKS = (((1, 1), 1.0), ((0, 0), 1.0), ((1, 0), -1.0),
                     ((0, 1), -1.0))
_MASS_BLOCKS = (((0, 0), 2.0), ((1, 1), 2.0), ((0, 1), 1.0), ((1, 0), 1.0))
_EYE = np.eye(3)
# Row and column of the entries of a 3 x 3 block, in row-major order.
_OUTER_ROWS = np.repeat(np.arange(3), 3)
_OUTER_COLS = np.tile(np.arange(3), 3)


def validate_parameters(mu) -> np.ndarray:
    """Check the 16-parameter vector against its componentwise bounds."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (PARAMETER_COUNT,):
        raise ValueError("parameter vector must have %d components" % PARAMETER_COUNT)
    if not np.all(np.isfinite(mu)):
        raise ValueError("parameters must be finite")
    if np.any(mu[:8] < -1.0) or np.any(mu > 1.0):
        raise ValueError("geometry/initial-condition parameters must lie in [-1, 1]")
    for index, dimension in ((2, "width"), (3, "height")):
        if mu[index] == -1.0:
            raise ValueError("section %s parameter mu[%d] must lie in (-1, 1]"
                             % (dimension, index))
    if np.any(mu[8:] < -2.0):
        raise ValueError("force parameters must lie in [-2, 1]")
    return mu


@dataclass(frozen=True)
class ForcingConfig:
    """Experiment-level forcing data shared across parameter points.

    ``omega0`` is the fundamental frequency of the nominal structure and
    sets the scale of the force frequencies; load onset is at a quarter of
    ``final_time``.
    """

    nominal_amplitudes: tuple
    omega0: float
    final_time: float = 25.0


def _element_nodes(bays) -> np.ndarray:
    """Node pairs of the bars, shape (elements, 2), bay by bay."""
    pairs = []
    for bay in range(1, bays + 1):
        lo, hi = 4 * (bay - 1), 4 * bay
        for c in range(4):                       # longitudinal chords
            pairs.append((lo + c, hi + c))
        for c1, c2 in _SIDE_FACES:               # end-face perimeter
            pairs.append((hi + c1, hi + c2))
        for c1, c2 in _SIDE_FACES:               # crossing diagonals
            pairs.append((lo + c1, hi + c2))
            pairs.append((lo + c2, hi + c1))
    return np.array(pairs, dtype=int)


def _element_dofs(elements, dof_count) -> np.ndarray:
    """Nodal dofs of both element ends, shape (2, elements, 3); clamped
    (section-0) nodes map to the pad index ``dof_count``."""
    nodes = elements.T[:, :, None]
    return np.where(nodes < 4, dof_count, 3 * (nodes - 4) + np.arange(3))


@functools.lru_cache(maxsize=BAY_CACHE_SIZE)
def _bay_elements(bays):
    """``(element nodes, element dofs, half-bandwidth)`` of a bay count,
    the arrays read-only: every model of the bay count shares them."""
    dof_count = 12 * bays
    nodes = _element_nodes(bays)
    el_dofs = _element_dofs(nodes, dof_count)
    # Largest |i - j| over the free dofs i, j of one element: the
    # half-bandwidth of every assembled matrix (23 for two or more bays).
    free = np.concatenate(el_dofs, axis=1)
    clamped = free == dof_count
    half = int(np.max(np.where(clamped, -1, free).max(axis=1)
                      - np.where(clamped, dof_count, free).min(axis=1)))
    nodes.flags.writeable = el_dofs.flags.writeable = False
    return nodes, el_dofs, half


def _incident_elements(el_dofs, dofs, dof_count) -> np.ndarray:
    """Ascending indices of the elements with a nodal dof among ``dofs``."""
    marked = np.zeros(dof_count + 1, dtype=bool)
    marked[dofs] = True
    return np.flatnonzero(marked[el_dofs].any(axis=(0, 2)))


class _Recent:
    """The last two results of a function of one array, keyed by the
    array's bytes: a Newton iterate and its trial point, so a linesearch
    that returns to the iterate, or accepts the trial, evaluates neither
    again.  A hit returns the kept arrays themselves; callers do not write
    into them."""

    def __init__(self):
        self._entries = ()   # ((key, value), ...), newest first

    def get(self, x, compute):
        key = x.tobytes()
        for kept, value in self._entries:
            if kept == key:
                return value
        value = compute()
        self._entries = ((key, value),) + self._entries[:1]
        return value


def _positions(index, size) -> np.ndarray:
    """Position of every dof in ``index``; -1 for dofs not in it."""
    pos = np.full(size, -1)
    pos[index] = np.arange(index.size)
    return pos


class _Scatter:
    """A weighted sum of element values into an output, as one sparse product.

    ``dst`` has one leading axis per weight and then the shape of the
    values; the term at ``(b, *i)`` adds ``weights[b] * values[i]`` to the
    flat output entry ``dst[b, *i]``, or nowhere where that is negative.
    The operator is a CSR matrix (``indptr``, ``indices``, ``data``) whose
    rows list their terms in the order a sequential scatter visits them (a
    stable sort by destination), so every entry sums the same terms in the
    same order; products with weights of +-1 are exact.  scipy's
    ``csr_matvec`` kernel forms the product straight from these arrays.

    A vector or band output (``every_slot``) has one operator row per
    output entry, so the product is the output.  A dense matrix output has
    one row per entry that receives a term, at the flat positions ``dest``:
    one row per entry would give a full N x N assembly N^2 rows.
    """

    def __init__(self, dst, weights, shape, every_slot):
        dst = dst.reshape(len(weights), -1)
        self.n_values = dst.shape[1]
        src = np.flatnonzero(dst.ravel() >= 0)
        src = src[np.argsort(dst.ravel()[src], kind="stable")]
        targets = dst.ravel()[src]
        if every_slot:
            self.dest = None
            self.indptr = np.searchsorted(targets, np.arange(np.prod(shape) + 1))
        else:
            self.dest, starts = np.unique(targets, return_index=True)
            self.indptr = np.append(starts, src.size)
        self.indices = src % self.n_values
        self.data = np.asarray(weights, dtype=float)[src // self.n_values]
        self.shape = shape

    def __call__(self, values) -> np.ndarray:
        values = values.reshape(-1)
        if values.size != self.n_values:
            raise ValueError("scatter takes %d values, got %d"
                             % (self.n_values, values.size))
        out = np.zeros(self.shape)
        sums = out.reshape(-1) if self.dest is None else np.zeros(self.dest.size)
        csr_matvec(sums.size, self.n_values, self.indptr, self.indices,
                   self.data, values, sums)
        if self.dest is not None:
            out.reshape(-1)[self.dest] = sums
        return out


class PlanTopology:
    """What an :class:`AssemblyPlan` over ``rows`` (vectors) or
    ``rows x cols`` (matrices) knows independently of the parameters.

    ``elements`` are the bars incident to the rows, ascending.  Their nodal
    displacements are gathered (``gather1``/``gather2``, the first and
    second node, each of shape (elements, 3)) from a compact source vector:
    the displacement at ``dofs`` followed by a zero slot for clamped dofs.
    A scatter is the full assembly's scatter filtered, in its order, to the
    entries that land in the output, so each output entry sums the same
    terms in the same order as in the full assembly.
    """

    def __init__(self, el_dofs, dof_count, rows, cols):
        self.dof_count = dof_count
        self.elements = _incident_elements(el_dofs, rows, dof_count)
        self._local = el_dofs[:, self.elements]
        self.dofs = np.unique(self._local[self._local < dof_count])
        self.source_pos = np.full(dof_count + 1, self.dofs.size)
        self.source_pos[self.dofs] = np.arange(self.dofs.size)
        self.gather1, self.gather2 = np.ascontiguousarray(
            self.source_pos[self._local])
        self.shape = (rows.size, cols.size)
        self._row_pos = _positions(rows, dof_count + 1)
        self._col_pos = _positions(cols, dof_count + 1)
        # Nodal forces (elements, 3): plus at the second node, then minus at
        # the first.
        self.vector = _Scatter(self._row_pos[self._local[::-1]], (1.0, -1.0),
                               self.shape[:1], every_slot=True)
        self._matrix = {}

    def matrix(self, blocks, half=None) -> _Scatter:
        """Scatter of element blocks into rows x cols; cached.

        The blocks come component-major, (3, 3, elements), as
        :meth:`AssemblyPlan.element_stiffness` forms them.  A dof is one
        component of one node, so the terms that one weight adds to one
        entry share their components and differ in the element only: the
        scatter's stable sort still visits them in element order.

        ``blocks`` lists ``((row end, column end), weight)`` pairs.  With
        ``half`` given the output is LAPACK band storage of that upper and
        lower half-bandwidth, entry ``(i, j)`` at ``[half + i - j, j]``: the
        dense scatter with its destinations moved, so every band entry sums
        the same terms in the same order.
        """
        key = (blocks, half)
        if key not in self._matrix:
            ends = np.array([end for end, _ in blocks])
            # (blocks, 3, elements) -> (blocks, 3, 3, elements)
            row = self._row_pos[self._local[ends[:, 0]]].transpose(0, 2, 1)
            col = self._col_pos[self._local[ends[:, 1]]].transpose(0, 2, 1)
            row, col = row[:, :, None, :], col[:, None, :, :]
            kept = (row >= 0) & (col >= 0)
            if half is None:
                dst, shape = row * self.shape[1] + col, self.shape
            else:
                if np.any(kept & (np.abs(row - col) > half)):
                    raise ValueError("entries outside half-bandwidth %d" % half)
                dst = (half + row - col) * self.shape[1] + col
                shape = (2 * half + 1, self.shape[1])
            self._matrix[key] = _Scatter(np.where(kept, dst, -1),
                                         [weight for _, weight in blocks], shape,
                                         every_slot=half is not None)
        return self._matrix[key]


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan_topology(bays, rows_key, cols_key) -> PlanTopology:
    """The topology of the plan over the dofs in ``rows_key`` x ``cols_key``
    (``tobytes`` of integer arrays; ``None`` means all dofs).

    Kept across models: it depends on the bay count and the index sets
    only, and every query builds a fresh model.
    """
    dof_count = 12 * bays
    rows, cols = (np.arange(dof_count) if key is None
                  else np.frombuffer(key, dtype=int) for key in (rows_key, cols_key))
    return PlanTopology(_bay_elements(bays)[1], dof_count, rows, cols)


class AssemblyPlan:
    """The full assembly restricted to a :class:`PlanTopology`'s output,
    with the element constants of one model: gather -> element kernel ->
    one sparse product.

    The plan keeps its last two strain evaluations and returns one for a
    source with the same bytes (:meth:`strain`), so a Newton iterate's
    Jacobian reuses the strains of its residual, and a residual those of a
    merit evaluation at the same point.  The kept arrays are read-only.
    """

    def __init__(self, topology, model):
        self.topology = topology
        self._strains = _Recent()
        els = topology.elements
        self.vec = model.el_vec[els]
        self.length_sq = model.el_length_sq[els]
        self.two_length_sq = 2.0 * self.length_sq
        self.collapse_sq = (COLLAPSE_RTOL**2) * self.length_sq
        self.ea_over_l = model.ea_over_l[els]
        self.eal = model.el_eal[els]
        self.mass_coeff = model.el_mass_coeff[els]

    def dense_source(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        topology = self.topology
        if q.shape != (topology.dof_count,):
            raise ValueError("configuration must have %d entries"
                             % topology.dof_count)
        source = np.empty(topology.dofs.size + 1)
        # One pass into the source; "clip" (the indices are in range) does
        # not buffer the output as "raise" does.
        q.take(topology.dofs, out=source[:-1], mode="clip")
        source[-1] = 0.0
        return source

    def sparse_source(self, dq_idx, dq_val) -> np.ndarray:
        """Source for a displacement that is zero off the dofs ``dq_idx``."""
        source = np.zeros(self.topology.dofs.size + 1)
        source[self.topology.source_pos[np.asarray(dq_idx, dtype=int)]] = dq_val
        source[-1] = 0.0   # dofs outside the plan landed in the zero slot
        return source

    def strain(self, source):
        """Deformed edge vectors and Green--Lagrange strains; a kept result
        is returned again for a source with the same bytes."""
        return self._strains.get(source, lambda: self.deformation(
            source.take(self.topology.gather2)
            - source.take(self.topology.gather1)))

    def deformation(self, du):
        """Deformed edge vectors and Green--Lagrange strains of the plan's
        elements under the nodal displacement differences ``du``
        (elements, 3), second node minus first, or of displacements
        stacked along leading axes (..., elements, 3)."""
        # The squared-length difference is expanded analytically
        # (2 x.du + du.du); the naive |x+du|^2 - L^2 form loses ~8 digits to
        # cancellation at working strain levels.
        d = self.vec + du
        stretch = (2.0 * np.einsum("...ij,...ij->...i", self.vec, du)
                   + np.einsum("...ij,...ij->...i", du, du))
        if (self.length_sq + stretch < self.collapse_sq).any():
            raise FloatingPointError("bar element length collapse")
        strain = stretch / self.two_length_sq
        d.flags.writeable = strain.flags.writeable = False
        return d, strain

    def strain_energy(self, strain):
        """Energy of the strains (elements,), or the energies of strains
        stacked along leading axes."""
        energy = np.sum(0.5 * self.eal * strain**2, axis=-1)
        return float(energy) if energy.ndim == 0 else energy

    def energy(self, source) -> float:
        _, strain = self.strain(source)
        return self.strain_energy(strain)

    def force(self, source) -> np.ndarray:
        d, strain = self.strain(source)
        return self.topology.vector((self.ea_over_l * strain)[:, None] * d)

    def element_stiffness(self, d, strain) -> np.ndarray:
        """The second-node blocks ``k22 = EA/L (strain I + d d^T / L^2)``
        of the deformation ``(d, strain)``, component-major: (3, 3,
        elements).  One buffer takes the outer product, the division by
        L^2, the strain on the diagonal and the factor EA/L in turn, each
        a loop over the elements.  Off the diagonal this skips adding
        ``strain * 0``, which can change only the sign of an exact zero;
        every scatter sum starts at +0 and so assembles the same bits."""
        d = d.T
        k = d.take(_OUTER_ROWS, axis=0)
        k *= d.take(_OUTER_COLS, axis=0)
        k /= self.length_sq
        k[::4] += strain
        k *= self.ea_over_l
        return k.reshape(3, 3, -1)

    def stiffness(self, source, half=None) -> np.ndarray:
        return self.topology.matrix(_STIFFNESS_BLOCKS, half)(
            self.element_stiffness(*self.strain(source)))

    def mass(self, half=None) -> np.ndarray:
        return self.topology.matrix(_MASS_BLOCKS, half)(
            _EYE[:, :, None] * self.mass_coeff)


class ReducedElementKernel:
    """The potential under the displacement ``Z q_r`` as a function of the
    reduced coordinates ``q_r``, with its gradient and Hessian in them.

    ``Z`` is the (N, n) map that is ``factor`` on ``rows`` and zero
    elsewhere.  Only the elements incident to ``rows`` (the plan's) leave
    rest under ``Z``; the others carry no energy, force or stiffness.  Each
    element's displacement difference is ``D_e q_r`` with the reduced map
    ``D_e = Z[second-node dofs] - Z[first-node dofs]`` (3, n), built once,
    so an energy or gradient evaluation is one product with ``D`` and one
    strain evaluation: no N- or m-vector, scatter or plan lookup.  Like
    the plan, the kernel keeps its last two strain evaluations, keyed by
    the bytes of ``q_r``, so the Hessian at a Newton iterate reuses the
    gradient's.

    The Hessian's exact form follows from the map.  With ``rows`` None
    (every dof, ``plan`` the full plan) it is the element sum
    ``sum_e (EA/L strain)_e D_e^T D_e + G^T diag(EA/L^3) G`` with the rows
    ``G_e = d_e^T D_e``, keeping one flattened ``D_e^T D_e`` per element.
    On given ``rows`` (``plan`` the plan over ``rows`` x ``rows``) it is
    the congruence ``factor^T K_rows factor`` of the stiffness block that
    the plan's scatter assembles from its element blocks.
    """

    def __init__(self, plan, rows, factor):
        self.plan, self.factor = plan, factor
        # Z on the plan's compact source (a zero row for clamped dofs), then
        # D_e (elements, 3, n), also flattened to (3 E, n).
        source_pos = plan.topology.source_pos
        z = np.zeros((plan.topology.dofs.size + 1, factor.shape[1]))
        z[source_pos[:-1] if rows is None else source_pos[rows]] = factor
        self._maps = z[plan.topology.gather2] - z[plan.topology.gather1]
        self._flat = self._maps.reshape(-1, factor.shape[1])
        self._strains = _Recent()
        if rows is None:
            self._block = None
            self._gram = np.einsum("eki,ekj->eij", self._maps,
                                   self._maps).reshape(len(self._maps), -1)
            self._ea_over_l3 = plan.ea_over_l / plan.length_sq
        else:
            self._block = plan.topology.matrix(_STIFFNESS_BLOCKS)

    def _deformation(self, q_r):
        q_r = np.asarray(q_r, dtype=float)
        return self._strains.get(q_r, lambda: self.plan.deformation(
            (self._flat @ q_r).reshape(-1, 3)))

    def energy(self, q_r):
        """``V(Z q_r)``; for coordinates stacked in rows (T, n), the (T,)
        energies from one product with ``D``."""
        q_r = np.asarray(q_r, dtype=float)
        if q_r.ndim == 1:
            _, strain = self._deformation(q_r)
        else:
            _, strain = self.plan.deformation(
                (q_r @ self._flat.T).reshape(len(q_r), -1, 3))
        return self.plan.strain_energy(strain)

    def gradient(self, q_r) -> np.ndarray:
        """``Z^T grad V(Z q_r)``; exactly zero at ``q_r = 0``."""
        d, strain = self._deformation(q_r)
        tension = (self.plan.ea_over_l * strain)[:, None] * d
        return self._flat.T @ tension.reshape(-1)

    def hessian(self, q_r) -> np.ndarray:
        """``Z^T K(Z q_r) Z`` in the form of the kernel's map."""
        d, strain = self._deformation(q_r)
        if self._block is not None:
            k_rows = self._block(self.plan.element_stiffness(d, strain))
            return self.factor.T @ (k_rows @ self.factor)
        n = self.factor.shape[1]
        g = np.einsum("eki,ek->ei", self._maps, d)
        return (((self.plan.ea_over_l * strain) @ self._gram).reshape(n, n)
                + g.T @ (self._ea_over_l3[:, None] * g))


class TrussModel:
    """Assembled truss at one parameter value.

    Construction is O(N).  Evaluators are pure in their arguments; each
    builds its :class:`AssemblyPlan` on first use and the model caches it
    by index set, so repeated queries on one sample set reuse it.  The
    plan's topology and the element arrays come from caches shared by all
    models of the bay count.  The mass band and the at-rest stiffness band
    K(0) are assembled once per model; K(0) is factored once for the
    initial condition, which releases the factor when it is done.
    """

    def __init__(self, bays: int, mu):
        if not (isinstance(bays, numbers.Integral) and bays >= 1):
            raise ValueError("need an integral bay count of at least 1: %r" % bays)
        self.bays = int(bays)
        self.mu = validate_parameters(mu)

        self.total_length = 200.0 + 50.0 * self.mu[0]
        self.area = 0.0025 * (1.0 + 0.5 * self.mu[1])
        self.width = 10.0 * (1.0 + self.mu[2])
        self.height = 10.0 * (1.0 + self.mu[3])
        self.density = DENSITY
        self.modulus = ELASTIC_MODULUS

        self._build_geometry()
        self._build_elements()
        self._plans = {}
        self._mass_band = None
        self._rest_stiffness = None

    # -- geometry -----------------------------------------------------------

    def _build_geometry(self):
        bays = self.bays
        pitch = self.total_length / bays
        # Node 4 * section + corner sits at (pitch * section, wy * width,
        # wz * height) for the corner's (wy, wz).
        corners = np.array(_CORNERS)
        coords = np.empty((4 * (bays + 1), 3))
        coords[:, 0] = pitch * np.repeat(np.arange(bays + 1), 4)
        coords[:, 1] = np.tile(corners[:, 0] * self.width, bays + 1)
        coords[:, 2] = np.tile(corners[:, 1] * self.height, bays + 1)
        self.node_coords = coords
        self.dof_count = 12 * bays
        # Section-0 nodes are clamped; free dofs are numbered from section 1,
        # three per node.  Quantity of interest: y-displacement of the
        # end-face corner 0 (node 4 * bays).
        self.tip_dof = 3 * (4 * bays - 4) + 1
        # Unit nodal loads along the four corner chord lines (load_patterns).
        sections = np.arange(1, bays + 1)
        self._patterns = np.zeros((4, self.dof_count))
        for group, axis in enumerate(_LOAD_AXES):
            self._patterns[group, 3 * (4 * sections + group - 4) + axis] = 1.0

    def _build_elements(self):
        self.elements, self.el_dofs, self.half_bandwidth = _bay_elements(
            self.bays)
        self.el_vec = (self.node_coords[self.elements[:, 1]]
                       - self.node_coords[self.elements[:, 0]])
        # Squared lengths use the same contraction as the strain kernel so
        # the undeformed state has exactly zero strain.
        self.el_length_sq = np.einsum("ij,ij->i", self.el_vec, self.el_vec)
        self.el_length = np.sqrt(self.el_length_sq)
        self.ea_over_l = self.modulus * self.area / self.el_length
        self.el_eal = self.modulus * self.area * self.el_length
        self.el_mass_coeff = self.density * self.area * self.el_length / 6.0

    def elements_for_dofs(self, dofs) -> np.ndarray:
        """Ascending indices of elements incident to any of the given dofs."""
        return _incident_elements(self.el_dofs, np.asarray(dofs, dtype=int),
                                  self.dof_count)

    def dofs_needed_for_rows(self, rows) -> np.ndarray:
        """All dofs entering the element computations behind the given rows."""
        return self._plan(rows).topology.dofs.copy()

    def _plan(self, rows=None, cols=None) -> AssemblyPlan:
        """The plan over ``rows`` x ``cols``; ``None`` means all dofs.

        Plans are kept for the model's lifetime, one per distinct index set.
        """
        key = tuple(None if ix is None else np.asarray(ix, dtype=int).tobytes()
                    for ix in (rows, cols))
        if key not in self._plans:
            self._plans[key] = AssemblyPlan(_plan_topology(self.bays, *key), self)
        return self._plans[key]

    # -- potential energy and derivatives --------------------------------------

    def potential_energy(self, q):
        """``V(q)``; for configurations stacked in rows (T, N), the (T,)
        energies from one gather and one strain evaluation."""
        plan = self._plan()
        q = np.asarray(q, dtype=float)
        if q.ndim == 1:
            return plan.energy(plan.dense_source(q))
        topology = plan.topology
        if q.ndim != 2 or q.shape[1] != self.dof_count:
            raise ValueError("configurations must have %d entries"
                             % self.dof_count)
        source = np.zeros((len(q), topology.dofs.size + 1))
        source[:, :-1] = q[:, topology.dofs]
        _, strain = plan.deformation(source[:, topology.gather2]
                                     - source[:, topology.gather1])
        return plan.strain_energy(strain)

    def potential_energy_sparse(self, dq_idx, dq_val) -> float:
        """Exact potential at equilibrium plus a sparse displacement.

        Elements not touching the displaced dofs stay at rest and carry
        zero energy, so only incident elements are evaluated.
        """
        plan = self._plan(dq_idx)
        return plan.energy(plan.sparse_source(dq_idx, dq_val))

    def potential_kernel(self, rows, factor) -> ReducedElementKernel:
        """The potential, gradient and Hessian in reduced coordinates under
        the map that is ``factor`` (len(rows), n) on ``rows``: with ``rows``
        None, every dof on the full plan and the Hessian's element sum;
        otherwise the plan over ``rows`` x ``rows`` and the congruence of
        its stiffness block (:class:`ReducedElementKernel`)."""
        if rows is None:
            return ReducedElementKernel(self._plan(), None, factor)
        rows = np.asarray(rows, int)
        return ReducedElementKernel(self._plan(rows, rows), rows, factor)

    def internal_force(self, q) -> np.ndarray:
        """Potential gradient at configuration ``q``."""
        plan = self._plan()
        return plan.force(plan.dense_source(q))

    def internal_force_rows(self, rows, dq_idx, dq_val) -> np.ndarray:
        """Selected gradient entries at equilibrium plus a sparse displacement."""
        plan = self._plan(rows)
        return plan.force(plan.sparse_source(dq_idx, dq_val))

    def internal_force_rows_dense(self, rows, q) -> np.ndarray:
        """Selected gradient entries at a dense configuration."""
        plan = self._plan(rows)
        return plan.force(plan.dense_source(q))

    def tangent_stiffness(self, q) -> np.ndarray:
        """Potential Hessian at ``q`` (dense, exactly symmetric)."""
        plan = self._plan()
        return plan.stiffness(plan.dense_source(q))

    def tangent_stiffness_band(self, q) -> SymmetricBand:
        """Potential Hessian at ``q`` with half-bandwidth ``half_bandwidth``;
        every entry equals the one of ``tangent_stiffness(q)``.

        The at-rest band (``q`` all zero) is kept for the model's lifetime,
        so Rayleigh damping, the structure-preserving build and the first
        Newton step of every static solve share one assembly and one LU.
        """
        plan = self._plan()
        source = plan.dense_source(q)
        at_rest = not source.any()
        if at_rest and self._rest_stiffness is not None:
            return self._rest_stiffness
        band = SymmetricBand(plan.stiffness(source, self.half_bandwidth))
        if at_rest:
            self._rest_stiffness = band
        return band

    def tangent_stiffness_block(self, rows, cols, dq_idx, dq_val) -> np.ndarray:
        """Selected Hessian block at equilibrium plus a sparse displacement."""
        plan = self._plan(rows, cols)
        return plan.stiffness(plan.sparse_source(dq_idx, dq_val))

    def tangent_stiffness_rows_dense(self, rows, q) -> np.ndarray:
        """Selected Hessian rows (dense columns) at a dense configuration."""
        plan = self._plan(rows)
        return plan.stiffness(plan.dense_source(q))

    # -- mass -----------------------------------------------------------------

    def mass_band(self) -> SymmetricBand:
        """Consistent mass on the free dofs (SPD), kept for the model's
        lifetime; every entry equals the one of ``mass_dense()``."""
        if self._mass_band is None:
            self._mass_band = SymmetricBand(
                self._plan().mass(self.half_bandwidth))
        return self._mass_band

    def mass_dense(self) -> np.ndarray:
        """The consistent mass as a dense N x N array (assembled per call)."""
        return self._plan().mass()

    def mass_matrix(self) -> scipy.sparse.csr_array:
        """Consistent mass on the free dofs (SPD)."""
        return self.mass_band().sparse.tocsr()

    def mass_entries(self, rows, cols) -> np.ndarray:
        """Selected mass entries from element contributions only."""
        return self._plan(rows, cols).mass()

    # -- forcing and initial condition -----------------------------------------

    def load_patterns(self) -> np.ndarray:
        """Unit nodal loads distributed along the four corner chord lines.

        Every free node of chord line i carries a unit load along that
        line's axis (``_LOAD_AXES``), so the total applied force scales
        with the bay count (the force magnitudes are per-node amplitudes).
        """
        return self._patterns

    def force_components(self, t: float, forcing: ForcingConfig) -> np.ndarray:
        """The four load-group magnitudes at time ``t``: the external force
        is ``force_components(t) @ load_patterns()``, zero before onset."""
        onset = forcing.final_time / 4.0
        if t < onset:
            return np.zeros(4)
        amplitudes = np.asarray(forcing.nominal_amplitudes, dtype=float) \
            * (1.0 + 0.5 * self.mu[8:12])
        freqs = 3.0 * forcing.omega0 * (1.0 + 0.5 * self.mu[12:16])
        return amplitudes * np.sin(freqs * (t - onset))

    def external_force(self, t: float, forcing: ForcingConfig) -> np.ndarray:
        comps = self.force_components(t, forcing)
        return comps @ self._patterns

    def external_force_rows(self, rows, t: float, forcing: ForcingConfig) -> np.ndarray:
        comps = self.force_components(t, forcing)
        return comps @ self._patterns[:, np.asarray(rows, dtype=int)]

    def initial_displacement(self, forcing: ForcingConfig) -> np.ndarray:
        """Superposed scaled static deflections under the nominal loads."""
        q = np.zeros(self.dof_count)
        for group in range(4):
            scale = 1.0 + 0.5 * self.mu[4 + group]
            amplitude = float(forcing.nominal_amplitudes[group])
            if scale == 0.0 or amplitude == 0.0:
                continue
            load = amplitude * self._patterns[group]
            q += scale * self.static_displacement(load)
        # Only these static solves factor K(0); keep the band, which
        # Rayleigh damping and the SP build read, and drop its LU.
        if self._rest_stiffness is not None:
            self._rest_stiffness.release_factor()
        return q

    def static_displacement(self, load) -> np.ndarray:
        """Solve the nonlinear static problem grad V(q) = load.

        Newton minimization of the total potential V(q) - load.q, which the
        quartic bar energy makes coercive, so a minimizer (a stable
        equilibrium) always exists.  Adaptive load continuation: slender
        parameter draws put the zero configuration far outside the
        full-load basin, so the load is ramped in as large increments as
        Newton tolerates.
        """
        load = np.asarray(load, dtype=float)
        settings = NewtonSettings(max_iters=IC_MAX_ITERS)
        q = np.zeros(self.dof_count)
        applied, increment = 0.0, 1.0
        while applied < 1.0:
            level = min(1.0, applied + increment)
            target = level * load
            result = newton(
                lambda x: self.internal_force(x) - target,
                self.tangent_stiffness_band, q, settings,
                reference_norm=np.linalg.norm(target),
                merit=lambda x: self.potential_energy(x) - float(target @ x))
            if result.converged:
                q, applied = result.x, level
                increment = min(2.0 * increment, 1.0)
            else:
                increment *= 0.5
                if increment < 1.0 / 4096.0:
                    raise RuntimeError(
                        "static Newton solve diverged at load fraction %.6g: "
                        "last increment ended with %r" % (applied, result.reason))
        return q

    def tip_displacement(self, q) -> float:
        """Reported quantity of interest: end-face corner-0 y-displacement."""
        return float(np.asarray(q)[self.tip_dof])


def build_truss(bays: int, mu) -> TrussModel:
    """Construct the parameterized truss model."""
    return TrussModel(bays, mu)


def fundamental_frequency(model: TrussModel) -> float:
    """Smallest frequency of the undeformed structure's (M, K0) pencil."""
    k0 = model.tangent_stiffness(np.zeros(model.dof_count))
    lam = scipy.linalg.eigh(k0, model.mass_dense(), eigvals_only=True,
                            subset_by_index=[0, 0])
    return float(np.sqrt(max(lam[0], 0.0)))


def rayleigh_coefficients(mass, stiffness, zeta):
    """Mass/stiffness damping weights hitting the target modal ratio.

    Fits the damping ratio at the two smallest distinct pencil frequencies.
    Symmetric cross-sections make the lowest bending pair exactly
    degenerate, so equal-to-round-off frequencies are collapsed before the
    two-by-two solve; if no second distinct frequency exists the system is
    singular and an error is raised.
    """
    if zeta < 0:
        raise ValueError("damping ratio must be nonnegative")
    if zeta == 0.0:
        return 0.0, 0.0
    count = min(10, np.shape(stiffness)[0])
    lam = scipy.linalg.eigh(stiffness, mass, eigvals_only=True,
                            subset_by_index=[0, count - 1])
    freqs = np.sqrt(np.clip(lam, 0.0, None))
    w1 = freqs[0]
    w2 = next((w for w in freqs[1:] if w > w1 * (1.0 + DISTINCT_RTOL)), None)
    if w1 <= 0.0 or w2 is None:
        raise ValueError("degenerate smallest pencil frequencies; "
                         "cannot fit Rayleigh coefficients")
    system = np.array([[0.5 / w1, 0.5 * w1],
                       [0.5 / w2, 0.5 * w2]])
    alpha, beta = np.linalg.solve(system, np.array([zeta, zeta]))
    return float(alpha), float(beta)


def damping_band(model: TrussModel, alpha: float, beta: float) -> SymmetricBand:
    """Rayleigh damping ``alpha M + beta K(0)`` with fixed coefficients."""
    mass = model.mass_band()
    if alpha == 0.0 and beta == 0.0:
        return SymmetricBand(np.zeros_like(mass.ab))
    k0 = model.tangent_stiffness_band(np.zeros(model.dof_count))
    return alpha * mass + beta * k0

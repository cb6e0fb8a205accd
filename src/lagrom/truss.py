"""Parameterized geometrically nonlinear truss: the full-order model.

A clamped--free prismatic lattice of three-dimensional bar elements with
Green--Lagrange strain and a quadratic (St. Venant--Kirchhoff) bar energy,
consistent mass, Rayleigh damping, and parameterized geometry, initial
condition, and forcing.  Sixteen parameters in the unit box control the
model; the force amplitude/frequency entries additionally admit the value
-2, which switches the corresponding load component off.

Bay topology: each bay carries 4 longitudinal chords, 4 perimeter bars in
its end cross-section, and 8 side-face diagonals (16 bars, 12 free degrees
of freedom per bay).  The clamped end face carries no degrees of freedom.

Every operator is one gather -> element kernel -> ``np.add.at`` scatter
through an :class:`AssemblyPlan`.  The full assembly is the plan over all
dofs; the sampled evaluators (selected rows/entries, sparse displacement
arguments) use plans over their index sets, whose scatters are the full
scatter filtered in its own order, so both agree bit for bit by
construction.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

DENSITY = 2700.0          # kg/m^3 (aluminum)
ELASTIC_MODULUS = 62.0e9  # Pa

# Deformed bar shorter than this fraction of its rest length is an error.
COLLAPSE_RTOL = 1e-9

# Corner order within a cross-section: counterclockwise from bottom-left
# in the (width, height) plane.  Corner 0 is the "bottom-left" chord whose
# end-face y-displacement is the reported quantity of interest.
_CORNERS = ((-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5))

# Side faces of a bay as corner pairs; each carries two crossing diagonals.
_SIDE_FACES = ((0, 1), (1, 2), (2, 3), (3, 0))

# Element-matrix node blocks (row end, column end) in the order each full
# matrix scatter visits them; 0 is an element's first node, 1 its second.
# Reordering either changes the summation order, and with it the last bits
# of the assembled matrix.
_STIFFNESS_BLOCKS = ((1, 1), (0, 0), (1, 0), (0, 1))
_MASS_BLOCKS = ((0, 0), (1, 1), (0, 1), (1, 0))


def validate_parameters(mu) -> np.ndarray:
    """Check the 16-parameter vector against its componentwise bounds."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (16,):
        raise ValueError("parameter vector must have 16 components")
    if not np.all(np.isfinite(mu)):
        raise ValueError("parameters must be finite")
    if np.any(mu[:8] < -1.0) or np.any(mu > 1.0):
        raise ValueError("geometry/initial-condition parameters must lie in [-1, 1]")
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
    directions: tuple = (1, 1, 2, 2)  # dof axis loaded per corner group


def _incident_elements(el_dofs, dofs, dof_count) -> np.ndarray:
    """Ascending indices of the elements with a nodal dof among ``dofs``."""
    marked = np.zeros(dof_count + 1, dtype=bool)
    marked[dofs] = True
    return np.flatnonzero(marked[el_dofs].any(axis=(0, 2)))


def _positions(index, size) -> np.ndarray:
    """Position of every dof in ``index``; -1 for dofs not in it."""
    pos = np.full(size, -1)
    pos[index] = np.arange(index.size)
    return pos


def _kept(dst):
    """Entries of a scatter, in order, whose destination is in the output."""
    keep = dst.ravel() >= 0
    return np.flatnonzero(keep), dst.ravel()[keep]


class AssemblyPlan:
    """The full assembly restricted to ``rows`` (vectors) or ``rows x cols``.

    ``elements`` are the bars incident to the rows, ascending.  Their nodal
    displacements are gathered (``gather``, shape (2, elements, 3)) from a
    compact source vector: the displacement at ``dofs`` followed by a zero
    slot for clamped dofs.  A scatter is the full assembly's scatter
    filtered, in its order, to the entries that land in the output, so each
    output entry sums the same terms in the same order as in the full
    assembly.
    """

    def __init__(self, el_dofs, dof_count, rows, cols):
        self.dof_count = dof_count
        self.elements = _incident_elements(el_dofs, rows, dof_count)
        self._local = el_dofs[:, self.elements]
        self.dofs = np.unique(self._local[self._local < dof_count])
        self._source_pos = np.full(dof_count + 1, self.dofs.size)
        self._source_pos[self.dofs] = np.arange(self.dofs.size)
        self.gather = self._source_pos[self._local]
        self.shape = (rows.size, cols.size)
        self._row_pos = _positions(rows, dof_count + 1)
        self._col_pos = _positions(cols, dof_count + 1)
        # The force scatter adds every element's second-node entries, then
        # its first-node entries.
        self._vector = _kept(self._row_pos[self._local[::-1]])
        self._matrix = {}

    def dense_source(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.shape != (self.dof_count,):
            raise ValueError("configuration must have %d entries" % self.dof_count)
        return np.append(q[self.dofs], 0.0)

    def sparse_source(self, dq_idx, dq_val) -> np.ndarray:
        """Source for a displacement that is zero off the dofs ``dq_idx``."""
        source = np.zeros(self.dofs.size + 1)
        source[self._source_pos[np.asarray(dq_idx, dtype=int)]] = dq_val
        source[-1] = 0.0   # dofs outside the plan landed in the zero slot
        return source

    def scatter_vector(self, values) -> np.ndarray:
        """Sum nodal values (2, elements, 3), second node first, into rows."""
        src, dst = self._vector
        out = np.zeros(self.shape[0])
        np.add.at(out, dst, values.ravel()[src])
        return out

    def _matrix_scatter(self, blocks, half):
        """``(src, dst)`` of the filtered scatter, dense or banded; cached."""
        key = (blocks, half)
        if key not in self._matrix:
            if half is None:
                ends = np.array(blocks)
                row = self._row_pos[self._local[ends[:, 0]]][..., :, None]
                col = self._col_pos[self._local[ends[:, 1]]][..., None, :]
                self._matrix[key] = _kept(np.where(
                    (row >= 0) & (col >= 0), row * self.shape[1] + col, -1))
            else:
                src, dst = self._matrix_scatter(blocks, None)
                row, col = np.divmod(dst, self.shape[1])
                if np.any(np.abs(row - col) > half):
                    raise ValueError("entries outside half-bandwidth %d" % half)
                self._matrix[key] = src, (half + row - col) * self.shape[1] + col
        return self._matrix[key]

    def scatter_matrix(self, blocks, values, half=None) -> np.ndarray:
        """Sum element blocks (len(blocks), elements, 3, 3) into rows x cols.

        With ``half`` given the output is LAPACK band storage of that upper
        and lower half-bandwidth, entry ``(i, j)`` at ``[half + i - j, j]``.
        The band scatter is the dense one with its destinations moved, so
        every band entry sums the same terms in the same order.
        """
        src, dst = self._matrix_scatter(blocks, half)
        out = np.zeros(self.shape if half is None
                       else (2 * half + 1, self.shape[1]))
        np.add.at(out.ravel(), dst, values.ravel()[src])
        return out


class TrussModel:
    """Assembled truss at one parameter value.

    Construction is O(N).  Evaluators are pure in their arguments; each
    builds its :class:`AssemblyPlan` on first use and the model caches it
    by index set, so repeated queries on one sample set reuse it.
    """

    def __init__(self, bays: int, mu):
        if bays < 1:
            raise ValueError("need at least one bay")
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
        self._pattern_cache = {}
        self._mass_dense = None

    # -- geometry -----------------------------------------------------------

    def _build_geometry(self):
        bays = self.bays
        pitch = self.total_length / bays
        coords = np.empty((4 * (bays + 1), 3))
        for section in range(bays + 1):
            for corner, (wy, wz) in enumerate(_CORNERS):
                coords[4 * section + corner] = (
                    pitch * section, wy * self.width, wz * self.height)
        self.node_coords = coords
        self.dof_count = 12 * bays
        # Section-0 nodes are clamped; free dofs are numbered from section 1.
        # Quantity of interest: y-displacement of the end-face corner 0.
        self.tip_dof = self._dof(4 * bays + 0, 1)

    def _dof(self, node: int, axis: int) -> int:
        """Global dof of a node/axis; clamped dofs map to the zero pad slot."""
        if node < 4:
            return self.dof_count  # pad index, always reads zero
        return 3 * (node - 4) + axis

    def _build_elements(self):
        pairs = []
        for bay in range(1, self.bays + 1):
            lo, hi = 4 * (bay - 1), 4 * bay
            for c in range(4):                       # longitudinal chords
                pairs.append((lo + c, hi + c))
            for c1, c2 in _SIDE_FACES:               # end-face perimeter
                pairs.append((hi + c1, hi + c2))
            for c1, c2 in _SIDE_FACES:               # crossing diagonals
                pairs.append((lo + c1, hi + c2))
                pairs.append((lo + c2, hi + c1))
        self.elements = np.array(pairs, dtype=int)

        self.el_vec = (self.node_coords[self.elements[:, 1]]
                       - self.node_coords[self.elements[:, 0]])
        # Squared lengths use the same contraction as the strain kernel so
        # the undeformed state has exactly zero strain.
        self.el_length_sq = np.einsum("ij,ij->i", self.el_vec, self.el_vec)
        self.el_length = np.sqrt(self.el_length_sq)
        self.ea_over_l = self.modulus * self.area / self.el_length
        self.el_eal = self.modulus * self.area * self.el_length
        self.el_mass_coeff = self.density * self.area * self.el_length / 6.0

        # Nodal dofs of both element ends, shape (2, elements, 3), as in _dof.
        nodes = self.elements.T[:, :, None]
        self.el_dofs = np.where(nodes < 4, self.dof_count,
                                3 * (nodes - 4) + np.arange(3))
        self.el_dof1, self.el_dof2 = self.el_dofs
        # Largest |i - j| over the free dofs i, j of one element: the
        # half-bandwidth of every assembled matrix (23 for two or more bays).
        free = np.concatenate(self.el_dofs, axis=1)
        clamped = free == self.dof_count
        self.half_bandwidth = int(np.max(
            np.where(clamped, -1, free).max(axis=1)
            - np.where(clamped, self.dof_count, free).min(axis=1)))

    def elements_for_dofs(self, dofs) -> np.ndarray:
        """Ascending indices of elements incident to any of the given dofs."""
        return _incident_elements(self.el_dofs, np.asarray(dofs, dtype=int),
                                  self.dof_count)

    def dofs_needed_for_rows(self, rows) -> np.ndarray:
        """All dofs entering the element computations behind the given rows."""
        return self._plan(rows).dofs.copy()

    def _plan(self, rows=None, cols=None) -> AssemblyPlan:
        """The plan over ``rows`` x ``cols``; ``None`` means all dofs.

        Plans are kept for the model's lifetime, one per distinct index set.
        """
        rows, cols = (None if ix is None else np.asarray(ix, dtype=int)
                      for ix in (rows, cols))
        key = tuple(None if ix is None else ix.tobytes() for ix in (rows, cols))
        if key not in self._plans:
            every = np.arange(self.dof_count)
            self._plans[key] = AssemblyPlan(
                self.el_dofs, self.dof_count,
                every if rows is None else rows, every if cols is None else cols)
        return self._plans[key]

    # -- assembly: gather -> element kernel -> scatter -------------------------

    def _element_strain(self, els, u1, u2):
        # Green--Lagrange strain with the squared-length difference expanded
        # analytically (2 x.du + du.du); the naive |x+du|^2 - L^2 form loses
        # ~8 digits to cancellation at working strain levels.
        du = u2 - u1
        d = self.el_vec[els] + du
        length_sq = self.el_length_sq[els]
        stretch = (2.0 * np.einsum("ij,ij->i", self.el_vec[els], du)
                   + np.einsum("ij,ij->i", du, du))
        if np.any(length_sq + stretch < (COLLAPSE_RTOL**2) * length_sq):
            raise FloatingPointError("bar element length collapse")
        strain = stretch / (2.0 * length_sq)
        return d, strain

    def _energy(self, plan, source) -> float:
        _, strain = self._element_strain(plan.elements, *source[plan.gather])
        return float(np.sum(0.5 * self.el_eal[plan.elements] * strain**2))

    def _force(self, plan, source) -> np.ndarray:
        d, strain = self._element_strain(plan.elements, *source[plan.gather])
        f2 = (self.ea_over_l[plan.elements] * strain)[:, None] * d
        return plan.scatter_vector(np.stack([f2, -f2]))

    def _stiffness(self, plan, source, half=None) -> np.ndarray:
        els = plan.elements
        d, strain = self._element_strain(els, *source[plan.gather])
        outer = np.einsum("ik,il->ikl", d, d) / self.el_length_sq[els, None, None]
        k22 = self.ea_over_l[els, None, None] * (strain[:, None, None] * np.eye(3)
                                                 + outer)
        return plan.scatter_matrix(_STIFFNESS_BLOCKS,
                                   np.stack([k22, k22, -k22, -k22]), half)

    def _mass(self, plan) -> np.ndarray:
        coeff = self.el_mass_coeff[plan.elements, None, None]
        return plan.scatter_matrix(_MASS_BLOCKS, np.stack(
            [coeff * (factor * np.eye(3)) for factor in (2.0, 2.0, 1.0, 1.0)]))

    # -- potential energy and derivatives --------------------------------------

    def potential_energy(self, q) -> float:
        plan = self._plan()
        return self._energy(plan, plan.dense_source(q))

    def potential_energy_sparse(self, dq_idx, dq_val) -> float:
        """Exact potential at equilibrium plus a sparse displacement.

        Elements not touching the displaced dofs stay at rest and carry
        zero energy, so only incident elements are evaluated.
        """
        plan = self._plan(dq_idx)
        return self._energy(plan, plan.sparse_source(dq_idx, dq_val))

    def internal_force(self, q) -> np.ndarray:
        """Potential gradient at configuration ``q``."""
        plan = self._plan()
        return self._force(plan, plan.dense_source(q))

    def internal_force_rows(self, rows, dq_idx, dq_val) -> np.ndarray:
        """Selected gradient entries at equilibrium plus a sparse displacement."""
        plan = self._plan(rows)
        return self._force(plan, plan.sparse_source(dq_idx, dq_val))

    def internal_force_rows_dense(self, rows, q) -> np.ndarray:
        """Selected gradient entries at a dense configuration."""
        plan = self._plan(rows)
        return self._force(plan, plan.dense_source(q))

    def tangent_stiffness(self, q) -> np.ndarray:
        """Potential Hessian at ``q`` (dense, exactly symmetric)."""
        plan = self._plan()
        return self._stiffness(plan, plan.dense_source(q))

    def tangent_stiffness_band(self, q) -> np.ndarray:
        """Potential Hessian at ``q`` in LAPACK band storage.

        Shape ``(2 * half_bandwidth + 1, dof_count)``, entry ``(i, j)`` at
        ``[half_bandwidth + i - j, j]``, equal to ``tangent_stiffness(q)[i, j]``.
        """
        plan = self._plan()
        return self._stiffness(plan, plan.dense_source(q), self.half_bandwidth)

    def tangent_stiffness_block(self, rows, cols, dq_idx, dq_val) -> np.ndarray:
        """Selected Hessian block at equilibrium plus a sparse displacement."""
        plan = self._plan(rows, cols)
        return self._stiffness(plan, plan.sparse_source(dq_idx, dq_val))

    def tangent_stiffness_rows_dense(self, rows, q) -> np.ndarray:
        """Selected Hessian rows (dense columns) at a dense configuration."""
        plan = self._plan(rows)
        return self._stiffness(plan, plan.dense_source(q))

    # -- mass -----------------------------------------------------------------

    def mass_dense(self) -> np.ndarray:
        if self._mass_dense is None:
            self._mass_dense = self._mass(self._plan())
        return self._mass_dense

    def mass_matrix(self) -> scipy.sparse.csr_array:
        """Consistent mass on the free dofs (SPD)."""
        return scipy.sparse.csr_array(self.mass_dense())

    def mass_entries(self, rows, cols) -> np.ndarray:
        """Selected mass entries from element contributions only."""
        return self._mass(self._plan(rows, cols))

    # -- forcing and initial condition -----------------------------------------

    def load_patterns(self, directions=(1, 1, 2, 2)) -> np.ndarray:
        """Unit nodal loads distributed along the four corner chord lines.

        Every free node of chord line i carries a unit load along the
        configured axis, so the total applied force scales with the bay
        count (the force magnitudes are per-node amplitudes).
        """
        return self._load_patterns(directions)

    def _load_patterns(self, directions) -> np.ndarray:
        key = tuple(directions)
        if key not in self._pattern_cache:
            patterns = np.zeros((4, self.dof_count))
            sections = np.arange(1, self.bays + 1)
            for group, axis in zip(range(4), key):
                patterns[group, 3 * (4 * sections + group - 4) + axis] = 1.0
            self._pattern_cache[key] = patterns
        return self._pattern_cache[key]

    def _force_components(self, t: float, forcing: ForcingConfig):
        onset = forcing.final_time / 4.0
        if t < onset:
            return np.zeros(4)
        amplitudes = np.asarray(forcing.nominal_amplitudes, dtype=float) \
            * (1.0 + 0.5 * self.mu[8:12])
        freqs = 3.0 * forcing.omega0 * (1.0 + 0.5 * self.mu[12:16])
        return amplitudes * np.sin(freqs * (t - onset))

    def external_force(self, t: float, forcing: ForcingConfig) -> np.ndarray:
        comps = self._force_components(t, forcing)
        return comps @ self._load_patterns(forcing.directions)

    def external_force_rows(self, rows, t: float, forcing: ForcingConfig) -> np.ndarray:
        comps = self._force_components(t, forcing)
        return comps @ self._load_patterns(forcing.directions)[:, np.asarray(rows, dtype=int)]

    def initial_displacement(self, forcing: ForcingConfig, rel_tol=1e-6,
                             max_iters=50) -> np.ndarray:
        """Superposed scaled static deflections under the nominal loads."""
        q = np.zeros(self.dof_count)
        for group in range(4):
            scale = 1.0 + 0.5 * self.mu[4 + group]
            amplitude = float(forcing.nominal_amplitudes[group])
            if scale == 0.0 or amplitude == 0.0:
                continue
            load = amplitude * self._load_patterns(forcing.directions)[group]
            q += scale * self.static_displacement(load, rel_tol=rel_tol,
                                                  max_iters=max_iters)
        return q

    def static_displacement(self, load, rel_tol=1e-6, max_iters=30) -> np.ndarray:
        """Solve the nonlinear static problem grad V(q) = load.

        Damped Newton with adaptive load continuation: slender parameter
        draws put the zero configuration far outside the full-load basin,
        so the load is ramped in as large increments as Newton tolerates.
        """
        load = np.asarray(load, dtype=float)
        q = np.zeros(self.dof_count)
        applied, increment = 0.0, 1.0
        while applied < 1.0:
            level = min(1.0, applied + increment)
            q_try, ok = self._damped_newton(q.copy(), level * load, rel_tol,
                                            max_iters)
            if ok:
                q, applied = q_try, level
                increment = min(2.0 * increment, 1.0)
            else:
                increment *= 0.5
                if increment < 1.0 / 4096.0:
                    raise RuntimeError("static Newton solve diverged")
        return q

    def _damped_newton(self, q, load, rel_tol, max_iters):
        """Newton descent on the total potential V(q) - load.q.

        The quartic bar energy makes the total potential coercive, so a
        minimizer (a stable equilibrium) always exists; Levenberg shifts
        keep the direction descending through indefinite tangent states
        that slender parameter draws pass through.
        """
        target = rel_tol * np.linalg.norm(load)
        residual = self.internal_force(q) - load     # gradient of the potential
        energy = self.potential_energy(q) - float(load @ q)
        for _ in range(max_iters):
            if np.linalg.norm(residual) <= target:
                return q, True
            band = self.tangent_stiffness_band(q)
            half = self.half_bandwidth
            scale = max(float(np.mean(np.abs(band[half]))), 1e-300)
            advanced = False
            for tau in (0.0, 1e-8, 1e-5, 1e-2, 1.0, 1e2):
                shifted = band.copy()
                shifted[half] += tau * scale
                try:
                    delta = scipy.linalg.solve_banded(
                        (half, half), shifted, -residual, overwrite_ab=True,
                        check_finite=False)
                except np.linalg.LinAlgError:
                    continue
                slope = float(residual @ delta)
                if slope >= 0.0:
                    continue
                step = 1.0
                for _ in range(40):  # Armijo backtracking on the potential
                    q_try = q + step * delta
                    try:
                        e_try = self.potential_energy(q_try) - float(load @ q_try)
                    except FloatingPointError:
                        step *= 0.5
                        continue
                    if e_try <= energy + 1e-4 * step * slope:
                        q, energy = q_try, e_try
                        residual = self.internal_force(q) - load
                        advanced = True
                        break
                    step *= 0.5
                if advanced:
                    break
            if not advanced:
                return q, False
        return q, bool(np.linalg.norm(residual) <= target)

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


def rayleigh_coefficients(mass, stiffness, zeta, distinct_rtol=1e-6):
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
    mass = np.asarray(mass, dtype=float) if not scipy.sparse.issparse(mass) \
        else mass.toarray()
    stiffness = np.asarray(stiffness, dtype=float)
    n = stiffness.shape[0]
    count = min(10, n)
    lam = scipy.linalg.eigh(stiffness, mass, eigvals_only=True,
                            subset_by_index=[0, count - 1])
    freqs = np.sqrt(np.clip(lam, 0.0, None))
    w1 = freqs[0]
    w2 = next((w for w in freqs[1:] if w > w1 * (1.0 + distinct_rtol)), None)
    if w1 <= 0.0 or w2 is None:
        raise ValueError("degenerate smallest pencil frequencies; "
                         "cannot fit Rayleigh coefficients")
    system = np.array([[0.5 / w1, 0.5 * w1],
                       [0.5 / w2, 0.5 * w2]])
    alpha, beta = np.linalg.solve(system, np.array([zeta, zeta]))
    return float(alpha), float(beta)


def rayleigh_matrix(model: TrussModel, zeta):
    """Damping data for one model: coefficients and the assembled matrix."""
    k0 = model.tangent_stiffness(np.zeros(model.dof_count))
    alpha, beta = rayleigh_coefficients(model.mass_dense(), k0, zeta)
    return alpha, beta, damping_matrix(model, alpha, beta)


def damping_matrix(model: TrussModel, alpha: float, beta: float) -> np.ndarray:
    """Rayleigh damping with externally fixed coefficients."""
    if alpha == 0.0 and beta == 0.0:
        return np.zeros((model.dof_count, model.dof_count))
    k0 = model.tangent_stiffness(np.zeros(model.dof_count))
    return alpha * model.mass_dense() + beta * k0

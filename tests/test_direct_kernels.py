"""The direct sparse-kernel paths against the scipy-dispatch code they replace.

Scatters call ``csr_matvec`` on their own arrays and band products call
``dia_matvec``/``dia_matvecs`` on the band storage; the element kernel
forms its blocks component-major.  The references below are the replaced
forms, kept here: a ``scipy.sparse.csr_array`` with one row per receiving
entry whose product is written into zeros, element blocks laid out
(elements, 3, 3) by ``einsum``, and products through ``band.sparse``.
Every comparison is of bytes, signed zeros included.
"""

import numpy as np
import pytest
import scipy.sparse

import lagrom.band
import lagrom.truss
from lagrom.band import SymmetricBand
from lagrom.potential_map import build_potential_map
from lagrom.truss import _MASS_BLOCKS, _STIFFNESS_BLOCKS, build_truss

from conftest import random_orthonormal


def _bits(array) -> bytes:
    array = np.asarray(array)
    return repr(array.shape).encode() + array.tobytes()


def _reference_scatter(dst, weights, shape, values):
    """The replaced scatter: one operator row per receiving entry, in the
    order of a stable sort by destination, its product assigned into
    zeros."""
    dst = dst.reshape(len(weights), -1)
    n_values = dst.shape[1]
    src = np.flatnonzero(dst.ravel() >= 0)
    src = src[np.argsort(dst.ravel()[src], kind="stable")]
    dest, starts = np.unique(dst.ravel()[src], return_index=True)
    operator = scipy.sparse.csr_array(
        (np.asarray(weights)[src // n_values], src % n_values,
         np.append(starts, src.size)), shape=(dest.size, n_values))
    out = np.zeros(shape)
    out.reshape(-1)[dest] = operator @ values.reshape(-1)
    return out


def _reference_matrix(topology, blocks, half, values):
    """The replaced matrix scatter of element-major blocks (elements, 3, 3)."""
    ends = np.array([end for end, _ in blocks])
    row = topology._row_pos[topology._local[ends[:, 0]]][..., :, None]
    col = topology._col_pos[topology._local[ends[:, 1]]][..., None, :]
    kept = (row >= 0) & (col >= 0)
    cols = topology.shape[1]
    if half is None:
        dst, shape = row * cols + col, topology.shape
    else:
        dst, shape = (half + row - col) * cols + col, (2 * half + 1, cols)
    return _reference_scatter(np.where(kept, dst, -1),
                              [weight for _, weight in blocks], shape, values)


def _reference_element_stiffness(plan, d, strain):
    """The replaced element kernel: ``EA/L (strain I + d d^T / L^2)``."""
    outer = np.einsum("ik,il->ikl", d, d) / plan.length_sq[:, None, None]
    return plan.ea_over_l[:, None, None] * (strain[:, None, None] * np.eye(3)
                                            + outer)


def _reference_outputs(plan, source, half):
    """Force, stiffness and mass of ``plan`` at ``source`` by the replaced
    scatters; band storage of half-bandwidth ``half`` when it is given."""
    topology = plan.topology
    d, strain = plan.strain(source)
    force = _reference_scatter(topology._row_pos[topology._local[::-1]],
                               (1.0, -1.0), topology.shape[:1],
                               (plan.ea_over_l * strain)[:, None] * d)
    stiffness = _reference_matrix(topology, _STIFFNESS_BLOCKS, half,
                                  _reference_element_stiffness(plan, d, strain))
    mass = _reference_matrix(topology, _MASS_BLOCKS, half,
                             plan.mass_coeff[:, None, None] * np.eye(3))
    return force, stiffness, mass


@pytest.mark.parametrize("bays", [1, 2, 3, 4, 5])
def test_band_products_equal_dia_array(bays):
    """Products with a vector, one column and a matrix in C and Fortran
    order equal those of the ``dia_array`` view, also for N < 2 half + 1
    (up to three bays)."""
    rng = np.random.default_rng(bays)
    model = build_truss(bays, rng.uniform(-1.0, 1.0, 16))
    n = model.dof_count
    bands = (model.mass_band(),
             model.tangent_stiffness_band(0.03 * rng.normal(size=n)))
    operands = (rng.normal(size=n), rng.normal(size=(n, 1)),
                rng.normal(size=(n, 7)), np.asfortranarray(rng.normal(size=(n, 5))),
                np.zeros(n), rng.normal(size=2 * n)[::2],
                rng.normal(size=n).astype(np.float32))
    for band in bands:
        for x in operands:
            assert _bits(band @ x) == _bits(band.sparse @ x)


@pytest.mark.parametrize("bays", [1, 3, 20])
def test_band_product_checks_operands_before_the_kernel(bays, monkeypatch):
    """An operand of the wrong length, dimension or dtype raises
    ``ValueError`` without reaching the kernels, which read out of
    bounds."""
    def unreachable(*args):
        raise AssertionError("kernel reached")

    monkeypatch.setattr(lagrom.band, "dia_matvec", unreachable)
    monkeypatch.setattr(lagrom.band, "dia_matvecs", unreachable)
    band = build_truss(bays, np.zeros(16)).mass_band()
    n = band.shape[0]
    for x in (np.ones(n - 1), np.ones(n + 1), np.ones((n + 1, 2)),
              np.ones((2, n)), np.ones(()), np.ones((n, 2, 2)),
              np.ones(n, dtype=int), np.ones(n, dtype=bool),
              np.ones((n, 2), dtype=complex)):
        with pytest.raises(ValueError):
            band @ x


def test_scatter_checks_value_count_before_the_kernel(monkeypatch):
    def unreachable(*args):
        raise AssertionError("kernel reached")

    monkeypatch.setattr(lagrom.truss, "csr_matvec", unreachable)
    model = build_truss(3, np.zeros(16))
    plan = model._plan()
    topology = plan.topology
    elements = topology.elements.size
    scatters = ((topology.vector, 3 * elements),
                (topology.matrix(_STIFFNESS_BLOCKS), 9 * elements),
                (topology.matrix(_STIFFNESS_BLOCKS, model.half_bandwidth),
                 9 * elements))
    for scatter, count in scatters:
        for wrong in (count - 1, count + 1, 0):
            with pytest.raises(ValueError, match="values"):
                scatter(np.ones(wrong))


def test_dense_scatters_have_rows_for_receiving_entries_only():
    """A dense N x N assembly keeps no operator with a row per entry;
    vector and band scatters have one row per output entry."""
    model = build_truss(10, np.zeros(16))
    n = model.dof_count
    model.tangent_stiffness(np.zeros(n))
    model.mass_dense()
    model.mass_band()
    topology = model._plan().topology
    for (_, half), scatter in topology._matrix.items():
        if half is None:
            assert scatter.indptr.size == scatter.dest.size + 1 < n * n
        else:
            assert scatter.dest is None
            assert scatter.indptr.size == (2 * half + 1) * n + 1
    assert topology.vector.dest is None
    assert topology.vector.indptr.size == n + 1


@pytest.mark.parametrize("bays", [1, 4, 20])
@pytest.mark.parametrize("deformed", [False, True])
def test_scatters_equal_replaced_scatter(bays, deformed):
    """Vector, band and dense outputs of full and sampled plans, at rest
    and deformed, equal the replaced scatter bit for bit."""
    rng = np.random.default_rng(bays + 10 * deformed)
    model = build_truss(bays, rng.uniform(-1.0, 1.0, 16))
    n = model.dof_count
    q = 0.03 * rng.normal(size=n) if deformed else np.zeros(n)
    rows = rng.choice(n, size=max(1, n // 4), replace=False)
    cols = rng.choice(n, size=max(1, n // 3), replace=False)
    half = model.half_bandwidth
    for plan, halves in ((model._plan(), (None, half)),
                         (model._plan(rows), (None,)),
                         (model._plan(rows, cols), (None,)),
                         (model._plan(rows, rows), (None,))):
        source = plan.dense_source(q)
        for each in halves:
            force, stiffness, mass = _reference_outputs(plan, source, each)
            assert _bits(plan.force(source)) == _bits(force)
            assert _bits(plan.stiffness(source, each)) == _bits(stiffness)
            assert _bits(plan.mass(each)) == _bits(mass)
    sparse = model._plan(rows)
    dq_idx = rng.choice(n, size=5, replace=False)
    source = sparse.sparse_source(dq_idx, 0.05 * rng.normal(size=5))
    force, stiffness, _ = _reference_outputs(sparse, source, None)
    assert _bits(sparse.force(source)) == _bits(force)
    assert _bits(sparse.stiffness(source)) == _bits(stiffness)


@pytest.mark.parametrize("bays, n", [(20, 9), (20, 13), (20, 36), (40, 61)])
def test_congruence_hessians_equal_replaced_path(bays, n):
    """The SP congruence ``F^T K_ss F`` and the Galerkin congruence
    ``phi^T (K phi)`` at the benchmark widths (n = 9, 13) and the
    criterion-10 sizes equal the replaced element kernel, scatter and band
    product bit for bit."""
    rng = np.random.default_rng(bays + n)
    model = build_truss(bays, rng.uniform(-0.5, 0.5, 16))
    dofs = model.dof_count
    phi = random_orthonormal(rng, dofs, n)
    rows = rng.permutation(dofs)[:n]
    k0 = model.tangent_stiffness_band(np.zeros(dofs))
    pmap = build_potential_map(phi.T @ (k0 @ phi), k0.entries(rows, rows), rows)
    kernel = model.potential_kernel(rows, pmap.factor)
    key = rows.tobytes()
    block_topology = lagrom.truss._plan_topology(bays, key, key)
    full = model._plan()
    for _ in range(2):
        q_r = rng.normal(size=n)
        q_r *= 0.5 / np.abs(pmap.factor @ q_r).max()
        d, strain = kernel._deformation(q_r)
        k_ss = _reference_matrix(
            block_topology, _STIFFNESS_BLOCKS, None,
            _reference_element_stiffness(kernel.plan, d, strain))
        assert (_bits(kernel.hessian(q_r))
                == _bits(pmap.factor.T @ (k_ss @ pmap.factor)))

        q_r *= 0.5 / np.abs(phi @ q_r).max()
        d, strain = full.strain(full.dense_source(phi @ q_r))
        band = SymmetricBand(_reference_matrix(
            full.topology, _STIFFNESS_BLOCKS, model.half_bandwidth,
            _reference_element_stiffness(full, d, strain)))
        galerkin = phi.T @ (model.tangent_stiffness_band(phi @ q_r) @ phi)
        assert _bits(galerkin) == _bits(phi.T @ (band.sparse @ phi))


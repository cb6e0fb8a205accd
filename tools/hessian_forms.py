"""Time both exact forms of the reduced potential Hessian and print the pick.

For Galerkin at n = 13, 30, 36 and 61 and for the structure-preserving
(SP) kernel at n = 9, 13, 16, 36 and 61, each at 20, 40 and 80 bays,
builds the model at rest parameters and a seeded random orthonormal basis
(``bench._random_basis``) and, for SP, the potential map on n random rows,
as ``bench.sp_step_seconds`` does.  It then times ``Z^T K(Z q_r) Z`` in
both forms (``truss.ELEMENT_SUM`` and ``truss.CONGRUENCE``) with the
strains at ``q_r`` already kept, as in a Newton iteration, and prints the
best of several ``timeit`` repeats in microseconds, the form
``truss.hessian_form`` picks, and how much slower the pick measured than
the faster form.  BLAS runs on one thread unless ``--threads`` says
otherwise::

    python tools/hessian_forms.py [--threads 1] [--number 200]

It writes no file.
"""

import argparse
import os
import sys
import timeit
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (kernel, bays, n) rows: each kernel's widths either side of its
# crossover and the criterion-10 widths, at every bay count.
WIDTHS = (("galerkin", (13, 30, 36, 61)), ("sp", (9, 13, 16, 36, 61)))
SIZES = tuple((kernel, bays, n) for kernel, widths in WIDTHS
              for bays in (20, 40, 80) for n in widths)
REPEATS = 7
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def hessians(kernel, bays, n):
    """``(elements, dof_count or None, {form: q_r -> Hessian}, q_r)`` of
    one row; ``dof_count`` is None for the SP kernel."""
    import numpy as np
    from lagrom import truss
    from lagrom.bench import _random_basis
    from lagrom.potential_map import build_potential_map

    model, phi, rng = _random_basis(bays, n)
    big_n = model.dof_count
    forms = (truss.ELEMENT_SUM, truss.CONGRUENCE)
    if kernel == "galerkin":
        q_r = 1e-3 * rng.normal(size=n)
        model.internal_force(phi @ q_r)            # keeps the strains
        return (len(model.elements), big_n,
                {form: model.reduced_hessian(phi, form) for form in forms}, q_r)
    rows = rng.permutation(big_n)[:n]
    q_r = 1e-3 * rng.normal(size=n)
    k0 = model.tangent_stiffness_band(np.zeros(big_n))
    pmap = build_potential_map(phi.T @ (k0 @ phi), k0.entries(rows, rows), rows)
    kernels = {form: model.potential_kernel(rows, pmap.factor, form)
               for form in forms}
    for each in kernels.values():
        each.gradient(q_r)                          # keeps the strains
    return (len(kernels[forms[0]].maps), None,
            {form: each.hessian for form, each in kernels.items()}, q_r)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--number", type=int, default=200,
                        help="calls per timeit repeat")
    args = parser.parse_args(argv)
    for name in THREAD_VARIABLES:      # before numpy is imported
        os.environ[name] = str(args.threads)
    sys.path.insert(0, str(SRC))
    import numpy as np
    from lagrom import truss

    print("kernel    bays   n     E  element_us  congruence_us  pick         loss")
    for kernel, bays, n in SIZES:
        elements, dof_count, forms, q_r = hessians(kernel, bays, n)
        seconds = {form: min(timeit.repeat(lambda: hess(q_r), number=args.number,
                                           repeat=REPEATS)) / args.number
                   for form, hess in forms.items()}
        rel = (np.linalg.norm(forms[truss.ELEMENT_SUM](q_r)
                              - forms[truss.CONGRUENCE](q_r))
               / np.linalg.norm(forms[truss.CONGRUENCE](q_r)))
        assert rel <= 1e-12, "forms disagree by %.1e" % rel
        pick = truss.hessian_form(n, dof_count)
        loss = seconds[pick] / min(seconds.values()) - 1.0
        print("%-9s %4d %3d %5d %11.1f %14.1f  %-11s %4.0f%%"
              % (kernel, bays, n, elements, 1e6 * seconds[truss.ELEMENT_SUM],
                 1e6 * seconds[truss.CONGRUENCE], pick, 100.0 * loss),
              flush=True)


if __name__ == "__main__":
    main()

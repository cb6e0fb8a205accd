"""Time both exact forms of the reduced potential Hessian and print the pick.

For each size of the calibration table (Galerkin at 20 and 40 bays, n = 13
to 61; the structure-preserving (SP) kernel at n = 9 to 61 on random
rows), builds the model at rest parameters, a random orthonormal basis
and, for SP, the potential map on the first n of a random sample set, as
``bench.sp_step_seconds`` does.  It then times ``Z^T K(Z q_r) Z`` in both
forms (``truss.ELEMENT_SUM`` and ``truss.CONGRUENCE``) with the strains at
``q_r`` already kept, as in a Newton iteration, and prints the best of
several ``timeit`` repeats in microseconds, the cost model's estimate of
each (``truss.hessian_costs``), the form ``truss.hessian_form`` picks,
and how much slower the pick measured than the faster form.  BLAS runs on
one thread unless ``--threads`` says otherwise::

    python tools/hessian_forms.py [--threads 1] [--number 200]

It writes no file.
"""

import argparse
import os
import sys
import timeit
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (kernel, bays, n) rows of the calibration table.
SIZES = (("galerkin", 20, 13), ("galerkin", 40, 13), ("galerkin", 20, 36),
         ("galerkin", 40, 61), ("sp", 20, 9), ("sp", 20, 13), ("sp", 20, 36),
         ("sp", 40, 61))
REPEATS = 7
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def hessians(kernel, bays, n):
    """``(model, elements, rows, {form: q_r -> Hessian}, q_r)`` of one
    table row."""
    import numpy as np
    from lagrom import truss
    from lagrom.bench import SP_STEP_SEED
    from lagrom.potential_map import build_potential_map

    rng = np.random.default_rng(SP_STEP_SEED)
    model = truss.build_truss(bays, np.zeros(16))
    big_n = model.dof_count
    phi = np.linalg.qr(rng.normal(size=(big_n, n)))[0]
    forms = (truss.ELEMENT_SUM, truss.CONGRUENCE)
    if kernel == "galerkin":
        q_r = 1e-3 * rng.normal(size=n)
        model.internal_force(phi @ q_r)            # keeps the strains
        return (model, len(model.elements), big_n,
                {form: model.reduced_hessian(phi, form) for form in forms}, q_r)
    rows = rng.permutation(big_n)[:n]
    q_r = 1e-3 * rng.normal(size=n)
    k0 = model.tangent_stiffness_band(np.zeros(big_n))
    pmap = build_potential_map(phi.T @ (k0 @ phi), k0.entries(rows, rows), rows)
    kernels = {form: model.potential_kernel(rows, pmap.factor, form)
               for form in forms}
    for each in kernels.values():
        each.gradient(q_r)                          # keeps the strains
    return (model, len(kernels[forms[0]].maps), n,
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

    print("kernel    bays   n    E  element_us  congruence_us  "
          "model_el  model_cong  pick         loss")
    for kernel, bays, n in SIZES:
        model, elements, rows, forms, q_r = hessians(kernel, bays, n)
        sizes = (elements, n, rows, model.half_bandwidth, model.dof_count)
        seconds = {form: min(timeit.repeat(lambda: hess(q_r), number=args.number,
                                           repeat=REPEATS)) / args.number
                   for form, hess in forms.items()}
        rel = (np.linalg.norm(forms[truss.ELEMENT_SUM](q_r)
                              - forms[truss.CONGRUENCE](q_r))
               / np.linalg.norm(forms[truss.CONGRUENCE](q_r)))
        assert rel <= 1e-12, "forms disagree by %.1e" % rel
        pick = truss.hessian_form(*sizes)
        model_el, model_cong = truss.hessian_costs(*sizes)
        loss = seconds[pick] / min(seconds.values()) - 1.0
        print("%-9s %4d %3d %4d %11.1f %14.1f %9.1f %11.1f  %-11s %4.0f%%"
              % (kernel, bays, n, elements, 1e6 * seconds[truss.ELEMENT_SUM],
                 1e6 * seconds[truss.CONGRUENCE], model_el, model_cong, pick,
                 100.0 * loss))


if __name__ == "__main__":
    main()

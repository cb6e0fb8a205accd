"""Time both exact forms of Galerkin's reduced potential Hessian and print
the pick.

For Galerkin at n = 13, 30, 36 and 61, each at 20, 40 and 80 bays, builds
the model at rest parameters and a seeded random orthonormal basis
(``bench._random_basis``).  It then times ``phi^T K(phi q_r) phi`` in both
forms, the element sum of the reduced element kernel over every bar
(``model.potential_kernel(None, phi)``) and the band congruence, each with
its strains at ``q_r`` already kept, as in a Newton iteration.  It prints
the best of several ``timeit`` repeats in microseconds, the form that the
Galerkin model (``roms.build_galerkin``) takes, the one whose Hessian it
reproduces bit for bit, and how much slower that pick measured than the
faster form.  (The structure-preserving map is square on its rows, so its
kernel takes the congruence of its sampled block at every width.)  BLAS
runs on one thread unless ``--threads`` says otherwise::

    python tools/hessian_forms.py [--threads 1] [--number 200]

It writes no file.
"""

import argparse
import os
import sys
import timeit
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (bays, n) rows: widths either side of the crossover and the criterion-10
# widths, at every bay count.
SIZES = tuple((bays, n) for bays in (20, 40, 80) for n in (13, 30, 36, 61))
ELEMENT_SUM, CONGRUENCE = "element sum", "congruence"
REPEATS = 7
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def hessians(bays, n):
    """``(model, phi, {form: q_r -> Hessian}, q_r)`` of one row."""
    from lagrom.bench import _random_basis

    model, phi, rng = _random_basis(bays, n)
    q_r = 1e-3 * rng.normal(size=n)
    kernel = model.potential_kernel(None, phi)
    kernel.gradient(q_r)                           # keeps its strains
    model.internal_force(phi @ q_r)                # keeps the full plan's

    def congruence(q_r):
        return phi.T @ (model.tangent_stiffness_band(phi @ q_r) @ phi)
    return (model, phi, {ELEMENT_SUM: kernel.hessian, CONGRUENCE: congruence},
            q_r)


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
    from lagrom.roms import build_galerkin

    print("bays   n     E  element_us  congruence_us  pick         loss")
    for bays, n in SIZES:
        model, phi, forms, q_r = hessians(bays, n)
        seconds = {form: min(timeit.repeat(lambda: hess(q_r), number=args.number,
                                           repeat=REPEATS)) / args.number
                   for form, hess in forms.items()}
        rel = (np.linalg.norm(forms[ELEMENT_SUM](q_r) - forms[CONGRUENCE](q_r))
               / np.linalg.norm(forms[CONGRUENCE](q_r)))
        assert rel <= 1e-12, "forms disagree by %.1e" % rel
        taken = build_galerkin(model, phi).hess(q_r)
        pick, = [form for form, hess in forms.items()
                 if np.array_equal(hess(q_r), taken)]
        loss = seconds[pick] / min(seconds.values()) - 1.0
        print("%4d %3d %5d %11.1f %14.1f  %-11s %4.0f%%"
              % (bays, n, len(model.elements), 1e6 * seconds[ELEMENT_SUM],
                 1e6 * seconds[CONGRUENCE], pick, 100.0 * loss),
              flush=True)


if __name__ == "__main__":
    main()

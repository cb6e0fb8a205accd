"""Rerun criterion 10's study with the forcing frequency moved by round-off
and print whether its verdict holds.

Criterion 10 compares the SP-RBS and SP-matrix-gappy errors at 10% and 20%
sampling on three online points, and fails when one is more than x2.0 the
other.  Its verdict has followed the 10th digit of the nominal frequency
omega0, which comes from a dense eigensolve whose round-off moves with the
BLAS thread count.  For k = -4 ... 4 this tool wraps
``lagrom.bench.fundamental_frequency``, in its own process only, so that it
returns omega0 * (1 + k * 1e-12), then trains and runs criterion 10's
configuration through ``bench.run_offline`` and ``bench.run_comparison``
with the two SP variants.  Each row prints k, the basis dimension n, the
six ``p<pct> pt<j>`` error ratios and the verdict against x2.0; k = 0 is
the unmoved study.  The study is robust to round-off when n and the verdict
agree on every row, at one and at two BLAS threads.  BLAS runs on one
thread unless ``--threads`` says otherwise::

    python tools/omega_sweep.py [--threads 1]

It writes no file.
"""

import argparse
import math
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Criterion 10's configuration (tests/test_acceptance.py), SP variants only.
CRITERION_10 = dict(bays=20, dt=0.05, final_time=25.0,
                    zeta=math.sin(math.radians(5.0)), n_train=6, n_online=3,
                    sampling_percentages=(10.0, 20.0),
                    energy_state=1 - 1e-4, seed_train=1, seed_online=1,
                    variants=("sp_rbs", "sp_matrix_gappy"))
STEPS = tuple(range(-4, 5))
RELATIVE_STEP = 1e-12
RATIO_BOUND = 2.0


def error_ratios(report):
    """``{(pct, j): ratio}`` of the larger to the smaller SP error at each
    sampling percentage and online point; inf where a run is unstable."""
    errors = {}
    for row in report.rows:
        errors.setdefault((row.percentage, row.online_index), []).append(
            row.error if row.stable else math.inf)
    return {key: (max(pair) / min(pair) if math.isfinite(max(pair)) else math.inf)
            for key, pair in errors.items()}


def sweep(config, steps=STEPS):
    """``(k, n, ratios, passed)`` of the study at omega0 * (1 + k * 1e-12),
    for each k in ``steps``."""
    import lagrom.bench as bench

    exact = bench.fundamental_frequency
    try:
        for k in steps:
            bench.fundamental_frequency = (
                lambda model, k=k: exact(model) * (1.0 + k * RELATIVE_STEP))
            offline = bench.run_offline(config)
            ratios = error_ratios(bench.run_comparison(config, offline=offline))
            yield k, offline.n, ratios, max(ratios.values()) <= RATIO_BOUND
    finally:
        bench.fundamental_frequency = exact


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)
    for name in THREAD_VARIABLES:      # before numpy is imported
        os.environ[name] = str(args.threads)
    sys.path.insert(0, str(SRC))
    from lagrom.bench import ExperimentConfig

    failed = 0
    for k, n, ratios, passed in sweep(ExperimentConfig(**CRITERION_10)):
        failed += not passed
        print("k=%+d n=%d; %s; %s" % (
            k, n, "; ".join("p%g pt%d x%.2f" % (pct, j, ratio)
                            for (pct, j), ratio in sorted(ratios.items())),
            "pass" if passed else "FAIL"), flush=True)
    print("%d of %d fail at %d BLAS thread(s)" % (failed, len(STEPS), args.threads))


if __name__ == "__main__":
    main()

"""Offline/online pipeline benchmark for lagrom.

Run from the repository root::

    python3 perfbench/run.py --workload study-20 --seed 1 --seconds 35 --trace 0

With ``--trace 0`` it repeats the workload's round (offline, then passes of
reduce, HFM and three online queries) until ``--seconds`` are used,
untraced, and reports each phase's time as the median of its samples and
``setup_s`` as the median of three set-ups, all in seconds at the reference
speed (see :class:`SpeedReference`).
With ``--trace 1`` it alternates traced and untraced rounds and reports the
per-layer metrics of the traced ones plus the tracing overhead.  See
``perfbench/README.md``.  The last line of standard output
is one JSON object; the lines before it are the human-readable report.  The
exit code is 0 only when every correctness check passed.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("study-20", "scale-40", "conservative-20")
SETUP_REPEATS = 3
# Median times of the reference kernel's parts on a shared two-vCPU Intel
# Xeon virtual machine with BLAS on one thread: four dense 240x240 solves,
# 300 small NumPy products, a loop of plain Python.
REFERENCE_NOMINAL_S = {"dense": 4.6e-3, "small": 0.86e-3,
                       "interpreted": 2.68e-3}
# The parts that stand for each metric's work.  The phases mix dense
# full-order work and small reduced-model calls; three quarters of an SP
# query is its sampled evaluators, small NumPy calls; set-up is mostly the
# interpreter importing modules.
SPEED_PARTS = {"setup_s": ("interpreted",),
               "online_s.sp_rbs": ("small",),
               "online_s.sp_matrix_gappy": ("small",)}
PHASE_PARTS = ("dense", "small")
SPEEDUP_NOTE = ("speedup.<variant> = hfm_s / online_s.<variant>; both sides "
                "include the model build and the initial condition, the online "
                "side also the ROM assembly")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("tiny", "bench", "full"),
                        default="bench",
                        help="bench: timed runs; full: the T=25 protocol of "
                             "criteria 9/10; tiny: smoke test")
    return parser.parse_args(argv)


def machine_info(usable_cpus):
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(usable_cpus),
            "pinned_cpu": usable_cpus[0],
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def import_package():
    """Start a fresh interpreter that imports the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import lagrom"], env=env, cwd=ROOT,
                   check=True, timeout=120)


class SpeedReference:
    """The machine's speed, read from a fixed kernel timed between phases.

    On a shared virtual machine the same code's wall time can differ by
    20-30% between runs: the CPU switches between speeds up to 2x apart,
    every few tens of milliseconds, in proportions that drift over minutes,
    and the kinds of work slow down by different amounts (plain Python the
    least, small NumPy calls the most).  A reading times each part of the
    kernel once and keeps its time over its nominal time, 1.0 at the
    nominal speed.  A sample is timed between two consecutive readings; its
    speed factor is the mean, over those two readings and the one on either
    side of them, of the parts that stand for its work (``SPEED_PARTS``),
    and its wall time divided by that factor is its time at the nominal
    speed.  The kernel does not use the package, so a change to the package
    moves these times as it moves wall time.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        a = rng.normal(size=(240, 240))
        self.dense = a @ a.T + 240.0 * np.eye(240)
        self.rhs = rng.normal(size=240)
        self.small = rng.normal(size=(12, 12))
        self.vector = rng.normal(size=12)
        self.readings = []   # {part: time over nominal time}
        self.read()   # warm-up: the first call loads LAPACK
        self.readings.clear()
        self.read()

    def read(self):
        np, clock = self.np, time.perf_counter
        start = clock()
        for _ in range(4):
            np.linalg.solve(self.dense, self.rhs)
        dense = clock()
        acc = 0.0
        for _ in range(300):
            acc += float((self.small @ self.vector)[0])
        small = clock()
        count = 0
        for i in range(30000):
            count += i * i
        end = clock()
        times = {"dense": dense - start, "small": small - dense,
                 "interpreted": end - small}
        self.readings.append({part: seconds / REFERENCE_NOMINAL_S[part]
                              for part, seconds in times.items()})

    @contextlib.contextmanager
    def timed(self, samples):
        """Time the block; append ``(wall seconds, index of the reading
        before it)`` to ``samples`` and take a reading after it."""
        before = len(self.readings) - 1
        start = time.perf_counter()
        yield
        samples.append((time.perf_counter() - start, before))
        self.read()

    def nominal(self, samples, parts):
        """Times at the nominal speed of samples from :meth:`timed`, with
        the speed read from ``parts`` of the kernel."""
        out = []
        for wall, before in samples:
            window = [reading[part] for reading in
                      self.readings[max(before - 1, 0):before + 3]
                      for part in parts]
            out.append(wall * len(window) / sum(window))
        return out


def tail(values):
    """Highest percentile with at least ten samples beyond it, else the max."""
    n = len(values)
    for pct in (99, 95, 90, 75, 50):
        if n * (1 - pct / 100.0) >= 10:
            return "p%d" % pct, statistics.quantiles(values, n=100)[pct - 1]
    return "max", max(values)


def layer_unit(name):
    if "_s." in name or name.endswith(("_s", ".s", "s_per_call")):
        return "s"
    if name == "archive.bytes":
        return "B"
    if name.endswith(("clamped", "converged")):
        return "bool"
    if name.endswith(("calls", "steps", "iters", "evals", "iterations",
                      "m_requested", "m_effective", "pod.n", "spans")):
        return "count"
    return "1"


class Runner:
    """Repeats rounds of one workload within the time budget."""

    def __init__(self, workloads, tracing, args):
        self.wl_module, self.tracing, self.args = workloads, tracing, args
        self.gate = workloads.Gate()
        self.tracer = tracing.Tracer() if args.trace else None
        self.reference = SpeedReference()
        self.rounds = []          # (traced, {phase: [(seconds, reading)]})
        self.layer_rounds = []    # per-layer dicts of traced rounds
        self.last = None

    def setup(self):
        """Median import and fixture times, in wall seconds and at the
        nominal speed."""
        ref, imports, fixtures = self.reference, [], []
        for _ in range(SETUP_REPEATS):
            with ref.timed(imports):
                import_package()
        for _ in range(SETUP_REPEATS):
            with ref.timed(fixtures):
                wl = self.wl_module.WORKLOADS[self.args.workload](
                    self.args.size, self.args.seed)
                wl.setup()
        self.wl = wl
        wall = sum(statistics.median(w for w, _ in part)
                   for part in (imports, fixtures))
        nominal = sum(statistics.median(ref.nominal(part,
                                                    SPEED_PARTS["setup_s"]))
                      for part in (imports, fixtures))
        return wall, nominal

    def round(self, index, traced):
        """One offline phase, then the workload's passes (one when traced),
        each a reduce phase and a query of every kind; checks run after the
        timed phases."""
        wl, gate, times = self.wl, self.gate, defaultdict(list)
        tracer = self.tracer if traced else None
        self.reference.read()   # the previous round's checks ran since

        @contextlib.contextmanager
        def phase(name, trajectories=1):
            # A phase that raises counts one of its trajectories as failed.
            gate.attempted += trajectories
            with self.reference.timed(times[name]):
                with tracer.span(name) if tracer else contextlib.nullcontext():
                    try:
                        yield
                    except Exception:
                        gate.failed += min(trajectories, 1)
                        raise

        if tracer:
            tracer.run = index
        passes = []
        with self.tracing.installed(tracer) if tracer else contextlib.nullcontext():
            with phase("offline_s", wl.training_runs):
                offline = wl.offline()
            for _ in range(1 if traced else wl.passes):
                with phase("reduce_s", 0):
                    reduced = wl.reduce(offline)
                query = {}
                with phase("hfm_s"):
                    query["hfm"] = wl.full_order(offline)
                for variant in self.wl_module.VARIANTS:
                    with phase("online_s." + variant):
                        query[variant] = wl.online(offline, reduced, variant)
                passes.append(query)
        fidelity = {}
        for query in passes:
            fidelity = wl.check_query(gate, offline, query)
        wl.check_systems(gate, offline, reduced)
        self.rounds.append((traced, times))
        if tracer:
            self.layer_rounds.append(self.tracing.layer_metrics(tracer, index))
        self.last = {"offline": offline, "reduced": reduced, "fidelity": fidelity}

    def run(self):
        start = time.perf_counter()
        index = 0
        while True:
            traced = bool(self.args.trace) and index % 2 == 0
            begun = time.perf_counter()
            try:
                self.round(index, traced)
            except Exception as exc:   # report the failure, keep the report
                traceback.print_exc()
                self.gate.fail("round %d raised %s: %s"
                               % (index, type(exc).__name__, exc))
            index += 1
            if not self.gate.ok:
                break
            if self.args.trace and index < 2:
                continue   # one traced and one untraced round at least
            # Stop where the next round would end closer to the budget's
            # end than this one, so runs last about --seconds on average.
            now = time.perf_counter()
            if now - start + (now - begun) / 2 >= self.args.seconds:
                break

    # -- results -----------------------------------------------------------------

    def phase_samples(self, traced):
        """Each phase's samples as (wall seconds, seconds at the nominal
        speed) lists."""
        samples = defaultdict(list)
        for was_traced, times in self.rounds:
            if was_traced == traced:
                for name, values in times.items():
                    samples[name].extend(values)
        return {name: ([wall for wall, _ in values],
                       self.reference.nominal(
                           values, SPEED_PARTS.get(name, PHASE_PARTS)))
                for name, values in samples.items()}

    def end_to_end(self, setup):
        """Median of the untraced rounds' samples of each timed phase, at
        the nominal speed; ``setup`` is the pair :meth:`setup` returned.

        Each metric is ``(value, unit, samples, median wall seconds)``.
        """
        samples = self.phase_samples(traced=False)
        wall, nominal = setup
        metrics = {"setup_s": (nominal, "s", [nominal], wall)}
        for name in ["offline_s", "reduce_s", "hfm_s"] + [
                "online_s." + v for v in self.wl_module.VARIANTS]:
            if name in samples:
                walls, values = samples[name]
                metrics[name] = (statistics.median(values), "s", values,
                                 statistics.median(walls))
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = (rss, "MB", [rss], None)
        return metrics

    def per_layer(self):
        layer = {name: statistics.median(r[name] for r in self.layer_rounds)
                 for name in self.layer_rounds[0]}
        # Overhead: summed per-phase medians at the nominal speed, traced
        # over untraced.
        medians = {traced: sum(statistics.median(values) for _, values in
                               self.phase_samples(traced).values())
                   for traced in (True, False)}
        layer["trace.overhead"] = medians[True] / medians[False] - 1.0
        layer.update(self.wl.layer_values(self.last,
                                          OUT / ("archive-%d" % os.getpid())))
        return {name: (value, layer_unit(name), None, None)
                for name, value in sorted(layer.items())}


def report(runner, metrics, info, args):
    wl = runner.wl
    print("lagrom perfbench: workload=%s size=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.size, args.seed, args.seconds, args.trace))
    print("machine: " + json.dumps(info))
    print("config: bays=%d dt=%g final_time=%g n=%s m=%s online_point=%s"
          % (wl.config.bays, wl.config.dt, wl.config.final_time,
             runner.last["offline"].n if runner.last else "-",
             runner.last["reduced"].sample_set.m if runner.last else "-",
             "[" + ", ".join("%.3f" % v for v in wl.mu) + "]"))
    print("rounds: %d untraced, %d traced; trajectories failed/attempted: "
          "%d/%d; failed checks: %d"
          % (sum(not t for t, _ in runner.rounds),
             sum(t for t, _ in runner.rounds), runner.gate.failed,
             runner.gate.attempted, len(runner.gate.failures)))
    for reason in runner.gate.failures:
        print("FAILED: " + reason)
    readings = runner.reference.readings
    print("speed reference: %d readings, median %s (1.0 is the nominal "
          "speed; times below are at the nominal speed, 'wall' is the median "
          "wall time)"
          % (len(readings), ", ".join(
              "%s %.3f" % (part, statistics.median(r[part] for r in readings))
              for part in REFERENCE_NOMINAL_S)))
    print("%-34s %-5s %12s %18s %4s %12s"
          % ("metric", "unit", "median", "tail", "n", "wall"))
    for name, (value, unit, values, wall) in metrics.items():
        if values is None:
            print("%-34s %-5s %12.6g" % (name, unit, value))
        else:
            label, tail_value = tail(values)
            print("%-34s %-5s %12.6g %5s %12.6g %4d %12s"
                  % (name, unit, value, label, tail_value, len(values),
                     "-" if wall is None else "%.6g" % wall))
    hfm = metrics.get("hfm_s")
    for variant in runner.wl_module.VARIANTS:
        online = metrics.get("online_s." + variant)
        if hfm and online:
            print("speedup.%-32s %.4g" % (variant, hfm[0] / online[0]))
    if hfm:
        print(SPEEDUP_NOTE)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "lagrom" / "__init__.py").is_file():
        print("perfbench: no package source at %s" % (SRC / "lagrom"),
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:   # before numpy is imported
        os.environ[var] = "1"
    # One CPU for the whole run, the import subprocesses included: each vCPU
    # of a shared virtual machine changes speed on its own, so the speed
    # reference has to read the CPU that runs the phases.
    usable_cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, usable_cpus[:1])
    sys.path.insert(0, str(SRC))
    import lagrom
    if Path(lagrom.__file__).resolve().parent != SRC / "lagrom":
        print("perfbench: imported lagrom from %s, not from %s"
              % (lagrom.__file__, SRC), file=sys.stderr)
        return 2
    import tracing
    import workloads

    runner = Runner(workloads, tracing, args)
    setup = runner.setup()
    runner.run()
    info = machine_info(usable_cpus)
    ok = runner.gate.ok and runner.last is not None
    if args.trace and ok:
        metrics = runner.per_layer()
        OUT.mkdir(exist_ok=True)
        runner.tracer.write(OUT / ("%s-%s-seed%d.spans.jsonl"
                                   % (args.workload, args.size, args.seed)))
    else:
        metrics = runner.end_to_end(setup)
    report(runner, metrics, info, args)
    print(json.dumps({"correct": ok, "attempted": runner.gate.attempted,
                      "failed": runner.gate.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit, _, _) in metrics.items()}}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

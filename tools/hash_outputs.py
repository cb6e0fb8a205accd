"""Print a SHA-256 digest of every output of one benchmark workload round.

Runs the offline, reduce, full-order and online phases of a workload from
``perfbench/workloads.py`` once, at the workload's online point, and prints
one ``<name> <sha256>`` line per array: each entry that
``archive.flatten`` makes of the offline and reduced products, each
training mass (``offline/mass_snapshots/<i>``, which the training archive
does not store), and the q, v, Newton counts, tip series and (when
recorded) energy of the HFM and of every online variant's trajectory.
Two source trees give the same outputs when their lines are equal::

    python tools/hash_outputs.py study-20 --size bench --seed 1 > a.txt

It writes no file.
"""

import argparse
import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_ARRAYS = ("q", "v", "newton_iterations", "quantity", "energy")


def load_workloads():
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest(value) -> str:
    """Hash of an array's shape and its little-endian float64 values."""
    data = np.ascontiguousarray(value, dtype="<f8")
    return hashlib.sha256(repr(data.shape).encode() + data.tobytes()).hexdigest()


def output_arrays(workload, variants):
    """(name, array) of every product and trajectory array of one round."""
    from lagrom.archive import flatten

    offline = workload.offline()
    reduced = workload.reduce(offline)
    yield from (("offline/" + k, v) for k, v in
                flatten(offline, skip=("config", "mass_snapshots")).items())
    yield from (("offline/mass_snapshots/%d" % i, mass)
                for i, mass in enumerate(offline.mass_snapshots))
    yield from (("reduced/" + k, v) for k, v in flatten(reduced).items())
    trajectories = {"hfm": workload.full_order(offline)}
    for variant in variants:
        trajectories[variant] = workload.online(offline, reduced, variant).trajectory
    for label, traj in trajectories.items():
        for name in TRAJECTORY_ARRAYS:
            if getattr(traj, name) is not None:
                yield "%s/%s" % (label, name), getattr(traj, name)


def main(argv=None) -> None:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--size", choices=("tiny", "bench", "full"), default="bench")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload](args.size, args.seed)
    workload.setup()
    for name, value in output_arrays(workload, workloads.VARIANTS):
        print(name, digest(value))


if __name__ == "__main__":
    main()

"""Span recording around the package's public callables, installed from outside.

A :class:`Tracer` keeps every span in memory as ``(parent, name, start, end,
run)``; a span's id is its position in the list and ``run`` is the round it
belongs to.  :func:`installed` patches the callables named in
:data:`SPAN_TARGETS`, plus the counting hooks on the Newton solver and the
``SecondOrderSystem`` callables, for the length of a ``with`` block and puts
the originals back afterwards, so untraced rounds run the unmodified package.

A span name is ``<layer>.<callable>``; the layer is the package module that
owns the callable.  Patches sit where callers look the names up: on the
module that imported a function (``lagrom.bench.rbs_fit``), on the class for
``TrussModel`` methods, and on the ``SecondOrderSystem`` handed to the
integrator.
"""

import contextlib
import dataclasses
import functools
import json
import time
from collections import Counter, defaultdict

import lagrom.bench
import lagrom.midpoint
import lagrom.pod
import lagrom.roms
import lagrom.truss

TRUSS_METHODS = (
    "internal_force", "internal_force_rows", "internal_force_rows_dense",
    "tangent_stiffness", "tangent_stiffness_block",
    "tangent_stiffness_rows_dense", "mass_dense", "mass_matrix",
    "mass_entries", "external_force", "external_force_rows",
    "load_patterns", "initial_displacement", "static_displacement",
    "potential_energy", "potential_energy_sparse", "tip_displacement",
    "elements_for_dofs", "dofs_needed_for_rows")

# (owner, attribute, layer): module functions, patched where they are called.
MODULE_FUNCTIONS = (
    (lagrom.bench, "run_offline", "bench"),
    (lagrom.bench, "reduce_products", "bench"),
    (lagrom.bench, "run_online", "bench"),
    (lagrom.bench, "build_variant", "bench"),
    (lagrom.bench, "build_truss", "truss"),
    (lagrom.bench, "fundamental_frequency", "truss"),
    (lagrom.bench, "rayleigh_coefficients", "truss"),
    (lagrom.bench, "integrate_full_model", "roms"),
    (lagrom.bench, "integrate_rom", "roms"),
    (lagrom.bench, "build_galerkin", "roms"),
    (lagrom.bench, "build_structure_preserving", "roms"),
    (lagrom.bench, "compute_pod_basis", "pod"),
    (lagrom.pod, "compute_pod_basis", "pod"),
    (lagrom.bench, "matrix_pod_modes", "spd_approx"),
    (lagrom.bench, "rbs_fit", "spd_approx"),
    (lagrom.bench, "build_matrix_gappy_basis", "spd_approx"),
    (lagrom.bench, "greedy_sample_indices", "sampling"),
    (lagrom.bench, "validate_sample_set", "sampling"),
    (lagrom.bench, "build_force_reconstructor", "gappy"),
    (lagrom.roms, "implicit_midpoint_solve", "midpoint"),
    (lagrom.roms, "build_potential_map", "potential_map"),
    (lagrom.roms, "approx_reduced_gradient", "potential_map"),
    (lagrom.roms, "approx_reduced_hessian", "potential_map"),
    (lagrom.roms, "rbs_apply", "spd_approx"),
    (lagrom.roms, "gappy_matrix_coeffs", "spd_approx"),
    (lagrom.roms, "gappy_matrix_assemble", "spd_approx"),
    (lagrom.roms, "apply_force_reconstructor", "gappy"),
    (lagrom.roms, "reduced_total_energy", "roms"),
    (lagrom.roms, "total_energy", "roms"),
)

SPAN_TARGETS = tuple((lagrom.truss.TrussModel, name, "truss")
                     for name in TRUSS_METHODS) + MODULE_FUNCTIONS

IC_SPAN = "truss.initial_displacement"
LAYERS = ("truss", "midpoint", "roms", "potential_map", "spd_approx", "gappy",
          "sampling", "pod", "bench")


class Tracer:
    """In-memory span store plus counters taken at the same boundaries."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = defaultdict(Counter)   # run -> counter name -> count
        self.run = 0

    def _open(self):
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, name, start):
        end = time.perf_counter()
        self.stack.pop()
        self.spans[span_id] = (parent, name, start, end, self.run)

    @contextlib.contextmanager
    def span(self, name):
        span_id, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(span_id, parent, name, start)

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span_id, parent, name, start)
        return traced

    def count(self, name, amount=1):
        self.counters[self.run][name] += amount

    def write(self, path):
        """Write the spans as JSON lines: id, parent, name, start, end, run."""
        with open(path, "w") as fh:
            for span_id, span in enumerate(self.spans):
                fh.write(json.dumps([span_id, *span]) + "\n")


def _counting_newton(tracer, newton):
    @functools.wraps(newton)
    def counted(residual, jacobian, x0, *args, **kwargs):
        def counted_residual(x):
            tracer.count("residual_evals")
            return residual(x)

        def counted_jacobian(x):
            tracer.count("jacobian_evals")
            return jacobian(x)

        result = newton(counted_residual, counted_jacobian, x0, *args, **kwargs)
        tracer.count("steps")
        tracer.count("newton_iters", result.iterations)
        tracer.count("failed_steps", int(not result.converged))
        return result
    return counted


def _traced_system(tracer, system):
    return dataclasses.replace(
        system,
        grad=tracer.wrap(system.grad, "roms.system.grad"),
        hess=tracer.wrap(system.hess, "roms.system.hess"),
        force=tracer.wrap(system.force, "roms.system.force"))


@contextlib.contextmanager
def installed(tracer):
    """Patch every target for the block; restore the originals on exit."""
    patches = [(owner, attr, tracer.wrap(getattr(owner, attr),
                                         "%s.%s" % (layer, attr)))
               for owner, attr, layer in SPAN_TARGETS]
    full_order = lagrom.roms.full_order_system
    reduced_sos = lagrom.roms.ReducedSystem.second_order_system
    patches += [
        (lagrom.midpoint, "newton",
         _counting_newton(tracer, lagrom.midpoint.newton)),
        (lagrom.roms, "full_order_system",
         lambda *a, **k: _traced_system(tracer, full_order(*a, **k))),
        (lagrom.roms.ReducedSystem, "second_order_system",
         lambda self: _traced_system(tracer, reduced_sos(self))),
    ]
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in patches]
    try:
        for owner, attr, patched in patches:
            setattr(owner, attr, patched)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def round_spans(tracer, run):
    """Spans of one round as ``(name, duration, self time, root name, in_ic)``.

    Self time is the duration minus the time covered by direct children;
    calls are single-threaded and nested, so children never overlap.  Roots
    are the benchmark's phase spans, named after the end-to-end metrics.
    ``in_ic`` marks spans below a ``truss.initial_displacement`` span.
    """
    ids = [i for i, span in enumerate(tracer.spans) if span[4] == run]
    child_time = Counter()
    for i in ids:
        parent, _, start, end, _ = tracer.spans[i]
        if parent >= 0:
            child_time[parent] += end - start
    root_of, in_ic = {}, {}
    out = []
    for i in ids:   # parents precede children in the list
        parent, name, start, end, _ = tracer.spans[i]
        root_of[i] = root_of[parent] if parent >= 0 else name
        in_ic[i] = parent >= 0 and (
            in_ic[parent] or tracer.spans[parent][1] == IC_SPAN)
        out.append((name, end - start, end - start - child_time[i],
                    root_of[i], in_ic[i]))
    return out


def layer_metrics(tracer, run):
    """Per-layer metrics of one traced round (see ``perfbench/README.md``).

    Layer self times cover every span.  Call counts and busy times leave out
    the calls made inside the static initial condition, which
    ``truss.initial_displacement.s`` holds as a whole, so that the truss
    metrics count time stepping and assembly only.
    """
    spans = round_spans(tracer, run)
    calls, total, self_by_name = Counter(), Counter(), Counter()
    total_by_root = Counter()
    layer_self = Counter()
    for name, dur, own, root, in_ic in spans:
        layer_self[name.split(".", 1)[0]] += own
        if in_ic:
            continue
        calls[name] += 1
        total[name] += dur
        self_by_name[name] += own
        total_by_root[(root, name)] += dur

    def busy(*names):
        return sum(total[n] for n in names)

    m = {}
    for short in ("internal_force_rows", "tangent_stiffness_block"):
        name = "truss." + short
        m[name + ".calls"] = calls[name]
        m[name + ".s"] = total[name]
        m[name + ".s_per_call"] = total[name] / calls[name] if calls[name] else 0.0
    for short in ("internal_force", "tangent_stiffness", "initial_displacement"):
        m["truss.%s.calls" % short] = calls["truss." + short]
        m["truss.%s.s" % short] = total["truss." + short]
    m["truss.mass.s"] = busy("truss.mass_dense", "truss.mass_entries")
    m["truss.external_force.s"] = busy("truss.external_force",
                                       "truss.external_force_rows")
    m["truss.potential_energy.s"] = busy("truss.potential_energy",
                                         "truss.potential_energy_sparse")

    counters = tracer.counters[run]
    for key in ("steps", "newton_iters", "failed_steps", "residual_evals",
                "jacobian_evals"):
        m["midpoint." + key] = counters[key]
    m["midpoint.jacobians_per_iter"] = (
        counters["jacobian_evals"] / counters["newton_iters"]
        if counters["newton_iters"] else 0.0)
    m["midpoint.self_s"] = self_by_name["midpoint.implicit_midpoint_solve"]

    for variant, builder in (("galerkin", "roms.build_galerkin"),
                             ("sp_rbs", "roms.build_structure_preserving"),
                             ("sp_matrix_gappy", "roms.build_structure_preserving")):
        m["roms.build_s." + variant] = total_by_root[("online_s." + variant, builder)]
    m["roms.energy_s"] = busy("roms.reduced_total_energy", "roms.total_energy")

    m["potential_map.build_s"] = total["potential_map.build_potential_map"]
    m["potential_map.self_s"] = (self_by_name["potential_map.approx_reduced_gradient"]
                                 + self_by_name["potential_map.approx_reduced_hessian"])

    m["spd_approx.rbs_fit.s"] = total["spd_approx.rbs_fit"]
    m["spd_approx.matrix_gappy_basis.s"] = total["spd_approx.build_matrix_gappy_basis"]
    m["spd_approx.matrix_pod_modes.s"] = total["spd_approx.matrix_pod_modes"]
    m["spd_approx.gappy_matrix_coeffs.s"] = total["spd_approx.gappy_matrix_coeffs"]
    m["sampling.greedy_s"] = total["sampling.greedy_sample_indices"]
    m["sampling.validate_s"] = total["sampling.validate_sample_set"]
    m["gappy.build_s"] = total["gappy.build_force_reconstructor"]
    m["gappy.apply_s"] = total["gappy.apply_force_reconstructor"]
    m["pod.s"] = total["pod.compute_pod_basis"]
    m["bench.run_offline.self_s"] = self_by_name["bench.run_offline"]
    m["bench.reduce_products.self_s"] = self_by_name["bench.reduce_products"]

    # Online split on the benchmark's clock: model, initial condition,
    # ROM assembly, stepping.
    m["hfm.ic_s"] = total_by_root[("hfm_s", "truss.initial_displacement")]
    m["hfm.stepping_s"] = total_by_root[("hfm_s", "roms.integrate_full_model")]
    for variant in ("galerkin", "sp_rbs", "sp_matrix_gappy"):
        root = "online_s." + variant
        m["online.model_s." + variant] = total_by_root[(root, "truss.build_truss")]
        m["online.ic_s." + variant] = total_by_root[(root, "truss.initial_displacement")]
        m["online.assembly_s." + variant] = total_by_root[(root, "bench.build_variant")]
        m["online.stepping_s." + variant] = total_by_root[(root, "roms.integrate_rom")]

    for layer in LAYERS:
        m["layer.%s.self_s" % layer] = layer_self[layer]
    phases = [(dur, own) for name, dur, own, root, _ in spans if name == root]
    m["trace.wall_s"] = sum(dur for dur, _ in phases)
    m["trace.unattributed_s"] = sum(own for _, own in phases)
    m["trace.spans"] = len(spans)
    return m

"""Traced run of the ``memsfde`` CLI and the per-layer figures derived from it.

Run as ``python3 perfbench/tracer.py SPANS_JSON <cli arguments>``: it wraps
each layer's public functions under every module name that callers look them
up by (``lq_memory.solve_absde`` as well as ``adjoint.solve_absde``), runs
``memsfde.cli.main`` with the remaining arguments and, when the CLI returns,
writes the spans and counts it kept in memory to SPANS_JSON.  The program's
files are not touched; only this process's module attributes are replaced.

A span is (name, start ns, end ns, parent index).  ``layer_metrics`` turns a
span file into the per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import logging
import sys
import time

EMPTY = {"spans": [], "counts": {}}
COEFFICIENT_FIELDS = ("drift", "diffusion", "jump", "running_cost", "terminal_cost")


class Tracer:
    """In-memory span and count recorder for one process."""

    def __init__(self):
        self.spans: list = []  # [name, start_ns, end_ns, parent]
        self.counts: dict = {}
        self._stack: list = []

    def count(self, name: str, amount=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = [name, time.perf_counter_ns(), 0, parent]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[2] = time.perf_counter_ns()

    def wrap(self, name: str, fn, prepare=None, after=None):
        """``fn`` recorded as span ``name``; ``prepare`` may rewrite the bound
        arguments first and ``after`` sees the bound arguments and result."""
        if getattr(fn, "__traced__", False):
            return fn
        signature = inspect.signature(fn) if (prepare or after) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if signature is None:
                return self.call(name, fn, *args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            if prepare is not None:
                prepare(bound.arguments)
            result = self.call(name, fn, *bound.args, **bound.kwargs)
            if after is not None:
                after(bound.arguments, result)
            return result

        wrapper.__traced__ = True
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


class _TracedGenerator:
    """Proxy of a numpy Generator whose draws are spans of the noise layer."""

    def __init__(self, tracer: Tracer, generator):
        self._tracer = tracer
        self._generator = generator

    def __getattr__(self, attr):
        value = getattr(self._generator, attr)
        if not callable(value):
            return value

        def draw(*args, **kwargs):
            self._tracer.count("grid.noise_draws")
            return self._tracer.call("grid.noise", value, *args, **kwargs)

        return draw


def _replace_everywhere(namespaces, original, replacement) -> None:
    """Point every name in ``namespaces`` that refers to ``original`` at
    ``replacement``."""
    for namespace in namespaces:
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer that the CLI reaches."""
    from memsfde import adjoint, cli, engine, grid, lq_memory, mean_variance, measures, picard

    modules = (grid, measures, engine, picard, adjoint, mean_variance, lq_memory, cli, sys.modules["memsfde"])
    # module globals plus the CLI's subcommand table
    namespaces = [vars(m) for m in modules] + [cli.RUNNERS]

    def patch(module, attr, name, prepare=None, after=None):
        original = getattr(module, attr)
        _replace_everywhere(namespaces, original, tracer.wrap(name, original, prepare, after))

    def coefficient(fn):
        return tracer.wrap("engine.coefficients", fn) if fn is not None else None

    def trace_coefficients(arguments):
        coeffs = arguments.get("coeffs")
        if coeffs is not None:
            arguments["coeffs"] = dataclasses.replace(
                coeffs, **{f: coefficient(getattr(coeffs, f)) for f in COEFFICIENT_FIELDS}
            )

    def record_ensemble(ens) -> None:
        arrays = (ens.paths, ens.controls_full, ens.brownian, ens.jump_counts)
        tracer.peak("engine.ensemble_bytes", sum(a.nbytes for a in arrays if a is not None))

    def after_simulate(arguments, ens):
        tracer.count("engine.particle_steps", ens.grid.n_particles * ens.grid.n_steps)
        record_ensemble(ens)

    def after_picard(arguments, result):
        ens, report = result
        record_ensemble(ens)
        tracer.count("picard.sweeps", sum(report.iterations))

    def prepare_absde(arguments):
        if arguments.get("driver") is not None:
            arguments["driver"] = tracer.wrap("adjoint.driver", arguments["driver"])
        if arguments.get("basis") is not None:
            arguments["basis"] = tracer.wrap("adjoint.basis", arguments["basis"])

    def after_absde(arguments, result):
        triple = result[0] if isinstance(result, tuple) else result
        tracer.count("adjoint.regression_steps", triple.grid.n_steps)
        tracer.count("adjoint.deficient_steps", len(triple.deficient_steps))

    # grid: building the per-step streams and drawing from them
    step_generator = grid.step_generator
    _replace_everywhere(
        namespaces,
        step_generator,
        tracer.wrap("grid.noise", lambda *a, **k: _TracedGenerator(tracer, step_generator(*a, **k))),
    )

    # measures: every empirical law built, wherever it is built from
    post_init = measures.EmpiricalMeasure.__post_init__

    def counted_post_init(self):
        tracer.count("measures.empirical_measures_built")
        post_init(self)

    measures.EmpiricalMeasure.__post_init__ = counted_post_init

    # engine: simulation, pathwise cost, and the user-supplied callables
    patch(engine, "simulate", "engine.simulate", trace_coefficients, after_simulate)
    patch(engine, "pathwise_cost", "engine.pathwise_cost", trace_coefficients)
    as_control = engine.as_control
    _replace_everywhere(
        namespaces,
        as_control,
        lambda obj: as_control(coefficient(obj) if callable(obj) else obj),
    )

    # picard
    patch(picard, "picard_solve", "picard.picard_solve", trace_coefficients, after_picard)
    patch(picard, "consistency_check", "picard.consistency_check")

    # adjoint
    patch(adjoint, "default_basis", "adjoint.basis")
    patch(adjoint, "solve_absde", "adjoint.solve_absde", prepare_absde, after_absde)
    patch(adjoint, "stationarity_gap", "adjoint.stationarity_gap")

    # mean_variance
    patch(mean_variance, "solve_closed_form", "mean_variance.solve_closed_form")
    patch(mean_variance, "simulate_optimal", "mean_variance.simulate_optimal")
    patch(mean_variance, "verify_adjoint", "mean_variance.verify_adjoint")
    patch(mean_variance, "j_comparison", "mean_variance.j_comparison")

    # lq_memory: the basis factory's product is part of the adjoint layer
    lq_basis = lq_memory.lq_basis
    lq_memory.lq_basis = functools.wraps(lq_basis)(
        lambda *a, **k: tracer.wrap("adjoint.basis", lq_basis(*a, **k))
    )
    patch(
        lq_memory,
        "solve_lq",
        "lq_memory.solve_lq",
        after=lambda arguments, result: tracer.count("lq_memory.sweeps", result[2].iterations),
    )
    patch(lq_memory, "verify_lq", "lq_memory.verify_lq")

    # cli: the subcommand body and artifact writing
    for attr in ("run_simulate", "run_picard", "run_norms", "run_meanvar", "run_lq"):
        patch(cli, attr, "cli.run")
    patch(cli, "write_csv", "cli.write")
    patch(cli, "_emit", "cli.write")


# ---------------------------------------------------------------------------
# span file -> per-layer metrics


def outermost(spans: list) -> dict:
    """Span name -> indices of the spans of that name that no span of the
    same name encloses (so nested calls are not counted twice)."""
    found: dict = {}
    for index, (name, _, _, parent) in enumerate(spans):
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            found.setdefault(name, []).append(index)
    return found


def self_times(spans: list) -> list:
    """Duration of each span minus the part its direct children cover (ns)."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(trace: dict) -> dict:
    """Per-layer values of one traced CLI run, keyed by metric name."""
    spans, counts = trace["spans"], trace["counts"]
    own = self_times(spans)
    groups = outermost(spans)

    def total(name):
        return sum(spans[i][2] - spans[i][1] for i in groups.get(name, ())) / 1e9

    def own_total(name):
        return sum(own[i] for i in groups.get(name, ())) / 1e9

    def calls(name):
        return len(groups.get(name, ()))

    simulate_s = total("engine.simulate")
    particle_steps = counts.get("engine.particle_steps", 0)
    solve_lq_s = total("lq_memory.solve_lq")
    lq_sweeps = counts.get("lq_memory.sweeps", 0)
    return {
        "grid.noise_s": total("grid.noise"),
        "grid.noise_draws": counts.get("grid.noise_draws", 0),
        "engine.simulate_s": simulate_s,
        "engine.simulate_calls": calls("engine.simulate"),
        "engine.simulate_ns_per_particle_step": simulate_s * 1e9 / particle_steps if particle_steps else 0.0,
        "engine.simulate_self_s": own_total("engine.simulate"),
        "engine.coefficients_s": total("engine.coefficients"),
        "engine.pathwise_cost_s": total("engine.pathwise_cost"),
        "engine.ensemble_mb": counts.get("engine.ensemble_bytes", 0) / 2**20,
        "measures.empirical_measures_built": counts.get("measures.empirical_measures_built", 0),
        "picard.picard_solve_s": total("picard.picard_solve"),
        "picard.picard_solve_calls": calls("picard.picard_solve"),
        "picard.sweeps": counts.get("picard.sweeps", 0),
        "picard.consistency_check_s": total("picard.consistency_check"),
        "adjoint.solve_absde_s": total("adjoint.solve_absde"),
        "adjoint.solve_absde_calls": calls("adjoint.solve_absde"),
        "adjoint.basis_s": total("adjoint.basis"),
        "adjoint.driver_s": total("adjoint.driver"),
        "adjoint.solve_absde_self_s": own_total("adjoint.solve_absde"),
        "adjoint.regression_steps": counts.get("adjoint.regression_steps", 0),
        "adjoint.deficient_steps": counts.get("adjoint.deficient_steps", 0),
        "adjoint.stationarity_gap_s": total("adjoint.stationarity_gap"),
        "mean_variance.verify_adjoint_s": total("mean_variance.verify_adjoint"),
        "mean_variance.j_comparison_s": total("mean_variance.j_comparison"),
        "mean_variance.simulate_optimal_calls": calls("mean_variance.simulate_optimal"),
        "lq_memory.solve_lq_s": solve_lq_s,
        "lq_memory.verify_lq_s": total("lq_memory.verify_lq"),
        "lq_memory.sweeps": lq_sweeps,
        "lq_memory.sweep_s": solve_lq_s / lq_sweeps if lq_sweeps else 0.0,
        "cli.run_s": total("cli.run"),
        "cli.write_s": total("cli.write"),
    }


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from memsfde import cli

    tracer = Tracer()
    install(tracer)
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    code = tracer.call("cli.main", cli.main, cli_args)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Per-layer tracer that wraps airsnet's public functions from outside.

Each wrapper is installed at the binding its caller looks up (a module
attribute, an imported name, or a class attribute), so the program itself is
not edited. A span records its name, parent span, thread, start and end, plus
a work count (integrand points, channel rows, draws). Parent stacks are
thread-local because the `cell` workload runs a thread pool; spans are kept in
memory and aggregated or written out after the run.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict

import numpy as np

_INTEGRAND = "analytic.integrand"


class Tracer:
    def __init__(self) -> None:
        from airsnet.mathkit import IntegrationError

        self._integration_error = IntegrationError
        self.spans: list[tuple] = []  # (id, parent, name, thread, start, end, work, error)
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, work=None):
        """Run fn(*args, **kwargs) inside a span; work(args, kwargs, result) -> count."""
        sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else -1
        stack.append(sid)
        result = None
        first_error = 0
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except self._integration_error as exc:
            if not getattr(exc, "_bench_counted", False):
                exc._bench_counted = True
                first_error = 1
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            count = work(args, kwargs, result) if work is not None and result is not None else 0
            self.spans.append((sid, parent, name, threading.get_ident(), start, end,
                               count, first_error))

    def wrap(self, name, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, work)

        return traced

    def wrap_integrator(self, name, fn):
        """Wrap an integrator so its integrand callbacks become child spans.

        The integrator span's work count is the number of points its own
        integrand was evaluated at.
        """

        @functools.wraps(fn)
        def traced(f, *args, **kwargs):
            points = [0]

            def integrand(x):
                points[0] += int(np.size(x))
                return self.call(_INTEGRAND, f, (x,), {})

            return self.call(name, fn, (integrand, *args), kwargs,
                             work=lambda a, k, r: points[0])

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed self time, summed duration, work, errors.

        Self time is a span's duration minus the durations of its direct
        children (children run on the parent's thread).
        """
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, _, name, _, start, end, count, err in self.spans:
            t = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                      "work": 0, "errors": 0})
            t["calls"] += 1
            t["self_s"] += (end - start) - child_time.get(sid, 0.0)
            t["total_s"] += end - start
            t["work"] += count
            t["errors"] += err
        return out

    def write_spans(self, path) -> None:
        """Write every span as CSV (times relative to the first span start)."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        threads = {tid: i for i, tid in enumerate(dict.fromkeys(s[3] for s in self.spans))}
        lines = ["id,parent,name,thread,start_s,end_s,work,error"]
        for sid, parent, name, tid, start, end, count, err in sorted(self.spans):
            lines.append(f"{sid},{parent},{name},{threads[tid]},{start - t0:.9f},"
                         f"{end - t0:.9f},{count},{err}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def _arg(fn, name):
    """work() reading argument `name` of fn, wherever the caller passed it."""
    sig = inspect.signature(fn)

    def work(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return int(bound.arguments[name])

    return work


def _result_size(args, kwargs, result):
    return int(np.size(result))


def install(tracer: Tracer) -> None:
    """Patch airsnet's layer boundaries; call before running the experiment."""
    from airsnet import analytic, cli, config, experiments, mathkit, mixgamma, simulate

    for attr, name in (("integrate_semi_infinite_with_error", "mathkit.semi_inf"),
                       ("integrate_interval_with_error", "mathkit.interval")):
        setattr(analytic, attr, tracer.wrap_integrator(name, getattr(analytic, attr)))

    for attr in ("rate_active", "average_metric", "cascaded_mixture",
                 "mean_snr_integral", "mean_snr_closed", "snr_moment_active"):
        setattr(analytic, attr, tracer.wrap(f"analytic.{attr}", getattr(analytic, attr)))

    sample = mixgamma.MixtureGamma.sample
    mixgamma.MixtureGamma.sample = tracer.wrap("mixgamma.sample", sample,
                                               _arg(sample, "size"))

    # simulate binds the batch kernels by name at import.
    for attr in ("snr_active_batch", "snr_direct_batch", "snr_passive_batch"):
        setattr(simulate, attr, tracer.wrap("channel.batch", getattr(simulate, attr),
                                            _result_size))

    for attr in ("drop", "associate", "simulate_cell"):
        setattr(simulate, attr, tracer.wrap(f"simulate.{attr}", getattr(simulate, attr)))
    for attr in ("model_snr_moment_mc", "physical_snr_mc"):
        fn = getattr(simulate, attr)
        setattr(simulate, attr, tracer.wrap(f"simulate.{attr}", fn, _arg(fn, "n")))

    for module in (mathkit, config, experiments, cli):
        module.gauss_laguerre = tracer.wrap("mathkit.gauss_laguerre", module.gauss_laguerre)

    cli.run_experiment = tracer.wrap("experiments.run_experiment", cli.run_experiment)


def layer_metrics(tracer: Tracer, main_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced experiment run."""
    tot = tracer.totals()

    def get(name, key):
        return tot.get(name, {}).get(key, 0)

    m: dict[str, float] = {}
    for name in ("mathkit.semi_inf", "mathkit.interval"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.points"] = get(name, "work")
        m[f"{name}.self_s"] = get(name, "self_s")
    m["mathkit.integration_errors"] = get("mathkit.semi_inf", "errors") + get(
        "mathkit.interval", "errors")
    m["mathkit.gauss_laguerre.self_s"] = get("mathkit.gauss_laguerre", "self_s")
    m["analytic.integrand.self_s"] = get(_INTEGRAND, "self_s")
    for fn in ("rate_active", "average_metric", "cascaded_mixture",
               "mean_snr_integral", "mean_snr_closed", "snr_moment_active"):
        m[f"analytic.{fn}.calls"] = get(f"analytic.{fn}", "calls")
        m[f"analytic.{fn}.self_s"] = get(f"analytic.{fn}", "self_s")
    m["mixgamma.sample.calls"] = get("mixgamma.sample", "calls")
    m["mixgamma.sample.draws"] = get("mixgamma.sample", "work")
    m["mixgamma.sample.self_s"] = get("mixgamma.sample", "self_s")
    m["channel.batch.calls"] = get("channel.batch", "calls")
    m["channel.batch.rows"] = get("channel.batch", "work")
    m["channel.batch.self_s"] = get("channel.batch", "self_s")
    for fn in ("drop", "associate", "simulate_cell", "model_snr_moment_mc",
               "physical_snr_mc"):
        m[f"simulate.{fn}.calls"] = get(f"simulate.{fn}", "calls")
        m[f"simulate.{fn}.self_s"] = get(f"simulate.{fn}", "self_s")
    m["simulate.mc_draws"] = get("simulate.model_snr_moment_mc", "work") + get(
        "simulate.physical_snr_mc", "work")
    run_s = get("experiments.run_experiment", "total_s")
    m["experiments.run_experiment.s"] = run_s
    m["cli.overhead_s"] = main_s - run_s
    return m

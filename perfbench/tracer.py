"""Spans around comblab's layer boundaries, recorded from the benchmark's
own files.

:func:`installed` replaces each traced function or method with a wrapper
for the length of one operation and puts the original back afterwards.  A
wrapper is installed where callers look the name up: module functions in
the module that imports them (``comblab.learners.mset_prox``, not only
``comblab.proximal.mset_prox``), methods on the class that defines them.

A span is ``[name, start_ns, end_ns, parent, trial, t]``.  The parent is
the index of the enclosing span (-1 for none).  ``trial`` counts the loss
streams built so far in the operation (-1 before the first, while the
harness builds its set, probe learner and adversary) and ``t`` is the
round last asked of the stream, so the spans of one round share
``(trial, t)``.  Spans stay in memory; :func:`write_jsonl` writes them out.
"""

import json
import statistics
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Spans and captured values of one traced operation."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.trial = -1
        self.t = 0
        self.policies = {}      # (learner, trial, t) -> first proposed policy
        self.samples = {}       # (learner, trial, t) -> sampled vertex
        self.prox_steps = []    # (x_old, step, x_new, m) per m-set prox call
        self.solver_info = {"proximal.flow_projection": [],
                            "proximal.flow_newton": []}

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` inside a span named ``name``; the hooks run before the span
        opens and after it closes."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            span = [name, 0, 0, stack[-1] if stack else -1, self.trial, self.t]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, out)
            return out

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced


# -- hooks -------------------------------------------------------------------

def _new_trial(tracer, args):
    tracer.trial += 1
    tracer.t = 0


def _set_round(tracer, args):
    tracer.t = int(args[1])


def _keep_policy(tracer, args, out):
    tracer.policies.setdefault((args[0].name, tracer.trial, tracer.t), out)


def _keep_sample(tracer, args, out):
    tracer.samples[(args[0].name, tracer.trial, tracer.t)] = out


def _keep_prox(tracer, args, out):
    tracer.prox_steps.append((args[0], args[1], out[0], args[2]))


def _keep_info(name):
    def keep(tracer, args, out):
        tracer.solver_info[name].append(out[1])
    return keep


def _patch_points(comblab):
    """``(owner, attribute, span name, before, after)`` for every boundary."""
    adv, dom, lrn = comblab.adversaries, comblab.domain, comblab.learners
    har, reg = comblab.harness, comblab.regularizers
    points = []
    for cls in _subclasses(adv, adv.LossStream):
        points.append((cls, "__init__", "adversaries.stream_build",
                       _new_trial, None))
        points.append((cls, "loss", "adversaries.loss", _set_round, None))
    points.append((dom.DecisionSet, "validate_loss", "domain.validate_loss",
                   None, None))
    for cls in _subclasses(dom, dom.DecisionSet):
        points.append((cls, "best_vertex", "domain.best_vertex", None, None))
    points.append((lrn.Learner, "propose", "learners.propose", None,
                   _keep_policy))
    points.append((lrn.Learner, "absorb", "learners.absorb", None, None))
    for cls in _subclasses(lrn, lrn.Learner):
        if "sample" in vars(cls):
            points.append((cls, "sample", "learners.sample", None, _keep_sample))
    points += [
        (lrn, "weight_pushing_marginals", "learners.weight_pushing", None, None),
        (lrn, "shift_losses", "learners.shift_losses", None, None),
        (lrn, "mset_prox", "proximal.mset_prox", None, _keep_prox),
        (lrn, "flow_prox_newton", "proximal.flow_newton", None,
         _keep_info("proximal.flow_newton")),
        (lrn, "sinkhorn_flow_projection", "proximal.flow_projection", None,
         _keep_info("proximal.flow_projection")),
        (lrn, "sample_path", "sampling.sample_path", None, None),
        (lrn, "sample_mset", "sampling.sample_mset", None, None),
        (lrn, "sample_explicit", "sampling.sample_explicit", None, None),
        (har, "build_set", "harness.build", None, None),
        (har, "build_learner", "harness.build", None, None),
        (har, "build_adversary", "harness.build", None, None),
        (har.ExperimentResult, "to_csv", "harness.csv", None, None),
    ]
    for cls in _subclasses(reg, reg.Regularizer):
        for method in ("value", "grad", "hessian_quadform", "hessian_matrix"):
            if method in vars(cls):
                points.append((cls, method, f"regularizers.{method}", None, None))
    return points


def _subclasses(module, base):
    return [obj for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, base) and obj is not base]


@contextmanager
def installed(tracer, comblab):
    """Route comblab's layer boundaries through ``tracer`` inside the block."""
    originals = []
    try:
        for owner, attr, name, before, after in _patch_points(comblab):
            original = vars(owner)[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, before, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer figures
# ---------------------------------------------------------------------------

ROOT_SPAN = "harness.run_experiment"
TIMED_CALLS = {  # metric -> span whose durations it summarises
    "adversaries.loss.us": "adversaries.loss",
    "domain.validate_loss.us": "domain.validate_loss",
    "domain.best_vertex.us": "domain.best_vertex",
    "learners.weight_pushing.us": "learners.weight_pushing",
    "proximal.mset_prox.us": "proximal.mset_prox",
    "proximal.flow_projection.us": "proximal.flow_projection",
    "proximal.flow_newton.us": "proximal.flow_newton",
    "sampling.sample_path.us": "sampling.sample_path",
}
#: calls beyond the 99th percentile needed before a p99 is a tail
TAIL_CALLS = 10


class LayerFigures:
    """Per-layer figures accumulated over the traced operations of a run.

    A cycle is one operation per config of the workload.  Totals per cycle
    are summarised by their median over the traced cycles.
    """

    def __init__(self):
        self.durations = {}          # span name -> list of ns
        self.self_total_ns = {}      # span name -> summed self time
        self.calls = {}              # span name -> count
        self.loop_rounds = 0         # (trial, t) pairs run
        self.learner_rounds = 0
        self.csv_rows = 0
        self.csv_ns = 0
        self.root_self_ns = 0
        self.root_child_ns = 0
        self.traced_ns = 0
        self.solver_iterations = {"proximal.flow_projection": [],
                                  "proximal.flow_newton": []}
        self.cycles = []             # per-cycle totals (dicts)
        self._cycle = self._new_cycle()

    @staticmethod
    def _new_cycle():
        return {"build_ns": 0, "csv_ns": 0, "regularizer_ns": 0,
                "traced_ns": 0, "untraced_ns": 0}

    def add(self, tracer, config, traced_ns, untraced_ns, csv_rows):
        spans = tracer.spans
        child_ns = [0] * len(spans)
        under_newton = [False] * len(spans)
        for i, (name, start, end, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += end - start
                under_newton[i] = (spans[parent][0] == "proximal.flow_newton"
                                   or under_newton[parent])
        cycle = self._cycle
        for i, (name, start, end, parent, _, _) in enumerate(spans):
            duration = end - start
            own = duration - child_ns[i]
            self.durations.setdefault(name, []).append(duration)
            self.self_total_ns[name] = self.self_total_ns.get(name, 0) + own
            self.calls[name] = self.calls.get(name, 0) + 1
            if name == "harness.build":
                cycle["build_ns"] += duration
            elif name == "harness.csv":
                cycle["csv_ns"] += duration
                self.csv_ns += duration
            elif name.startswith("regularizers.") and under_newton[i]:
                cycle["regularizer_ns"] += own
            elif name == ROOT_SPAN:
                self.root_self_ns += own
                self.root_child_ns += child_ns[i]
        for name, infos in tracer.solver_info.items():
            self.solver_iterations[name] += [info["iterations"] for info in infos]
        self.loop_rounds += config.trials * config.horizon
        self.learner_rounds += (config.trials * config.horizon
                                * len(config.learner_specs))
        self.csv_rows += csv_rows
        self.traced_ns += traced_ns
        cycle["traced_ns"] += traced_ns
        cycle["untraced_ns"] += untraced_ns

    def end_cycle(self):
        self.cycles.append(self._cycle)
        self._cycle = self._new_cycle()

    def _median(self, name, scale):
        values = self.durations.get(name)
        return statistics.median(values) / scale if values else 0.0

    def _per_cycle(self, key):
        return statistics.median(c[key] for c in self.cycles) / 1e9

    def metrics(self):
        """Every per-layer metric, 0 where the workload makes no such call."""
        out = {metric: self._median(span, 1e3)
               for metric, span in TIMED_CALLS.items()}
        projection = self.solver_iterations["proximal.flow_projection"]
        newton = self.solver_iterations["proximal.flow_newton"]
        out.update({
            "adversaries.stream_build.ms":
                self._median("adversaries.stream_build", 1e6),
            "domain.validate_loss.per_round":
                self.calls.get("domain.validate_loss", 0) / self.loop_rounds,
            "learners.weight_pushing.per_round":
                self.calls.get("learners.weight_pushing", 0) / self.loop_rounds,
            # per learner-round, not a median per call: the learners of one
            # workload differ, so their calls would split a median in two
            "learners.propose.us":
                sum(self.durations.get("learners.propose", ())) / 1e3
                / self.learner_rounds,
            "learners.absorb.self_us":
                self.self_total_ns.get("learners.absorb", 0) / 1e3
                / self.learner_rounds,
            # the solver reports the index of the sweep that met tolerance
            "proximal.flow_projection.sweeps":
                statistics.median(projection) + 1 if projection else 0.0,
            "proximal.flow_newton.iterations":
                statistics.median(newton) if newton else 0.0,
            "regularizers.self_s": self._per_cycle("regularizer_ns"),
            "harness.build.s": self._per_cycle("build_ns"),
            "harness.loop.self_us":
                self.root_self_ns / 1e3 / self.learner_rounds,
            "harness.csv.rows_per_s":
                self.csv_rows / (self.csv_ns / 1e9) if self.csv_ns else 0.0,
            "harness.csv.write_s": self._per_cycle("csv_ns"),
            "trace.coverage": self.root_child_ns / self.traced_ns,
            "trace.overhead_s": statistics.median(
                (c["traced_ns"] - c["untraced_ns"]) / 1e9 for c in self.cycles),
        })
        return out

    def tails(self):
        """p99 in microseconds of every span with enough calls beyond it."""
        return {f"{name}.us_p99": float(np.percentile(values, 99)) / 1e3
                for name, values in sorted(self.durations.items())
                if len(values) >= 100 * TAIL_CALLS}

    def call_counts(self):
        return dict(sorted(self.calls.items()))


def write_jsonl(path, operations):
    """One JSON object per span; ``operations`` is ``[(config index, spans)]``.

    Times are microseconds from the start of the operation's root span.
    """
    with open(path, "w") as fh:
        for op, (config_index, spans) in enumerate(operations):
            origin = spans[0][1] if spans else 0
            for i, (name, start, end, parent, trial, t) in enumerate(spans):
                fh.write(json.dumps({
                    "op": op, "config": config_index, "span": i,
                    "parent": parent, "name": name, "trial": trial, "t": t,
                    "start_us": (start - origin) / 1e3,
                    "dur_us": (end - start) / 1e3}) + "\n")

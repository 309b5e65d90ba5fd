"""In-memory spans around the public functions of ``pcsemi``.

``Tracer.install`` replaces each traced function, in every ``pcsemi``
module that holds it (so names one module imports from another are
covered too), with a wrapper that records a span: name, start, end and
parent.  Counters are kept at the same boundaries.  Scalar hot helpers
(``bowtie``, ``perturb_mask``) are not wrapped; their cost lands in the
self time of the function that calls them.  ``column_weights`` gets a
counter but no span, so its time stays in ``conditional_assignment``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

ROOT_SPAN = "bench.op"

# (module, function, span name or None for counter only)
TRACED = (
    ("graph_model", "gen_coupled", "graph_model.gen_coupled"),
    ("graph_model", "conditional_assignment", "graph_model.conditional_assignment"),
    ("graph_model", "column_weights", None),
    ("graph_model", "gen_semirandom", "graph_model.gen_semirandom"),
    ("analysis", "jaccard_experiment", "analysis.jaccard_experiment"),
    ("analysis", "chained_kl_bound", "analysis.chained_kl_bound"),
    ("analysis", "column_law_lines", "analysis.column_law_lines"),
    ("analysis", "kl_local_bound_lines", "analysis.kl_local_bound_lines"),
    ("recovery", "recover", "recovery.recover"),
    ("recovery", "maximal_cliques", "recovery.maximal_cliques"),
    ("recovery", "good_cliques", "recovery.good_cliques"),
    ("perturbed_bernoulli", "kl_exact", "perturbed_bernoulli.kl_exact"),
    ("perturbed_bernoulli", "chi2_exact", "perturbed_bernoulli.chi2_exact"),
    ("perturbed_bernoulli", "kl_bound", "perturbed_bernoulli.kl_bound"),
)

MODULES = ("pcsemi", "pcsemi.graph_model", "pcsemi.analysis", "pcsemi.recovery", "pcsemi.perturbed_bernoulli")

# Per-layer metrics in report order: self times (s per operation), then
# counts (per operation) and ratios.
SELF_TIMES = tuple(name for _, _, name in TRACED if name) + (ROOT_SPAN,)
COUNTS = (
    "graph_model.candidates_scored",
    "graph_model.fallback_draws",
    "analysis.law_candidates",
    "recovery.bk_nodes",
    "recovery.cliques_listed",
    "recovery.truncated",
    "perturbed_bernoulli.states",
)


def _count(counts: Counter, name: str, args, out) -> None:
    """Counters recorded at the boundary of the traced call ``name``."""
    if name == "column_weights":
        cands, weights = out
        counts["graph_model.candidates_scored"] += len(cands)
        counts["graph_model.fallback_draws"] += int(weights.sum() <= 0.0)
    elif name == "gen_coupled":
        counts["analysis.coupled_draws"] += 1
    elif name == "jaccard_experiment":
        if args[0] == "coupled":
            counts["analysis.coupled_accepted"] += len(out.values)
    elif name == "column_law_lines":
        counts["analysis.law_candidates"] += out.denominator
    elif name == "maximal_cliques":
        counts["recovery.bk_nodes"] += out.budget_used
        counts["recovery.cliques_listed"] += len(out.cliques)
        counts["recovery.truncated"] += int(out.truncated)
    elif name in ("kl_exact", "chi2_exact", "kl_bound"):
        counts["perturbed_bernoulli.states"] += 1 << args[0].s


class Tracer:
    """Spans kept as parallel lists; ``parent`` is an index or -1."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, func_name: str, span: str | None):
        tracer = self

        def traced(*args, **kwargs):
            if span is None:
                out = fn(*args, **kwargs)
            else:
                idx = tracer.open(span)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
            _count(tracer.counts, func_name, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = [sys.modules[name] for name in MODULES]
        for home, func_name, span in TRACED:
            fn = getattr(sys.modules[f"pcsemi.{home}"], func_name)
            wrapper = self.wrap(fn, func_name, span)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration less direct children."""
        child = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[idx] - self.starts[idx]
        out: dict[str, float] = defaultdict(float)
        for idx, name in enumerate(self.names):
            out[name] += self.ends[idx] - self.starts[idx] - child[idx]
        return dict(out)

    def per_layer(self, ops: int) -> dict[str, float]:
        """Per-operation self times and counts, plus the two ratios."""
        selfs = self.self_times()
        out = {f"{name}.self_s": selfs.get(name, 0.0) / ops for name in SELF_TIMES}
        out.update({name: self.counts[name] / ops for name in COUNTS})
        draws = self.counts["analysis.coupled_draws"]
        out["analysis.accepted_per_draw"] = self.counts["analysis.coupled_accepted"] / draws if draws else 0.0
        nodes = self.counts["recovery.bk_nodes"]
        out["recovery.cliques_per_node"] = self.counts["recovery.cliques_listed"] / nodes if nodes else 0.0
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for idx, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {"name": name, "start": self.starts[idx], "end": self.ends[idx], "parent": self.parents[idx]}
                    )
                    + "\n"
                )

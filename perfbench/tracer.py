"""Traced runner: one ``solgrow`` CLI job with spans around its layers.

    PYTHONPATH=src python3 perfbench/tracer.py SPANS_JSON -- <solgrow CLI args>

The runner imports ``solgrow``, wraps the public functions in ``TARGETS``
from the outside (``src/`` is not modified), rebinds every ``solgrow.*``
module attribute that holds one of the wrapped function objects, then calls
``solgrow.cli.main(argv)``. Spans are kept in memory as (name, start, end,
parent, counts) and written to SPANS_JSON when the job ends; the job's
stdout, output files and exit code are those of ``python -m solgrow.cli``.

Per-product calls (``__mul__``, ``mul``, ``conj``) are never wrapped, since
wrapping them would distort the timing; their cost shows as self time of
``enumerate_group`` and ``growth_table``.

The driver (``run.py``) imports this module only for ``summarize``, so the
module imports nothing from ``solgrow`` at import time.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _n_elements(args, kwargs, result, before) -> dict:
    return {"elements": result.n}


def _ball_elements(args, kwargs, result, before) -> dict:
    return {"elements": result.counts[-1], "peak_rss_mib": _rss_mib()}


def _length(key: str):
    return lambda args, kwargs, result, before: {key: len(result)}


def _was_sparse(args, kwargs) -> bool:
    return args[0]._rows is None


def _dense_entries(args, kwargs, built, was_sparse) -> dict | None:
    """Entries of a dense table this call actually built, else nothing."""
    if built and was_sparse:
        return {"entries": args[0].n ** 2, "peak_rss_mib": _rss_mib()}
    return None


# (module, attribute path, counter, before). A counter maps the call's
# arguments, result and the value `before` returned ahead of the call to the
# work counts recorded on the span; either may be None.
TARGETS = [
    ("solgrow.table", "FiniteGroupTable.ensure_dense", _dense_entries, _was_sparse),
    ("solgrow.table", "enumerate_group", _n_elements, None),
    ("solgrow.table", "subgroup_generated", None, None),
    ("solgrow.table", "reduce_generators", None, None),
    ("solgrow.table", "normal_closure", None, None),
    ("solgrow.table", "commutator_subgroup", None, None),
    ("solgrow.table", "conjugacy_classes", None, None),
    ("solgrow.table", "quotient", None, None),
    ("solgrow.growth", "growth_table", _ball_elements, None),
    ("solgrow.growth", "growth_exponent_fit", None, None),
    ("solgrow.bounds", "is_irreducible", None, None),
    ("solgrow.soluble", "soluble_subgroups", _length("count"), None),
    ("solgrow.soluble", "normal_subgroups", _length("size"), None),
    ("solgrow.soluble", "normal_subgroups_within", None, None),
    ("solgrow.soluble", "chief_series", None, None),
    ("solgrow.soluble", "sc_chief_rank", None, None),
    ("solgrow.mu", "mu_fast", None, None),
    ("solgrow.mu", "mu_bruteforce", None, None),
    ("solgrow.milnor", "certify_growth_lower_bound", None, None),
    ("solgrow.milnor", "milnor_chain", None, None),
    ("solgrow.specio", "load_genset", None, None),
    ("solgrow.catalog", "catalog", None, None),
    ("solgrow.smallcases", "verify_small_cases", None, None),
    ("solgrow.smallcases", "verify_transitive_exhaustive", None, None),
]

# Modules the CLI imports lazily inside its subcommands; the runner imports
# them up front (inside the cli.import span) so their functions can be wrapped.
LAZY_MODULES = ["solgrow.growth", "solgrow.milnor", "solgrow.smallcases"]


def span_name(module: str, attr: str) -> str:
    """Metric name of a target: module without package, then function name."""
    return module.split(".", 1)[1] + "." + attr.rsplit(".", 1)[-1]


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, counts]
        self.stack: list[int] = []
        self.overhead_s = 0.0

    def record(self, name: str, start: float, end: float) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, end, parent, None])

    def wrap(self, name: str, fn, counter, before):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            state = before(args, kwargs) if before is not None else None
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = clock()
                stack.pop()
                spans[idx][1], spans[idx][2] = t1, t2
            if counter is not None:
                spans[idx][4] = counter(args, kwargs, result, state)
            self.overhead_s += (t1 - t0) + (clock() - t2)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        """Wrap every target and rebind it in every loaded solgrow module."""
        t0 = time.perf_counter()
        replaced = {}
        for module_name, attr, counter, before in TARGETS:
            module = importlib.import_module(module_name)
            owner, _, fname = attr.rpartition(".")
            holder = getattr(module, owner) if owner else module
            original = getattr(holder, fname)
            wrapped = self.wrap(span_name(module_name, attr), original, counter, before)
            setattr(holder, fname, wrapped)
            replaced[id(original)] = (original, wrapped)
        for name, module in list(sys.modules.items()):
            if not name.startswith("solgrow") or module is None:
                continue
            for key, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])
        self.overhead_s += time.perf_counter() - t0

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "overhead_s": self.overhead_s}, fh)


def summarize(docs: list[dict]) -> dict:
    """Per-name totals over the span documents of one pass.

    Returns {"self_s": {name: s}, "calls": {name: n}, "counts": {name:
    {key: summed count}}, "peak_rss_mib": {name: max}, "coverage": share of
    cli.main time inside child spans, "overhead_s": summed tracer cost}.
    """
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, dict[str, int]] = {}
    peaks: dict[str, float] = {}
    main_total = main_self = overhead = 0.0
    for doc in docs:
        spans = doc["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _c in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _parent, cnt) in enumerate(spans):
            own = (end - start) - child_time[i]
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            if name == "cli.main":
                main_total += end - start
                main_self += own
            for key, value in (cnt or {}).items():
                if key == "peak_rss_mib":
                    peaks[name] = max(peaks.get(name, 0.0), value)
                else:
                    bucket = counts.setdefault(name, {})
                    bucket[key] = bucket.get(key, 0) + value
        overhead += doc["overhead_s"]
    coverage = (main_total - main_self) / main_total if main_total > 0 else 0.0
    return {
        "self_s": self_s,
        "calls": calls,
        "counts": counts,
        "peak_rss_mib": peaks,
        "coverage": coverage,
        "overhead_s": overhead,
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <solgrow CLI args>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    t0 = time.perf_counter()
    import solgrow.cli

    for name in LAZY_MODULES:
        importlib.import_module(name)
    tracer.record("cli.import", t0, time.perf_counter())
    tracer.install()
    t1 = time.perf_counter()
    tracer.record("cli.main", t1, t1)
    tracer.stack.append(len(tracer.spans) - 1)
    try:
        rc = solgrow.cli.main(cli_args)
    finally:
        tracer.spans[tracer.stack.pop()][2] = time.perf_counter()
        sys.stdout.flush()
        tracer.dump(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

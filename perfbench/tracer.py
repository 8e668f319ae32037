"""Per-layer tracing of creoletag, installed from outside the package.

`Tracer.install()` replaces public functions of the creoletag modules with
wrappers, in every module that binds them (``unify`` is imported by name
into ``engine`` and ``generate``, ``validate`` into ``dsl``, and so on), and
`uninstall()` puts the originals back.  Counts and spans accumulate over
every installed period.  Nothing under ``src/`` is edited.

Two kinds of wrapper:

* span functions record one span per call: name, start, end, parent span
  and the id of the benchmark operation that caused it.  A span's self
  time is its duration minus the time its child spans and counted calls
  cover;
* counted functions (``unify``, ``apply_fusion``, called ~95 000 times per
  ``table_tma``) record only a call count, failures and busy time, which
  is charged to the enclosing span as child time.

A call fails when it raises, or, for ``unify``, when it returns ``None``.
"""

from __future__ import annotations

import gzip
import sys
from time import perf_counter

# (module, function) pairs; the metric name is "<module>.<function>".
SPAN_FUNCTIONS = (
    ("generate", "table_tma"),
    ("generate", "generate"),
    ("generate", "realizations_from_finals"),
    ("recognize", "identify_dialect"),
    ("recognize", "recognize"),
    ("engine", "enumerate_derivations"),
    ("engine", "instantiate"),
    ("engine", "substitute"),
    ("engine", "adjoin"),
    ("engine", "finalize"),
    ("specialize", "specialize"),
    ("specialize", "project_language"),
    ("dsl", "load_grammar"),
    ("dsl", "serialize"),
    ("grammar", "validate"),
)
COUNTED_FUNCTIONS = (
    ("featstruct", "unify"),
    ("generate", "apply_fusion"),
)
# Counted functions whose `None` result means the call failed.
NONE_IS_FAILURE = {"featstruct.unify"}


class Stat:
    __slots__ = ("calls", "failed", "self_s")

    def __init__(self):
        self.calls = 0
        self.failed = 0
        self.self_s = 0.0


class Tracer:
    """Spans and counters for one process; create, install, run, uninstall."""

    def __init__(self):
        self.stats = {}
        self.spans = []  # (id, name, start, end, parent id, op id)
        self.op = -1
        self.generate_open = 0
        self.finalize_under_generate = 0
        self.realizations = 0
        self._stack = []  # [span id, child seconds] of each open span
        self._patched = []  # (module, attribute, original)

    # --- installation ---------------------------------------------------

    def install(self):
        import creoletag.dsl  # noqa: F401  (load every layer module)
        import creoletag.engine  # noqa: F401
        import creoletag.featstruct  # noqa: F401
        import creoletag.generate  # noqa: F401
        import creoletag.grammar  # noqa: F401
        import creoletag.recognize  # noqa: F401
        import creoletag.specialize  # noqa: F401

        targets = {}
        for kind, table in (("span", SPAN_FUNCTIONS),
                            ("count", COUNTED_FUNCTIONS)):
            for module, function in table:
                original = getattr(sys.modules["creoletag." + module], function)
                name = "%s.%s" % (module, function)
                self.stats.setdefault(name, Stat())
                wrap = self._span if kind == "span" else self._counted
                targets[id(original)] = (original, wrap(name, original))
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("creoletag") or module is None:
                continue
            for attribute, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attribute, value))
                    setattr(module, attribute, hit[1])

    def uninstall(self):
        for module, attribute, original in reversed(self._patched):
            setattr(module, attribute, original)
        self._patched.clear()

    # --- wrappers ---------------------------------------------------------

    def _span(self, name, original):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        is_generate = name == "generate.generate"
        is_finalize = name == "engine.finalize"

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            spans.append(None)
            stack.append(frame)
            if is_generate:
                self.generate_open += 1
            elif is_finalize and self.generate_open:
                self.finalize_under_generate += 1
            ok = False
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.self_s += duration - frame[1]
                if not ok:
                    stat.failed += 1
                elif is_generate:
                    self.realizations += len(result)
                if is_generate:
                    self.generate_open -= 1
                if stack:
                    stack[-1][1] += duration
                spans[span_id] = (span_id, name, start, end, parent, self.op)

        wrapper.__wrapped__ = original
        return wrapper

    def _counted(self, name, original):
        stat = self.stats[name]
        stack = self._stack
        none_fails = name in NONE_IS_FAILURE

        def wrapper(*args, **kwargs):
            start = perf_counter()
            failed = True
            try:
                result = original(*args, **kwargs)
                failed = none_fails and result is None
                return result
            finally:
                duration = perf_counter() - start
                stat.calls += 1
                stat.self_s += duration
                if failed:
                    stat.failed += 1
                if stack:
                    stack[-1][1] += duration

        wrapper.__wrapped__ = original
        return wrapper

    # --- results ----------------------------------------------------------

    def counts(self):
        """Machine-independent work counts: calls and failures per function."""
        out = {}
        for name, stat in sorted(self.stats.items()):
            out[name + ".calls"] = stat.calls
            out[name + ".failed"] = stat.failed
        out["generate.realizations"] = self.realizations
        out["generate.finalize_under_generate"] = self.finalize_under_generate
        return out

    def write_spans(self, path):
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id\tname\tstart\tend\tparent\top\n")
            for span in self.spans:
                out.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n" % span)


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0

"""Spans around calls into clickstats' public functions, recorded from outside.

``Hooks`` replaces a public function by a pass-through wrapper in every
clickstats module that holds it, so calls made inside the package (for
instance ``nonclassicality_report`` calling ``click_distribution``) pass
through the wrapper too. Two kinds of wrapper exist:

- the capture hook on ``click_distribution``, used in every run, keeps each
  returned click law for the checker and records no time;
- the trace wrappers, used only in the traced run, record one span per
  call: name, start, end, parent span and op id, kept in memory and written
  out when the run ends.
"""

from __future__ import annotations

import functools
import json
import re
import sys
import time
from collections import defaultdict

# Public functions traced, by module. The span name is "<module>.<function>".
TRACED = {
    "states": ("make_distribution",),
    "click_kernel": ("click_distribution", "nonclassicality_report"),
    "simulator": ("simulate",),
    "records": ("samples_to_text", "samples_from_text"),
    "estimators": ("qb_estimate", "mandel_q_estimate", "bootstrap_ci"),
    "cli": ("run_sweep", "main"),
}
MODULES = tuple(TRACED)


class Hooks:
    """Installs wrappers into the clickstats modules and removes them again."""

    def __init__(self):
        self._undo = []

    def wrap(self, module: str, name: str, make_wrapper) -> None:
        original = getattr(sys.modules[f"clickstats.{module}"], name)
        wrapper = functools.wraps(original)(make_wrapper(original))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "clickstats" and not mod_name.startswith("clickstats."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def remove(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()


def capture_laws(hooks: Hooks, store: list) -> None:
    """Keep every click law the program returns, for the checker."""

    def make(original):
        def captured(*args, **kwargs):
            law = original(*args, **kwargs)
            store.append(law)
            return law

        return captured

    hooks.wrap("click_kernel", "click_distribution", make)


class Tracer:
    """In-memory span recorder.

    A span is (name, start, end, parent, op, extra): ``parent`` is the index
    of the enclosing span or -1, ``op`` the id of the workload op it belongs
    to (-1 outside ops), ``extra`` a small dict, e.g. the n_max of a photon
    law.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self.enabled = True  # off while the checker runs

    def span(self, name: str):
        tracer = self

        class _Span:
            def __enter__(self):
                self.index = len(tracer.spans)
                parent = tracer._stack[-1] if tracer._stack else -1
                tracer.spans.append([name, time.perf_counter(), None, parent, tracer.op, {}])
                tracer._stack.append(self.index)
                return tracer.spans[self.index][5]

            def __exit__(self, *exc):
                tracer.spans[self.index][2] = time.perf_counter()
                tracer._stack.pop()
                return False

        return _Span()

    def install(self, hooks: Hooks) -> None:
        for module, names in TRACED.items():
            for name in names:
                hooks.wrap(module, name, self._wrapper(f"{module}.{name}"))

    def _wrapper(self, span_name: str):
        def make(original):
            def traced(*args, **kwargs):
                if not self.enabled:
                    return original(*args, **kwargs)
                with self.span(span_name) as extra:
                    result = original(*args, **kwargs)
                    extra.update(_describe(result, kwargs))
                    return result

            return traced

        return make

    # -- aggregation -------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[2] is not None]

    def self_seconds(self) -> dict[str, float]:
        """Per module: span time minus the time its child spans cover."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        totals = {module: 0.0 for module in MODULES}
        for index, (name, start, end, _, _, _) in enumerate(self.spans):
            module = name.split(".")[0]
            if end is not None and module in totals:
                totals[module] += (end - start) - child_time[index]
        return totals

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, extra in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "op": op, **extra}
                    )
                    + "\n"
                )


def _describe(result, kwargs) -> dict:
    """The work counts a span keeps, read off the call's result."""
    if isinstance(result, str):
        return {"bytes": len(result.encode())}
    if hasattr(result, "n_max"):  # PhotonNumberDistribution
        return {"n_max": int(result.n_max)}
    if hasattr(result, "trials") and hasattr(result, "config_echo"):  # ClickSampleSet
        dark = result.config_echo is not None and result.config_echo.nu > 0
        return {"trials": result.trials, "uniforms": result.trials * (1 + result.N * dark)}
    if hasattr(result, "discarded"):  # BootstrapInterval
        return {"replicates": kwargs.get("replicates", 1000), "discarded": result.discarded}
    return {}


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)$")


def import_self_seconds(importtime_stderr: str) -> dict[str, float]:
    """Self import time per top-level package from ``python -X importtime``."""
    totals = defaultdict(float)
    for line in importtime_stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            totals[match.group(4).split(".")[0]] += int(match.group(1)) / 1e6
    return totals

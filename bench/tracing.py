"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces each traced function wherever the ``ottosim``
modules bind it (``runner`` imports ``pd_block``, ``thermal_state`` and
others by name at import time, so patching the defining module alone would
miss those calls) and ``Tracer.remove`` restores the originals.  Spans stay
in memory; ``write`` saves them when the run ends.

A span is ``(name, start, end, parent, request, error)``: ``parent`` is the
index of the enclosing span or -1, ``error`` the exception class name or
None.  A call into a metric that is already the innermost open span (qwp
calling rotation, both under ``optics.rotation``) is folded into that span.
"""

import functools
import gzip
import json
import sys
import time

# metric name -> (module, attribute) of each public function it times;
# "Class.method" attributes patch the class.
TRACED = {
    "qcore.density_operator": [("qcore", "DensityOperator.__init__")],
    "qcore.partial_trace_path": [("qcore", "partial_trace_path")],
    "qcore.eig_herm": [("qcore", "eig_herm")],
    "qcore.entropy": [("qcore", "von_neumann_entropy"), ("qcore", "relative_entropy")],
    "qcore.fidelity": [("qcore", "fidelity")],
    "optics.pd_block": [("optics", "pd_block")],
    "optics.ipd_block": [("optics", "ipd_block")],
    "optics.rotation": [("optics", name) for name in
                        ("rotation", "hwp", "qwp", "expansion_unitary", "compression_unitary")],
    "thermo.thermal_state": [("thermo", "thermal_state")],
    "thermo.closed_form_energetics": [("thermo", "closed_form_energetics")],
    "thermo.work_heat": [("thermo", "work_from_states"), ("thermo", "heat_from_states")],
    "thermo.entropy_production": [("thermo", "entropy_production")],
    "tomography.measure_all": [("tomography", "measure_all")],
    "tomography.reconstruct": [("tomography", "reconstruct")],
    "tomography.load_golden_data": [("tomography", "load_golden_data")],
    "circuit.parse": [("circuit", "parse")],
    "circuit.compile_program": [("circuit", "compile_program")],
    "circuit.run": [("circuit", "CompiledCircuit.run")],
    "circuit.format_program": [("circuit", "format_program")],
    "runner.run_cycle": [("runner", "run_cycle")],
    "runner.run_sweep": [("runner", "run_sweep")],
    "runner.emit": [("runner", "emit")],
    "runner.load_report": [("runner", "load_report")],
    "runner.compare_golden": [("runner", "compare_golden")],
    "cli.main": [("cli", "main")],
}

REQUEST = "request"


class Tracer:
    """Records spans and the counts measured at the same boundaries."""

    def __init__(self):
        self.spans = []
        self.request = -1
        self.projections = 0
        self.emit_bytes = 0
        self._stack = []
        self._patched = []
        self._stokes_limit = None

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        stack = self._stack
        if stack and self.spans[stack[-1]][0] == name:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = stack[-1] if stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.request, None))
        stack.append(index)
        error = None
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (name, start, end, parent, self.request, error)

    def _wrap(self, name, fn):
        if name == "tomography.reconstruct":
            def traced(s, *args, **kwargs):
                # the condition under which reconstruct warns and projects
                if s.bloch_norm > 1.0 + self._stokes_limit:
                    self.projections += 1
                return self.span(name, fn, s, *args, **kwargs)
        elif name == "runner.emit":
            def traced(*args, **kwargs):
                data = self.span(name, fn, *args, **kwargs)
                self.emit_bytes += len(data)
                return data
        else:
            def traced(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)
        return functools.wraps(fn)(traced)

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every function in TRACED wherever an ottosim module binds it."""
        from ottosim import qcore

        self._stokes_limit = qcore.TOL["stokes_physical"]
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "ottosim" or n.startswith("ottosim."))]
        for name, targets in TRACED.items():
            for module_name, attr in targets:
                owner = sys.modules[f"ottosim.{module_name}"]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._patch(cls, method, self._wrap(name, getattr(cls, method)))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def _patch(self, owner, key, wrapper):
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def remove(self):
        """Restore every patched binding."""
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    # -- output ------------------------------------------------------------

    def write(self, path):
        """Save the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for index, (_, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(index)
    out = []
    for index, (_, start, end, _, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[index]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_totals(tracer):
    """Sums over the tracer's spans; totals of several processes add up key by key."""
    totals = {"projections": tracer.projections, "emit_bytes": tracer.emit_bytes}
    for name in TRACED:
        totals.update({f"{name}.calls": 0, f"{name}.self_s": 0.0, f"{name}.errors": 0})
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name = span[0]
        if name in TRACED:
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += own
            totals[f"{name}.errors"] += span[5] is not None
    return totals


def layer_metrics(totals, requests, cycles):
    """Per-request calls and self time of each traced function, plus the ratios."""
    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = (totals[f"{name}.calls"] / requests, "calls/req")
        metrics[f"{name}.self_ms"] = (totals[f"{name}.self_s"] * 1e3 / requests, "ms/req")
    blocks = totals["optics.pd_block.calls"] + totals["optics.ipd_block.calls"]
    metrics["optics.blocks_per_cycle"] = (ratio(blocks, cycles), "count")
    metrics["tomography.projections"] = (totals["projections"] / requests, "1/req")
    metrics["tomography.projections_per_tap"] = (
        ratio(totals["projections"], totals["tomography.reconstruct.calls"]), "ratio")
    for key, name in (("parse", "circuit.parse"), ("compile", "circuit.compile_program")):
        metrics[f"circuit.{key}.rejected_frac"] = (
            ratio(totals[f"{name}.errors"], totals[f"{name}.calls"]), "ratio")
    metrics["runner.emit.bytes"] = (totals["emit_bytes"] / requests, "B/req")
    return metrics

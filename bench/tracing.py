"""In-memory tracing of relmodes layers from outside the program.

`Tracer.install` replaces each traced function, in every relmodes module
namespace that holds it, with a wrapper that records a span (name, start,
end, parent). Callers look the names up at call time, so the wrapper sees
every call the program makes. Per-name totals are kept for every call;
full spans are kept for the first traced round only and written out when
the run ends. A traced function the program no longer defines is listed
as absent and reports zero calls.
"""

import importlib
import sys
import time

# (module, function, metric name, metrics reported: calls, busy ms,
# self ms); the CLI command handlers are named after their commands
TARGETS = [
    ("floquet", "lf_qns_components", "floquet.lf_qns_components", ("calls", "ms")),
    ("floquet", "lf_transform", "floquet.lf_transform", ("calls", "ms")),
    ("floquet", "modal_constants", "floquet.modal_constants", ("calls", "ms")),
    ("floquet", "lf_defining_residual", "floquet.lf_defining_residual", ("calls", "ms")),
    ("geometry", "geo_map", "geometry.geo_map", ("calls", "ms")),
    ("geometry", "g_inverse", "geometry.g_inverse", ("calls", "ms")),
    ("modal", "reconstruct", "modal.reconstruct", ("calls", "self_ms")),
    ("modal", "mode_trajectory", "modal.mode_trajectory", ("calls", "self_ms")),
    ("modal", "sweep_bounded_family", "modal.sweep_bounded_family", ("self_ms",)),
    ("orbit", "theta_to_time", "orbit.theta_to_time", ("calls", "ms")),
    ("orbit", "time_to_theta", "orbit.time_to_theta", ("calls", "ms")),
    ("plants", "cartesian_plant_keplerian", "plants.cartesian_plant_keplerian",
     ("calls", "self_ms")),
    ("numeric", "numeric_modal_decomp", "numeric.numeric_modal_decomp", ("self_ms",)),
    ("numeric", "fourier_periodic_fit", "numeric.fourier_periodic_fit", ("ms",)),
    ("numeric", "integrate_stm", "numeric.integrate_stm", ("self_ms",)),
    ("numeric", "real_matrix_log", "numeric.real_matrix_log", ("ms",)),
    ("numeric", "lf_from_monodromy", "numeric.lf_from_monodromy", ("ms",)),
    ("numeric", "detect_eigenstructure", "numeric.detect_eigenstructure", ("ms",)),
    ("numeric", "liouville_determinant_check",
     "numeric.liouville_determinant_check", ("self_ms",)),
    ("io", "write_trajectory_csv", "io.write_trajectory_csv", ("calls", "ms")),
    ("io", "write_json", "io.write_json", ("ms",)),
    ("io", "load_config", "io.load_config", ("ms",)),
    ("cli", "cmd_decompose", "cli.decompose", ("self_ms",)),
    ("cli", "cmd_modes", "cli.modes", ("self_ms",)),
    ("cli", "cmd_sweep", "cli.sweep", ("self_ms",)),
    ("cli", "cmd_validate", "cli.validate", ("self_ms",)),
    ("cli", "cmd_floquet_numeric", "cli.floquet-num", ("self_ms",)),
]


class Tracer:
    def __init__(self):
        self.names = [name for _, _, name, _ in TARGETS]
        self.absent = []
        self.totals = {name: [0, 0.0, 0.0] for name in self.names}  # calls, busy s, self s
        self.spans = []          # (name index, start s, end s, parent index)
        self.keep_spans = False
        self._active = {name: 0 for name in self.names}
        self._stack = []         # [span index, child seconds] per open call
        self._wrappers = []      # (original, wrapper)
        self._patched = []       # (module, attribute, original)

    def _wrap(self, index, name, func):
        totals = self.totals[name]
        active = self._active
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [-1, 0.0]
            if self.keep_spans:
                frame[0] = len(spans)
                spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                duration = end - start
                totals[0] += 1
                totals[2] += duration - frame[1]
                if not active[name]:         # outermost call of this name
                    totals[1] += duration
                if stack:
                    stack[-1][1] += duration
                if frame[0] >= 0:
                    spans[frame[0]] = (index, start, end, parent)

        traced.__wrapped__ = func
        return traced

    def install(self):
        """Wrap every target wherever a relmodes module binds it."""
        if not self._wrappers:
            for index, (module, func_name, name, _) in enumerate(TARGETS):
                mod = importlib.import_module(f"relmodes.{module}")
                func = getattr(mod, func_name, None)
                if func is None:
                    self.absent.append(name)
                    continue
                self._wrappers.append((func, self._wrap(index, name, func)))
        originals = {id(func): wrapper for func, wrapper in self._wrappers}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "relmodes"
                                   or mod_name.startswith("relmodes.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def snapshot(self):
        return {name: tuple(vals) for name, vals in self.totals.items()}

    @staticmethod
    def delta(before, after):
        """Per-name (calls, busy s, self s) between two snapshots."""
        return {name: tuple(a - b for a, b in zip(after[name], before[name]))
                for name in after}

    def span_table(self):
        return {"names": self.names,
                "columns": ["name", "start_s", "end_s", "parent"],
                "rows": [span for span in self.spans if span is not None]}

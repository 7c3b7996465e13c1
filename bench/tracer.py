"""In-memory spans and work counters around slitweld's public functions.

The program itself is not changed: ``Tracer.installed()`` replaces every
public function of the traced modules with a wrapper, in every slitweld
module that binds the name (``cli`` imports ``extract_welding`` directly,
``welding`` imports ``slit_preimage_endpoints``, and so on), and puts
counting wrappers on three hot methods.  Everything is restored on exit.

Each call of a wrapped function becomes one span: id, parent id, name, start,
end, whether it raised, and the flows and driver evaluations made inside it.
Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

TRACED_MODULES = ("loewner", "welding", "regularity", "constructions", "serialize",
                  "arcfun", "cli")

# format_float runs once per number written, so a span each would outweigh the
# work traced; main only forwards to run_command
_UNTRACED = {"serialize.format_float", "cli.main"}


class Tracer:
    """Span recorder and counters; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.flows = 0          # DrivingTerm.breaks_in calls: one per ODE integration
        self.driver_evals = 0   # DrivingTerm.sigma_at calls
        self.eval_angle = 0     # ArcFunction.eval_angle calls
        self.bytes_written = 0  # text passed to serialize.write_text, UTF-8 bytes
        self._stack = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = {"id": len(tracer.spans), "parent": parent, "name": name,
                    "start": 0.0, "end": 0.0, "error": False,
                    "flows": tracer.flows, "driver_evals": tracer.driver_evals}
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
                span["flows"] = tracer.flows - span["flows"]
                span["driver_evals"] = tracer.driver_evals - span["driver_evals"]

        return traced

    def _counting_methods(self):
        from slitweld.arcfun import ArcFunction
        from slitweld.loewner import DrivingTerm

        tracer = self
        sigma_at = DrivingTerm.sigma_at
        breaks_in = DrivingTerm.breaks_in
        eval_angle = ArcFunction.eval_angle

        def counted_sigma_at(self, t):
            tracer.driver_evals += 1
            return sigma_at(self, t)

        def counted_breaks_in(self, *args, **kwargs):
            tracer.flows += 1
            return breaks_in(self, *args, **kwargs)

        def counted_eval_angle(self, theta):
            tracer.eval_angle += 1
            return eval_angle(self, theta)

        return [(DrivingTerm, "sigma_at", counted_sigma_at),
                (DrivingTerm, "breaks_in", counted_breaks_in),
                (ArcFunction, "eval_angle", counted_eval_angle)]

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced modules' public functions for the duration."""
        import importlib

        import slitweld.serialize

        wrappers = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"slitweld.{short}")
            for name in mod.__all__:
                fn = getattr(mod, name)
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and f"{short}.{name}" not in _UNTRACED):
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))

        write_text = slitweld.serialize.write_text

        def counted_write_text(path, text):
            self.bytes_written += len(text.encode("utf-8"))
            return write_text(path, text)

        wrappers[id(write_text)] = (write_text,
                                    self._wrap("serialize.write_text", counted_write_text))

        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "slitweld" or mod_name.startswith("slitweld.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for cls, attr, counted in self._counting_methods():
            patched.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, counted)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def self_times(self):
        """Span id -> duration minus the part covered by its direct children.

        Children run nested inside their parent on one thread, so their
        intervals never overlap and their durations can simply be summed.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return {s["id"]: (s["end"] - s["start"]) - child[s["id"]] for s in self.spans}

    def outermost_time(self, names) -> float:
        """Total duration of spans named in names that no such span encloses."""
        names = set(names)
        by_id = {s["id"]: s for s in self.spans}
        total = 0.0
        for s in self.spans:
            if s["name"] not in names:
                continue
            p = s["parent"]
            while p is not None and by_id[p]["name"] not in names:
                p = by_id[p]["parent"]
            if p is None:
                total += s["end"] - s["start"]
        return total

    def write(self, path: str, meta: dict):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": self.spans}, fh)

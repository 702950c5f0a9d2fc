"""Run one chorddia command, or one probe, in a fresh traced interpreter.

    python child.py cli SPANS_JSON ARG...   # cli.run(ARGS) with layer spans
    python child.py walk POINTS             # bare matchings(POINTS) walk

``cli`` installs benchmark-owned wrappers on the module attributes through
which ``cli``, ``burnside`` and ``oracle`` call each layer's public
functions, then calls ``chorddia.cli.run(ARGS)`` and exits with its code.
Every wrapped call records a span (id, trace, name, start, end, parent,
attrs); a call that raises gets ``{"error": <exception type>}`` as attrs.
Spans stay in memory and are written to SPANS_JSON when the command ends.
Calls made inside oracle pool workers are not traced. No file under
``src/`` changes.

``walk`` prints ``{"matchings": ..., "seconds": ...}`` for a walk of every
matching with a consumer that does nothing.
"""

from __future__ import annotations

import json
import os
import sys
import time
from time import perf_counter


class Tracer:
    """Span and counter store of one traced command."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.counters = {"groups.class_split_s": 0.0, "groups.class_split_calls": 0}
        self.warm_tables: set[int] = set()
        self.class_types: set | None = None

    def spanned(self, name: str, fn, attrs=None):
        """Wrap fn so that each call records a span; attrs(args, kwargs,
        result) returns extra attributes for it."""

        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "trace": self.trace_id,
                "name": name,
                "parent": self.stack[-1]["id"] if self.stack else None,
                "start": 0.0,
                "end": 0.0,
                "attrs": {},
            }
            self.spans.append(span)
            self.stack.append(span)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["attrs"] = {"error": type(exc).__name__}
                raise
            finally:
                span["end"] = perf_counter()
                self.stack.pop()
            if attrs is not None:
                span["attrs"] = attrs(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted_cycle_type(self, fn):
        """cycle_type_of is called once per group element: count it and add
        up its time, but record no span per call."""
        counters = self.counters

        def wrapper(g):
            t0 = perf_counter()
            result = fn(g)
            counters["groups.class_split_s"] += perf_counter() - t0
            counters["groups.class_split_calls"] += 1
            if self.class_types is not None:
                self.class_types.add(result.parts)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path: str, argv: list[str]) -> None:
        payload = {
            "trace": self.trace_id,
            "argv": argv,
            "counters": self.counters,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _replace_everywhere(original, wrapper) -> None:
    """Point every chorddia module attribute (and module-level dict value)
    that refers to original at wrapper."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "chorddia" and not mod_name.startswith("chorddia."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapper


def install(tracer: Tracer) -> None:
    import chorddia.burnside as burnside
    import chorddia.classic as classic
    import chorddia.cli as cli
    import chorddia.closed_forms as closed_forms
    import chorddia.groups as groups
    import chorddia.oracle as oracle
    import chorddia.svg as svg

    def wrap(fn, name, attrs=None):
        wrapper = tracer.spanned(name, fn, attrs)
        _replace_everywhere(fn, wrapper)
        return wrapper

    wrap(cli.load_group_file, "cli.load_group_file")
    wrap(groups.make_standard_group, "groups.standard_build")
    wrap(groups.generate_group, "groups.closure",
         lambda a, k, r: {"elements": r.order})
    # only the class split inside burnside is counted, not every cycle type
    burnside.cycle_type_of = tracer.counted_cycle_type(burnside.cycle_type_of)

    def wreath_attrs(args, kwargs, result):
        n = _arg(args, kwargs, 0, "n")
        cold = n not in tracer.warm_tables
        tracer.warm_tables.add(n)
        return {"n": n, "cold": cold, "classes": len(result.entries)}

    wreath = wrap(burnside.wreath_cycle_type_distribution, "burnside.wreath_table",
                  wreath_attrs)

    def class_sum_attrs(args, kwargs, result):
        classes = len(tracer.class_types or ())
        tracer.class_types = None
        return {"n": _arg(args, kwargs, 0, "n"), "classes": classes}

    class_sum = tracer.spanned("burnside.class_sum", burnside.burnside_count,
                               class_sum_attrs)

    def burnside_count(*args, **kwargs):
        # Build the table cold through the public function first, so that
        # the class-sum span measures burnside_count with the table warm.
        n = _arg(args, kwargs, 0, "n")
        if isinstance(n, int) and n >= 1 and n not in tracer.warm_tables:
            wreath(n)
        tracer.class_types = set()
        return class_sum(*args, **kwargs)

    _replace_everywhere(burnside.burnside_count, burnside_count)

    for name in ("diagram_count", "cyclic_count", "dihedral_count",
                 "rotation_fixed_count", "asymptotic_lower_bound"):
        wrap(getattr(closed_forms, name), "closed_forms.count")
    wrap(classic.crossing_polynomial, "classic.crossing_polynomial")
    wrap(classic.strict_sequences, "classic.strict_sequences")
    wrap(svg.render_svg, "svg.render",
         lambda a, k, r: {"bytes": len(r.encode("utf-8"))})

    def orbit_attrs(args, kwargs, result):
        return {
            "n": _arg(args, kwargs, 0, "n"),
            "threads": _arg(args, kwargs, 2, "threads") or 1,
            "orbits": result.orbit_count,
        }

    wrap(oracle.orbit_count, "oracle.orbit", orbit_attrs)
    wrap(oracle.crossing_distribution, "oracle.crossing",
         lambda a, k, r: {"n": _arg(a, k, 0, "n"), "threads": _arg(a, k, 1, "threads") or 1})
    wrap(oracle.strict_count, "oracle.strict", lambda a, k, r: {"n": _arg(a, k, 0, "n")})
    wrap(oracle.fixed_diagram_count, "oracle.fixed", lambda a, k, r: {"n": _arg(a, k, 0, "n")})
    wrap(oracle.representatives, "oracle.representatives",
         lambda a, k, r: {"n": _arg(a, k, 0, "n"), "reps": len(r)})


def run_cli(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer(trace_id=f"{os.getpid()}-{time.time_ns()}")
    import chorddia.cli as cli

    install(tracer)
    run = tracer.spanned("cli.run", cli.run)
    try:
        code = run(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path, argv)
    return code


def walk(points: int) -> dict:
    from chorddia.diagrams import matchings

    count = 0
    t0 = perf_counter()
    for _ in matchings(points):
        count += 1
    seconds = perf_counter() - t0
    return {"matchings": count, "seconds": seconds}


def main(argv: list[str]) -> int:
    if len(argv) >= 2 and argv[0] == "cli":
        return run_cli(argv[1], argv[2:])
    if len(argv) == 2 and argv[0] == "walk":
        print(json.dumps(walk(int(argv[1]))))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Per-layer metrics from the spans of one traced pass.

A layer is the part of a span name before the first dot. A layer's time is
the summed duration of its outermost spans, those whose parent belongs to
another layer or is the root ``cli.run`` span, so that a layer function
calling another of the same layer is not counted twice. ``cli.dispatch_s``
is the self time of ``cli.run``: its duration minus the time its direct
child spans cover.
"""

from __future__ import annotations

from workloads import double_factorial

# name -> span name whose outermost durations it sums
_SPAN_TIMES = {
    "burnside.class_sum_s": "burnside.class_sum",
    "groups.standard_build_s": "groups.standard_build",
    "groups.closure_s": "groups.closure",
    "cli.load_group_file_s": "cli.load_group_file",
    "oracle.crossing_s": "oracle.crossing",
    "oracle.strict_s": "oracle.strict",
    "oracle.fixed_s": "oracle.fixed",
    "oracle.representatives_s": "oracle.representatives",
    "closed_forms.count_s": "closed_forms.count",
    "classic.crossing_polynomial_s": "classic.crossing_polynomial",
    "classic.strict_sequences_s": "classic.strict_sequences",
    "svg.render_s": "svg.render",
}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def pass_layers(span_files: list[dict]) -> dict[str, float]:
    """Sum the spans and counters of one pass's commands into layer totals.

    ``oracle.serial_walked`` (matchings walked by single-process orbit
    counts) is returned for ``finish`` and is not itself a metric.
    """
    out = dict.fromkeys(_SPAN_TIMES, 0.0)
    out.update({
        "burnside.wreath_table_s": 0.0,
        "burnside.wreath_classes": 0,
        "groups.closure_elements": 0,
        "groups.class_split_s": 0.0,
        "groups.class_split_calls": 0,
        "groups.classes": 0,
        "oracle.orbit_s": 0.0,
        "oracle.orbits_accepted": 0,
        "oracle.orbit_matchings": 0,
        "oracle.serial_walked": 0,
        "cli.dispatch_s": 0.0,
        "svg.bytes_written": 0,
    })
    by_name = {span_name: metric for metric, span_name in _SPAN_TIMES.items()}
    for record in span_files:
        spans = record["spans"]
        for key in ("groups.class_split_s", "groups.class_split_calls"):
            out[key] += record["counters"][key]
        child_time = [0.0] * len(spans)
        for span in spans:
            name, attrs = span["name"], span["attrs"]
            duration = span["end"] - span["start"]
            parent = spans[span["parent"]] if span["parent"] is not None else None
            if parent is not None:
                child_time[parent["id"]] += duration
            if parent is not None and parent["name"] != "cli.run" \
                    and _layer(parent["name"]) == _layer(name):
                continue
            if name in by_name:
                out[by_name[name]] += duration
            if "error" in attrs:
                continue  # a call that raised (say, over the oracle cap) has no counts
            if name == "burnside.wreath_table" and attrs["cold"]:
                out["burnside.wreath_table_s"] += duration
                out["burnside.wreath_classes"] += attrs["classes"]
            elif name == "burnside.class_sum":
                out["groups.classes"] += attrs["classes"]
            elif name == "groups.closure":
                out["groups.closure_elements"] += attrs["elements"]
            elif name == "svg.render":
                out["svg.bytes_written"] += attrs["bytes"]
            elif name == "oracle.orbit":
                walked = double_factorial(2 * attrs["n"] - 1)
                out["oracle.orbits_accepted"] += attrs["orbits"]
                out["oracle.orbit_matchings"] += walked
                # a pool run's walk happens in workers and has no spans here
                if attrs["threads"] == 1:
                    out["oracle.orbit_s"] += duration
                    out["oracle.serial_walked"] += walked
        for span in spans:
            if span["name"] == "cli.run":
                out["cli.dispatch_s"] += span["end"] - span["start"] - child_time[span["id"]]
    return out


def finish(layers: dict[str, float], walk_rate: float) -> dict[str, float]:
    """Add the ratios that need the bare walk rate or a base count.

    The walk inside an orbit count is not spanned per matching (millions
    of spans would cost more than the walk), so ``oracle.orbit_self_s``
    subtracts the matchings walked divided by the bare walk rate.
    """
    out = dict(layers)
    walked = out.pop("oracle.serial_walked")
    walk_s = walked / walk_rate if walk_rate else 0.0
    out["oracle.orbit_self_s"] = out["oracle.orbit_s"] - walk_s
    base = out["oracle.orbit_matchings"]
    out["oracle.accept_ratio"] = out["oracle.orbits_accepted"] / base if base else 0.0
    return out


def import_times(stderr: str) -> tuple[float, float]:
    """(chorddia, multiprocessing) cumulative import seconds from the
    ``-X importtime`` report of ``import chorddia.cli``."""
    package = multiprocessing = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name_field = line.split("|")
        name = name_field.strip()
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name_field) - len(name_field.lstrip()) - 1) // 2
        seconds = int(cumulative) / 1e6
        if depth == 0 and (name == "chorddia" or name.startswith("chorddia.")):
            package += seconds
        elif name == "multiprocessing" and not multiprocessing:
            multiprocessing = seconds
    return package, multiprocessing

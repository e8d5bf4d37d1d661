"""Merge every ``BENCH_*.json`` into one perf-trajectory report.

Each standalone benchmark pins its own ``BENCH_<name>.json`` at the
repository root. This script reduces them to a single
``BENCH_trajectory.json``: one headline metric per benchmark (the number
its ``--check`` gate is built around), the direction that counts as
better, and a regression flag comparing against the previously pinned
trajectory — so the repo's perf history stays monotone-checkable from
one file instead of one per benchmark.

Usage::

    python benchmarks/collect_bench.py [--check] [--strict]

``--check`` exits nonzero if a report is unreadable or a registered
headline is missing. ``--strict`` additionally fails on regression
flags (headline worse than the pinned trajectory by more than the
tolerance); plain ``--check`` only reports them, since wall-clock
ratios vary across machines.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Per-benchmark headline: (dotted path into the report, direction,
#: short label). Direction ``higher`` means bigger is better.
HEADLINES = {
    "obs_overhead": (
        "enabled_overhead", "lower", "obs overhead (fraction)"
    ),
    "service_resilience": (
        "local.wall_time_s", "lower", "local-baseline wall time (s)"
    ),
    "opt_scoreboard": (
        "mean_two_qubit_reduction", "higher", "mean 2q-gate reduction"
    ),
}

#: Relative movement in the bad direction that raises a flag. Generous
#: because most headlines are wall-clock ratios measured on whatever
#: machine ran last.
TOLERANCE = 0.40

TRAJECTORY = "BENCH_trajectory.json"


def _dig(report, path):
    value = report
    for key in path.split("."):
        value = value[key]
    return value


def collect(root: Path):
    """Read every BENCH_*.json under *root*; return (entries, errors)."""
    entries = {}
    errors = []
    for path in sorted(root.glob("BENCH_*.json")):
        if path.name == TRAJECTORY:
            continue
        try:
            report = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            errors.append(f"{path.name}: unreadable ({exc})")
            continue
        name = report.get("benchmark")
        if name not in HEADLINES:
            errors.append(f"{path.name}: unregistered benchmark {name!r}")
            continue
        metric_path, direction, label = HEADLINES[name]
        try:
            value = float(_dig(report, metric_path))
        except (KeyError, TypeError, ValueError):
            errors.append(
                f"{path.name}: headline {metric_path!r} missing"
            )
            continue
        entries[name] = {
            "file": path.name,
            "metric": metric_path,
            "label": label,
            "direction": direction,
            "value": value,
            "workload": report.get("workload", ""),
        }
    return entries, errors


def flag_regressions(entries, previous):
    """Compare each headline to the pinned trajectory, bad-side only."""
    flags = []
    for name, entry in entries.items():
        prior = previous.get(name)
        if not prior:
            continue
        old, new = prior["value"], entry["value"]
        if old == 0:
            continue
        if entry["direction"] == "higher":
            worse = (old - new) / abs(old)
        else:
            worse = (new - old) / abs(old)
        entry["previous"] = old
        entry["relative_change"] = (new - old) / abs(old)
        if worse > TOLERANCE:
            flags.append(
                f"{name}: {entry['label']} {old:.3f} -> {new:.3f} "
                f"({worse:+.0%} in the wrong direction)"
            )
    return flags


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero on unreadable reports or missing headlines",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="with --check, also fail on regression flags",
    )
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    entries, errors = collect(root)

    out_path = root / TRAJECTORY
    previous = {}
    if out_path.exists():
        try:
            previous = json.loads(out_path.read_text()).get(
                "benchmarks", {}
            )
        except ValueError:
            previous = {}
    flags = flag_regressions(entries, previous)

    trajectory = {
        "benchmarks": entries,
        "regressions": flags,
        "tolerance": TOLERANCE,
    }
    out_path.write_text(json.dumps(trajectory, indent=2) + "\n")

    width = max((len(n) for n in entries), default=10)
    for name in sorted(entries):
        entry = entries[name]
        arrow = "^" if entry["direction"] == "higher" else "v"
        delta = (
            f"  ({entry['relative_change']:+.1%} vs pinned)"
            if "relative_change" in entry
            else ""
        )
        print(
            f"{name:<{width}}  {entry['value']:>10.4f} {arrow} "
            f"{entry['label']}{delta}"
        )
    for error in errors:
        print(f"ERROR: {error}", file=sys.stderr)
    for flag in flags:
        print(f"REGRESSION: {flag}", file=sys.stderr)
    print(f"written: {out_path} ({len(entries)} benchmarks)")

    if args.check and errors:
        return 1
    if args.check and args.strict and flags:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare results of bench/perf/run.py, one row per (metric, workload).

    python3 bench/perf/compare.py BASE.json NEW.json
    python3 bench/perf/compare.py BASE1.json,BASE2.json,... NEW1.json,NEW2.json,...
    python3 bench/perf/compare.py --selftest

With several result files per side, each side's value is the median of its
runs and its spread the interquartile range of those runs over the median
(run-to-run). With one file per side, the spread falls back to the
quartiles of the reps inside that run.

Every end-to-end metric is judged against its bound in BENCHMARK.json:

  identical     the same value on both sides
  within-bound  worse or better by no more than the bound
  regression    worse by more than the bound
  improvement   better by more than the bound, or every run (rep) of NEW
                beats every run (rep) of BASE
  unresolved    a side's spread exceeds the bound, so the data cannot tell

error_rate (failed checks over checks attempted) may not rise at all. The
per-layer metrics that are simulated outcomes rather than host time (the
counts, media.frame_stall_frac, core.l4span.mark_ratio and
sim.shard_event_imbalance) are deterministic for a seed, so they are judged
identical or changed: a change that only speeds the simulator up must leave
them identical.

Results from different machines or builds are not compared: the manifests'
compiler, flags, CPU, core count and kernel must match. The exit status is
1 when any row is a regression, changed or unresolved, 2 when the inputs
cannot be compared, and 0 otherwise.
"""

import contextlib
import io
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
MANIFEST_KEYS = ("compiler", "compiler_version", "build_type", "cxx_flags",
                 "cpu_model", "nproc", "kernel")
SIMULATED = ("media.frame_stall_frac", "core.l4span.mark_ratio", "sim.shard_event_imbalance")
FAILING = ("regression", "changed", "unresolved")


def simulated(spec):
    """A per-layer metric that is a simulated outcome, not a host time."""
    return spec["unit"] == "count" or spec["name"] in SIMULATED


def manifest_mismatch(base, new):
    return [k for k in MANIFEST_KEYS
            if base["manifest"].get(k) != new["manifest"].get(k)]


def merge(results):
    """One result from several runs of one side: medians across runs, with
    the runs' quartiles and extremes as the spread."""
    if len(results) == 1:
        return results[0]
    merged = {"manifest": results[0]["manifest"], "workloads": {}}
    for wname, first in results[0]["workloads"].items():
        runs = [r["workloads"][wname] for r in results if wname in r["workloads"]]
        e2e = {}
        for name, m in first["end_to_end"].items():
            values = [run["end_to_end"][name]["value"] for run in runs]
            # Inclusive quartiles stay inside the data, which matters for the
            # two or three runs a side usually has.
            q1, q3 = ((values[0], values[0]) if len(values) == 1
                      else statistics.quantiles(values, n=4, method="inclusive")[::2])
            e2e[name] = {"value": statistics.median(values), "unit": m["unit"],
                         "min": min(values), "max": max(values), "q1": q1, "q3": q3,
                         "reps": len(values)}
        merged["workloads"][wname] = {
            "end_to_end": e2e,
            "per_layer": first["per_layer"],
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
        }
    return merged


def rel_spread(m):
    if "q1" not in m or m["value"] == 0:
        return 0.0
    return (m["q3"] - m["q1"]) / abs(m["value"])


def judge(spec, b, n):
    """Verdict and signed relative change (positive = worse) for one row."""
    lower = spec["better"] == "lower"
    if b["value"] == 0:
        return ("identical" if n["value"] == 0 else "unresolved"), 0.0
    delta = (n["value"] - b["value"]) / abs(b["value"])
    worse = delta if lower else -delta
    if n["value"] == b["value"]:
        return "identical", worse
    bound = spec["bound"]
    if "min" in b and "min" in n:
        if (n["max"] < b["min"]) if lower else (n["min"] > b["max"]):
            return "improvement", worse
    if max(rel_spread(b), rel_spread(n)) > bound:
        return "unresolved", worse
    if worse > bound:
        return "regression", worse
    if worse < -bound:
        return "improvement", worse
    return "within-bound", worse


def compare(base, new, bench):
    """Rows (workload, metric, base, new, change, bound, verdict)."""
    rows = []
    for wname, bw in base["workloads"].items():
        nw = new["workloads"].get(wname)
        if nw is None:
            rows.append((wname, "(workload)", None, None, None, None, "unresolved"))
            continue
        for spec in bench["end_to_end"]:
            b = bw["end_to_end"][spec["name"]]
            n = nw["end_to_end"][spec["name"]]
            verdict, worse = judge(spec, b, n)
            rows.append((wname, spec["name"], b["value"], n["value"], worse,
                         spec["bound"], verdict))
        b_err = bw["failed"] / bw["attempted"]
        n_err = nw["failed"] / nw["attempted"]
        rows.append((wname, "error_rate", b_err, n_err, n_err - b_err, 0.0,
                     "regression" if n_err > b_err else
                     "identical" if n_err == b_err else "improvement"))
        for spec in bench["per_layer"]:
            if not simulated(spec):
                continue
            b = bw["per_layer"][spec["name"]]["value"]
            n = nw["per_layer"][spec["name"]]["value"]
            rows.append((wname, spec["name"], b, n, None, None,
                         "identical" if b == n else "changed"))
    return rows


def fmt(v, pct=False):
    if v is None:
        return "-"
    return f"{100 * v:+.1f}%" if pct else f"{v:.6g}"


def report(rows):
    print(f"{'workload':17s} {'metric':28s} {'base':>12s} {'new':>12s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    for w, m, b, n, worse, bound, verdict in rows:
        bound_s = "-" if bound is None else f"{100 * bound:.0f}%"
        print(f"{w:17s} {m:28s} {fmt(b):>12s} {fmt(n):>12s} {fmt(worse, True):>9s} "
              f"{bound_s:>6s}  {verdict}")
    bad = [r for r in rows if r[-1] in FAILING]
    print(f"{len(bad)} of {len(rows)} rows regressed, changed or unresolved")
    return 1 if bad else 0


# --- self test ----------------------------------------------------------------

def _result(values, failed=0, cpu="cpu A", layers=None):
    def metric(v, spread=0.01):
        return {"value": v, "unit": "s", "min": v * (1 - spread), "max": v * (1 + spread),
                "q1": v * (1 - spread / 2), "q3": v * (1 + spread / 2), "reps": 10}
    e2e = {k: (metric(*v) if isinstance(v, tuple) else metric(v)) for k, v in values.items()}
    per_layer = {"sim.events": 100, "media.frame_stall_frac": 0.05, "trace.overhead_pct": 10.0}
    per_layer.update(layers or {})
    per_layer = {k: {"value": v} for k, v in per_layer.items()}
    manifest = {k: "x" for k in MANIFEST_KEYS}
    manifest["cpu_model"] = cpu
    return {"manifest": manifest,
            "workloads": {"w": {"end_to_end": e2e, "per_layer": per_layer,
                                "attempted": 10, "failed": failed}}}


def selftest():
    bench = {
        "end_to_end": [{"name": "t", "unit": "s", "better": "lower", "bound": 0.10},
                       {"name": "g", "unit": "Mbit/s", "better": "higher", "bound": 0.02}],
        "per_layer": [{"name": "sim.events", "unit": "count", "better": "lower"},
                      {"name": "media.frame_stall_frac", "unit": "ratio", "better": "lower"},
                      {"name": "trace.overhead_pct", "unit": "%", "better": "lower"}],
    }

    def verdicts(base, new):
        return {(r[0], r[1]): r[-1] for r in compare(base, new, bench)}

    base = _result({"t": 1.0, "g": 10.0})
    cases = [
        ("identical", _result({"t": 1.0, "g": 10.0}), ("w", "t"), "identical"),
        ("within-bound", _result({"t": 1.05, "g": 9.9}), ("w", "t"), "within-bound"),
        ("within-bound higher-is-better", _result({"t": 1.05, "g": 9.9}), ("w", "g"),
         "within-bound"),
        ("regression", _result({"t": 1.2, "g": 10.0}), ("w", "t"), "regression"),
        ("goodput regression", _result({"t": 1.0, "g": 9.0}), ("w", "g"), "regression"),
        ("unresolved", _result({"t": (1.05, 0.5), "g": 10.0}), ("w", "t"), "unresolved"),
        ("improvement", _result({"t": 0.8, "g": 10.0}), ("w", "t"), "improvement"),
        ("improvement despite spread", _result({"t": (0.5, 0.3), "g": 10.0}), ("w", "t"),
         "improvement"),
        ("error_rate increase", _result({"t": 1.0, "g": 10.0}, failed=1), ("w", "error_rate"),
         "regression"),
        ("count changed", _result({"t": 1.0, "g": 10.0}, layers={"sim.events": 101}),
         ("w", "sim.events"), "changed"),
        ("frame stall changed",
         _result({"t": 1.0, "g": 10.0}, layers={"media.frame_stall_frac": 0.051}),
         ("w", "media.frame_stall_frac"), "changed"),
    ]
    failures = 0
    for label, new, key, want in cases:
        got = verdicts(base, new)[key]
        ok = got == want
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {got}")
    # Several runs per side: run-to-run spread, not rep quartiles, decides.
    noisy = merge([_result({"t": v, "g": 10.0}) for v in (0.7, 1.0, 1.3, 1.05)])
    steady = merge([_result({"t": v, "g": 10.0}) for v in (1.02, 1.03, 1.01)])
    for label, new, want in (("merged runs unresolved", noisy, "unresolved"),
                             ("merged runs within-bound", steady, "within-bound")):
        got = verdicts(base, new)[("w", "t")]
        ok = got == want
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {got}")
    # Host-time per-layer rows are not judged; a changed simulated one fails.
    moved = verdicts(base, _result({"t": 1.0, "g": 10.0}, layers={"trace.overhead_pct": 30.0}))
    changed = compare(base, _result({"t": 1.0, "g": 10.0}, layers={"sim.events": 99}), bench)
    with contextlib.redirect_stdout(io.StringIO()):
        status = report(changed)
    for label, ok in (("host-time per-layer row not judged", ("w", "trace.overhead_pct") not in moved),
                      ("changed row fails the comparison", status == 1)):
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    mismatch = manifest_mismatch(base, _result({"t": 1.0, "g": 10.0}, cpu="cpu B"))
    ok = mismatch == ["cpu_model"]
    failures += not ok
    print(f"{'ok  ' if ok else 'FAIL'} manifest mismatch refused: {mismatch}")
    print("selftest", "passed" if failures == 0 else f"FAILED ({failures})")
    return 1 if failures else 0


def main():
    args = sys.argv[1:]
    if args == ["--selftest"]:
        return selftest()
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides = [[json.loads(Path(f).read_text()) for f in a.split(",")] for a in args]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    first = sides[0][0]
    for r in sides[0][1:] + sides[1]:
        mismatch = manifest_mismatch(first, r)
        if mismatch:
            for k in mismatch:
                print(f"manifest differs in {k}: {first['manifest'].get(k)!r} vs "
                      f"{r['manifest'].get(k)!r}", file=sys.stderr)
            print("compare.py: refusing to compare results from different machines or builds",
                  file=sys.stderr)
            return 2
    return report(compare(merge(sides[0]), merge(sides[1]), bench))


if __name__ == "__main__":
    sys.exit(main())

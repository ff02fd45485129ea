#!/usr/bin/env python3
"""Converts google-benchmark JSON output into the repo's BENCH_*.json format.

The BENCH format is a compact, diffable snapshot of one benchmark binary:

    {
      "bench": "crypto",
      "context": {"host": ..., "num_cpus": ..., "nproc": ..., "build_type": ...},
      "results": {
        "BM_SchnorrVerify": {"real_time_ns": ..., "cpu_time_ns": ...,
                             "min_real_time_ns": ..., "cv": ...,
                             "repetitions": ...,
                             "items_per_second": ...},   # when reported
        ...
      },
      "ratios": {"schnorr_verify_speedup_vs_naive_ladder": 3.4, ...}
    }

A run with ``--benchmark_repetitions=N`` reports each benchmark N times;
``real_time_ns``, ``cpu_time_ns`` and ``items_per_second`` are then the
medians over the repetitions, ``min_real_time_ns`` the fastest one and
``cv`` the coefficient of variation of the real time (stddev / mean). The
aggregate rows google-benchmark appends are ignored: the statistics are
recomputed from the repetitions themselves.

Ratios are requested on the command line as ``name=BM_SLOW/BM_FAST`` and
computed from real time (``time(BM_SLOW) / time(BM_FAST)``), so a speedup
ratio names the baseline first. For parameterized benchmarks pass the full
name including the argument suffix (``BM_Foo/8``).

Two optional enrichments:

``--metrics FILE`` embeds an obs metrics-registry snapshot (the
``metrics.json`` written by daric_trace) under an ``out["metrics"]`` key, so
a BENCH file can carry the instrumentation counters of the run it measured.
Histogram quantiles (p50/p90/p99/p999) are required on every non-empty
histogram and additionally lifted to a flat ``out["histogram_quantiles"]``
map so EXPERIMENTS.md tables can cite p99s without digging through buckets.

``--baseline FILE --overhead name=BM_X`` compares this run against a prior
BENCH_*.json: the overhead ratio is ``real_time(now) / real_time(baseline)``
for benchmark ``BM_X`` (1.0 = unchanged, 1.02 = 2% slower). Used by
check.sh --bench to prove the disabled tracer costs <2% on the update path.

``--anchor BM_Y`` (repeatable, with --baseline) corrects the overhead
ratios for machine-speed drift between the two runs: anchors must be
benchmarks untouched by the change being measured (e.g. pure-crypto
kernels), the geometric mean of their now/baseline ratios is reported as
``anchor_factor``, and every overhead ratio is divided by it. On shared
hosts raw cross-run wall time moves 20%+ with CPU steal; the ratio of
ratios cancels that while preserving any real slowdown in the measured
benchmarks.

Usage:
    bench_to_json.py --name crypto --in raw.json --out BENCH_crypto.json \
        [--ratio schnorr_verify_speedup_vs_naive_ladder=BM_SchnorrVerifyNaiveLadder/BM_SchnorrVerify] ...

Exit: 0 on success, 2 on usage/IO error or a ratio/overhead referencing a
missing benchmark (so check.sh fails loudly instead of committing a hollow
file).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys


def to_ns(value: float, unit: str) -> float:
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit)
    if scale is None:
        raise ValueError(f"unknown time unit {unit!r}")
    return value * scale


def split_ratio(spec: str) -> tuple[str, str, str]:
    name, _, expr = spec.partition("=")
    if not name or "/" not in expr:
        raise ValueError(f"bad --ratio {spec!r}; expected name=BM_SLOW/BM_FAST")
    # Parameterized benchmark names contain '/' themselves (BM_Foo/8), so a
    # ratio of two such names has several slashes; split at the boundary
    # between a digit-or-name end and the following BM_ prefix.
    slow, sep, fast = expr.rpartition("/BM_")
    if not sep:
        raise ValueError(f"bad --ratio {spec!r}; denominator must be a BM_ name")
    return name, slow, "BM_" + fast


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--name", required=True, help="bench id, e.g. 'crypto'")
    ap.add_argument("--in", dest="raw", required=True, help="google-benchmark JSON")
    ap.add_argument("--out", required=True, help="BENCH_*.json to write")
    ap.add_argument("--ratio", action="append", default=[],
                    help="name=BM_SLOW/BM_FAST, computed from real time")
    ap.add_argument("--metrics", help="obs registry snapshot JSON to embed")
    ap.add_argument("--baseline", help="prior BENCH_*.json to compare against")
    ap.add_argument("--overhead", action="append", default=[],
                    help="name=BM_X: real_time(now)/real_time(baseline)")
    ap.add_argument("--anchor", action="append", default=[],
                    help="untouched benchmark used to cancel machine drift")
    args = ap.parse_args(argv[1:])

    if (args.overhead or args.anchor) and not args.baseline:
        print("error: --overhead/--anchor require --baseline", file=sys.stderr)
        return 2

    try:
        with open(args.raw, encoding="utf-8") as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {args.raw}: {e}", file=sys.stderr)
        return 2

    ctx = raw.get("context", {})
    runs: dict[str, list[dict]] = {}
    for b in raw.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        runs.setdefault(b.get("run_name", b.get("name")), []).append(b)
    results: dict[str, dict[str, float]] = {}
    for name, reps in runs.items():
        try:
            real = [to_ns(b["real_time"], b["time_unit"]) for b in reps]
            cpu = [to_ns(b["cpu_time"], b["time_unit"]) for b in reps]
        except (KeyError, ValueError) as e:
            print(f"error: malformed benchmark entry {name!r}: {e}",
                  file=sys.stderr)
            return 2
        mean = statistics.fmean(real)
        entry = {
            "real_time_ns": round(statistics.median(real), 2),
            "cpu_time_ns": round(statistics.median(cpu), 2),
            "min_real_time_ns": round(min(real), 2),
            "cv": round(statistics.stdev(real) / mean, 4) if len(real) > 1 and mean > 0 else 0.0,
            "repetitions": len(reps),
        }
        ips = [b["items_per_second"] for b in reps if "items_per_second" in b]
        if ips:
            entry["items_per_second"] = round(statistics.median(ips), 2)
        results[name] = entry

    if not results:
        print(f"error: {args.raw} contains no benchmark results", file=sys.stderr)
        return 2

    ratios: dict[str, float] = {}
    for spec in args.ratio:
        try:
            name, slow, fast = split_ratio(spec)
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        missing = [n for n in (slow, fast) if n not in results]
        if missing:
            print(f"error: ratio {name!r} references missing benchmark(s): "
                  f"{', '.join(missing)}", file=sys.stderr)
            return 2
        ratios[name] = round(
            results[slow]["real_time_ns"] / results[fast]["real_time_ns"], 3)

    overheads: dict[str, float] = {}
    anchor_factor = None
    if args.baseline:
        try:
            with open(args.baseline, encoding="utf-8") as f:
                base = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: cannot read {args.baseline}: {e}", file=sys.stderr)
            return 2
        base_results = base.get("results", {})
        if args.anchor:
            import math
            log_sum = 0.0
            for bm in args.anchor:
                if bm not in results or bm not in base_results:
                    where = "this run" if bm not in results else args.baseline
                    print(f"error: anchor {bm} missing from {where}",
                          file=sys.stderr)
                    return 2
                log_sum += math.log(
                    results[bm]["real_time_ns"] / base_results[bm]["real_time_ns"])
            anchor_factor = round(math.exp(log_sum / len(args.anchor)), 4)
        for spec in args.overhead:
            name, _, bm = spec.partition("=")
            if not name or not bm:
                print(f"error: bad --overhead {spec!r}; expected name=BM_X",
                      file=sys.stderr)
                return 2
            if bm not in results:
                print(f"error: overhead {name!r}: {bm} missing from this run",
                      file=sys.stderr)
                return 2
            if bm not in base_results:
                print(f"error: overhead {name!r}: {bm} missing from baseline "
                      f"{args.baseline}", file=sys.stderr)
                return 2
            ratio = results[bm]["real_time_ns"] / base_results[bm]["real_time_ns"]
            if anchor_factor:
                ratio /= anchor_factor
            overheads[name] = round(ratio, 4)

    metrics = None
    quantiles: dict[str, dict[str, int]] = {}
    if args.metrics:
        try:
            with open(args.metrics, encoding="utf-8") as f:
                metrics = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: cannot read {args.metrics}: {e}", file=sys.stderr)
            return 2
        for section in ("counters", "gauges", "histograms"):
            if section not in metrics:
                print(f"error: {args.metrics} is not a registry snapshot "
                      f"(missing {section!r})", file=sys.stderr)
                return 2
        for hname, h in metrics["histograms"].items():
            if h.get("count", 0) == 0:
                continue
            qs = h.get("quantiles")
            if not isinstance(qs, dict) or any(
                    k not in qs for k in ("p50", "p90", "p99", "p999")):
                print(f"error: {args.metrics}: histogram {hname!r} is "
                      f"non-empty but carries no quantiles (stale snapshot "
                      f"format?)", file=sys.stderr)
                return 2
            quantiles[hname] = {k: qs[k] for k in ("p50", "p90", "p99", "p999")}

    out = {
        "bench": args.name,
        "context": {
            "host": ctx.get("host_name", "unknown"),
            "num_cpus": ctx.get("num_cpus"),
            "nproc": os.cpu_count(),
            "mhz_per_cpu": ctx.get("mhz_per_cpu"),
            # daric_build_type (from DARIC_BENCHMARK_MAIN) reflects the
            # bench binary itself; library_build_type only describes the
            # system-installed benchmark library and can say "debug" for a
            # Release binary.
            "build_type": ctx.get("daric_build_type",
                                  ctx.get("library_build_type", "unknown")),
            "date": ctx.get("date", "unknown"),
        },
        "results": results,
    }
    if ratios:
        out["ratios"] = ratios
    if overheads:
        out["overhead_vs_baseline"] = overheads
    if anchor_factor is not None:
        out["anchor_factor"] = anchor_factor
        out["anchors"] = args.anchor
    if metrics is not None:
        out["metrics"] = metrics
        if quantiles:
            out["histogram_quantiles"] = quantiles

    try:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(out, f, indent=2, sort_keys=False)
            f.write("\n")
    except OSError as e:
        print(f"error: cannot write {args.out}: {e}", file=sys.stderr)
        return 2

    parts = [f"{k}={v}x" for k, v in ratios.items()]
    parts += [f"{k}={v:.4f}" for k, v in overheads.items()]
    summary = ", ".join(parts) or f"{len(results)} results"
    print(f"bench_to_json: wrote {args.out} ({summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Compare two sets of benchmark runs, one row per (metric, workload).

    python3 benchmarks/perf/compare.py BASE CHANGE

``BASE`` and ``CHANGE`` are JSON-lines files written by ``run.py
--json``, or ``baseline.json#SET`` for a set kept in the committed
baseline.  Only untraced runs count.  Runs of one workload pair up in
seed order.  Each row gets the median and quartiles of both sides and
one verdict, using the bounds in ``BENCHMARK.json``:

* **improved** — the change wins at least 9 of every 10 pairs (ties
  count for neither) and the medians differ, in the better direction,
  by more than the distance between the base's quartiles;
* **unresolved** — either side's quartile spread is wider than the
  bound, and not every change run reads better than every base run;
* **regressed** — the change's median is worse than the base's by more
  than the bound;
* **unchanged** — otherwise.

An extra ``error_rate`` row per workload (failed over attempted) is
regressed whenever the change's rate is higher.  Exits 1 on any
regression.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DECLARATION = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                           "BENCHMARK.json")

#: share of pairs the change must win to count as improved
WIN_SHARE = 0.9


def load(spec: str) -> list[dict]:
    """Records of ``FILE.jsonl`` or of set ``SET`` in ``FILE.json#SET``."""
    path, _, name = spec.partition("#")
    with open(path) as fh:
        if name:
            return json.load(fh)["sets"][name]
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], bound: float,
            better: str) -> str:
    """The verdict for one row; ``base``/``change`` paired by index."""
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(sign * (c - b) < 0 for b, c in pairs)
    if wins >= WIN_SHARE * len(pairs) and sign * (bm - cm) > b3 - b1:
        return "improved"
    spread = max(b3 - b1, c3 - c1) / abs(bm)
    all_better = all(sign * (c - b) < 0 for b in base for c in change)
    if spread > bound and not all_better:
        return "unresolved"
    if sign * (cm - bm) / abs(bm) > bound:
        return "regressed"
    return "unchanged"


def _by_workload(records: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for r in sorted(records, key=lambda r: r["seed"]):
        if r.get("trace", 0) == 0:
            out.setdefault(r["workload"], []).append(r)
    return out


def compare(base: list[dict], change: list[dict], decl: dict) -> list[dict]:
    """One row dict per (metric, workload) present on both sides."""
    rows = []
    b_runs, c_runs = _by_workload(base), _by_workload(change)
    for workload in sorted(set(b_runs) & set(c_runs)):
        bs, cs = b_runs[workload], c_runs[workload]
        for m in decl["end_to_end"]:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in bs]
            cv = [r["metrics"][name]["value"] for r in cs]
            rows.append({
                "workload": workload, "metric": name, "unit": m["unit"],
                "base": quartiles(bv), "change": quartiles(cv),
                "n": (len(bv), len(cv)),
                "verdict": verdict(bv, cv, m["bound"], m["better"]),
            })
        rates = [
            sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            for runs in (bs, cs)
        ]
        rows.append({
            "workload": workload, "metric": "error_rate", "unit": "ratio",
            "base": (rates[0],) * 3, "change": (rates[1],) * 3,
            "n": (len(bs), len(cs)),
            "verdict": "regressed" if rates[1] > rates[0] else "unchanged",
        })
    return rows


def render(rows: list[dict]) -> str:
    def fmt(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    head = ("workload", "metric", "base median [q1, q3]",
            "change median [q1, q3]", "n", "verdict")
    body = [
        (r["workload"], f"{r['metric']} ({r['unit']})", fmt(r["base"]),
         fmt(r["change"]), f"{r['n'][0]}/{r['n'][1]}", r["verdict"])
        for r in rows
    ]
    widths = [max(len(str(x[i])) for x in [head] + body) for i in range(6)]
    return "\n".join(
        "  ".join(str(c).ljust(w) for c, w in zip(line, widths))
        for line in [head] + body
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    with open(DECLARATION) as fh:
        decl = json.load(fh)
    rows = compare(load(args.base), load(args.change), decl)
    if not rows:
        print("no workload has untraced runs on both sides", file=sys.stderr)
        return 2
    print(render(rows))
    verdicts = [r["verdict"] for r in rows]
    print("\n" + ", ".join(
        f"{verdicts.count(v)} {v}"
        for v in ("improved", "unchanged", "unresolved", "regressed")
    ))
    return 1 if "regressed" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())

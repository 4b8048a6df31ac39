#!/usr/bin/env python3
"""Regenerates the reference figures in perfbench/README.md from run
records, so no figure there is typed in by hand.

    python3 perfbench/report.py [--records SET.jsonl ...] [--readme perfbench/README.md]

Each records file is one set of runs (as `repeat.py --out DIR` writes it to
DIR/records.jsonl). Served-run records (trace false) give the end-to-end
table: median and quartiles per metric and workload, over the records of
every set. With two or more sets, a second table compares each later set's
median with the first set's: the shift in the metric's worse direction, as
a share of the first median, against the metric's bound. Traced-run records
give the per-layer table (median over the records). The served records'
`raw` figures (phase-3 medians in time) get a table of their own. The
text between the README's `reference:begin` and `reference:end` markers
is replaced.
"""

import argparse
import json
import statistics

BEGIN = "<!-- reference:begin -->"
END = "<!-- reference:end -->"


def fmt(x):
    return f"{x:.4g}" if abs(x) < 1e4 else f"{x:.0f}"


def table(records, names, with_quartiles, key="metrics"):
    workloads = sorted({r["workload"] for r in records})
    head = "| metric | unit | " + " | ".join(workloads) + " |"
    rows = [head, "|" + "---|" * (len(workloads) + 2)]
    for name in names:
        unit, cells = "", []
        for w in workloads:
            vals = [r[key][name]["value"] for r in records
                    if r["workload"] == w and name in r.get(key, {})]
            if not vals:
                cells.append("")
                continue
            unit = next(r[key][name]["unit"] for r in records if name in r.get(key, {}))
            if with_quartiles and len(vals) >= 2:
                q1, q2, q3 = statistics.quantiles(vals, n=4)
                cells.append(f"{fmt(q2)} ({fmt(q1)}–{fmt(q3)})")
            else:
                cells.append(fmt(statistics.median(vals)))
        rows.append(f"| `{name}` | {unit} | " + " | ".join(cells) + " |")
    return "\n".join(rows)


def median_of(records, workload, name):
    return statistics.median(r["metrics"][name]["value"] for r in records
                             if r["workload"] == workload and not r["trace"])


def shifts(sets, bench):
    """Each later set's median against the first set's, per metric."""
    workloads = sorted({r["workload"] for r in sets[0] if not r["trace"]})
    head = "| metric | bound | " + " | ".join(workloads) + " |"
    rows = [head, "|" + "---|" * (len(workloads) + 2)]
    for m in bench["end_to_end"]:
        sign = 1 if m["better"] == "lower" else -1
        cells = []
        for w in workloads:
            first = median_of(sets[0], w, m["name"])
            worse = [sign * (median_of(s, w, m["name"]) - first) / first for s in sets[1:]]
            verdict = "holds" if max(worse) <= m["bound"] else "EXCEEDS"
            cells.append(", ".join(f"{x:+.3f}" for x in worse) + f" {verdict}")
        rows.append(f"| `{m['name']}` | {m['bound']} | " + " | ".join(cells) + " |")
    return "\n".join(rows)


def render(sets, bench):
    records = [r for s in sets for r in s]
    served = [r for r in records if not r["trace"]]
    traced = [r for r in records if r["trace"]]
    meta = lambda key: ", ".join(sorted({str(r[key]) for r in records}))
    runs = {w: sum(1 for r in served if r["workload"] == w) for w in sorted({r["workload"] for r in served})}
    seeds = sorted({r["seed"] for r in served})
    out = [
        f"Commit {meta('commit')}; `nproc` {meta('nproc')}; {meta('rustc')}; "
        f"`--seconds` {meta('seconds')}.",
        "",
        "Served runs: " + ", ".join(f"{w} ×{n}" for w, n in runs.items())
        + f" in {len(sets)} set(s) (seeds {seeds[0]}–{seeds[-1]} each); each cell is the median (first–third quartile). "
        + "Operations failed: " + str(sum(r["failed"] for r in served))
        + " of " + str(sum(r["attempted"] for r in served)) + "; every run correct: "
        + str(all(r["correct"] for r in records)).lower() + ".",
        "",
        table(served, [m["name"] for m in bench["end_to_end"]], True),
    ]
    raw = list(next((r["raw"] for r in served if "raw" in r), {}))
    if raw:
        out += [
            "",
            "The phase-3 medians in time, from the same runs (no bound; the "
            "reference scan is the unit of the `_scans` figures):",
            "",
            table(served, raw, True, key="raw"),
        ]
    if len(sets) > 1:
        out += [
            "",
            "Median shift of each later set against set 1, in the metric's worse "
            "direction, as a share of set 1's median (negative: better):",
            "",
            shifts(sets, bench),
        ]
    if traced:
        out += [
            "",
            f"Traced runs ({len(traced)}; median over them):",
            "",
            table(traced, [m["name"] for m in bench["per_layer"]], False),
        ]
    return "\n".join(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--records", nargs="+", default=[
        "perfbench/reference/set1/records.jsonl", "perfbench/reference/set2/records.jsonl"])
    ap.add_argument("--readme", default="perfbench/README.md")
    ap.add_argument("--bench", default="BENCHMARK.json")
    args = ap.parse_args()
    sets = []
    for path in args.records:
        with open(path) as f:
            sets.append([json.loads(line) for line in f if line.strip()])
    with open(args.bench) as f:
        bench = json.load(f)
    text = render(sets, bench)
    with open(args.readme) as f:
        readme = f.read()
    head, rest = readme.split(BEGIN, 1)
    _, tail = rest.split(END, 1)
    with open(args.readme, "w") as f:
        f.write(head + BEGIN + "\n" + text + "\n" + END + tail)


if __name__ == "__main__":
    main()

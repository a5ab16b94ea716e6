#!/usr/bin/env python3
"""Compares bench_suite runs of two commits, or two sets of one commit.

    # parent vs change: alternating pairs, same seed within a pair
    python3 bench_suite/compare.py --parent ../parent --change . \\
        [--pairs 10] [--workloads serve-hot,read-large] \\
        [--claim ops_per_s@read-large] [--record runs.jsonl]

    # run-to-run agreement of one commit (two interleaved sets)
    python3 bench_suite/compare.py --repeat . [--pairs 5]

    # re-analyse recorded runs
    python3 bench_suite/compare.py --from runs.jsonl [--claim ...]

--parent, --change and --repeat name checkouts; each run is
`python3 bench_suite/run.py` inside one, with CARGO_TARGET_DIR=.bench_build
so every checkout builds its own copy. Metric names, bounds and the run
length (run_seconds) come from BENCHMARK.json next to this directory; a
result whose metric names differ is refused.

Rules, per end-to-end metric and workload (see README.md):
  * each side's median and quartiles, and the change's win fraction over
    the pairs (ties count for neither side);
  * a claim holds only with at least 10 pairs, wins in at least 9/10 of
    them, medians further apart than the parent's quartile distance, and
    no more failed operations than the parent;
  * regression: the change's median is worse than the parent's by more
    than the metric's bound; "unresolved" when either side's quartile
    spread is wider than the bound, unless every change run beats every
    parent run;
  * --repeat: both sets' spreads within the bound and the two medians
    apart by no more than the bound, in either direction.
Exit status: 0 pass, 1 a regression, failed claim or disagreement,
2 bad input.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_CLAIM_PAIRS = 10
MIN_REPEAT_RUNS = 5


def fail(message):
    print(f"compare: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def run_once(checkout, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run(
        ["python3", "bench_suite/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        fail(f"run failed in {checkout}: {workload} seed {seed}")
    return json.loads(lines[-1])


def collect(sides, workloads, pairs, seconds, seed_base, record):
    """Runs `pairs` rounds; within a round the side order alternates. Both
    sides of a pair get the same seed, except the second set of --repeat,
    which draws seeds of its own."""
    out = open(record, "a") if record else None
    runs = []
    for i in range(pairs):
        order = sides if i % 2 == 0 else list(reversed(sides))
        for workload in workloads:
            for side, checkout in order:
                seed = seed_base + i + (500_000 if side == "B" else 0)
                result = run_once(checkout, workload, seed, seconds)
                row = {"side": side, "workload": workload, "pair": i,
                       "seed": seed, "result": result}
                runs.append(row)
                if out:
                    out.write(json.dumps(row) + "\n")
                    out.flush()
                print(f"pair {i} {workload} {side}: correct="
                      f"{result['correct']}", file=sys.stderr)
    if out:
        out.close()
    return runs


def check_names(runs, metrics):
    for row in runs:
        names = set(row["result"]["metrics"])
        if names != set(metrics):
            fail(f"metric names {sorted(names)} do not match BENCHMARK.json "
                 f"end_to_end {sorted(metrics)}")
        if not row["result"]["correct"]:
            fail(f"incorrect result: {row['side']} {row['workload']} "
                 f"seed {row['seed']}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_share(base, value, better):
    """How much worse `value` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0
    delta = (value - base) / abs(base)
    return delta if better == "lower" else -delta


def series(runs, side, workload, metric):
    rows = sorted((r for r in runs
                   if r["side"] == side and r["workload"] == workload),
                  key=lambda r: r["pair"])
    return ([r["result"]["metrics"][metric]["value"] for r in rows],
            sum(r["result"]["failed"] for r in rows),
            [r["pair"] for r in rows])


def compare(runs, metrics, claims, repeat):
    first, second = ("A", "B") if repeat else ("parent", "change")
    workloads = sorted({r["workload"] for r in runs})
    bad = False
    print(f"{'workload':14s} {'metric':20s} {first + ' median [q1, q3]':>34s}"
          f" {second + ' median [q1, q3]':>34s} {'worse':>7s} {'bound':>6s}"
          f" {'wins':>6s}  verdict")
    for workload in workloads:
        for name, m in metrics.items():
            a, a_failed, a_pairs = series(runs, first, workload, name)
            b, b_failed, b_pairs = series(runs, second, workload, name)
            if not a or not b:
                continue
            bound, better = m["bound"], m["better"]
            aq1, amed, aq3 = quartiles(a)
            bq1, bmed, bq3 = quartiles(b)
            a_spread = (aq3 - aq1) / abs(amed) if amed else 0.0
            b_spread = (bq3 - bq1) / abs(bmed) if bmed else 0.0
            worse = worse_share(amed, bmed, better)
            paired = dict(zip(a_pairs, a))
            wins = sum(1 for p, v in zip(b_pairs, b)
                       if p in paired and worse_share(paired[p], v, better) < 0)
            n = len(b_pairs)
            if repeat:
                agree = (a_spread <= bound and b_spread <= bound
                         and abs(worse) <= bound)
                verdict = "agree" if agree else "DISAGREE"
                bad |= verdict != "agree" or min(len(a), len(b)) < \
                    MIN_REPEAT_RUNS
            else:
                all_better = all(worse_share(x, y, better) < 0
                                 for x in a for y in b)
                if max(a_spread, b_spread) > bound and not all_better:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "REGRESSION"
                    bad = True
                else:
                    verdict = "within bound"
                if f"{name}@{workload}" in claims:
                    gain = (n >= MIN_CLAIM_PAIRS and wins >= 0.9 * n
                            and worse < 0 and abs(bmed - amed) > aq3 - aq1
                            and b_failed <= a_failed)
                    verdict += "; claim " + ("HOLDS" if gain else "NOT MET")
                    bad |= not gain
            print(f"{workload:14s} {name:20s} {span(amed, aq1, aq3):>34s}"
                  f" {span(bmed, bq1, bq3):>34s} {worse:>+7.3f} {bound:>6.3f}"
                  f" {wins:>3d}/{n:<2d}  {verdict}")
    return bad


def span(median, q1, q3):
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--change", help="checkout of the change")
    src.add_argument("--repeat", help="checkout to run as two sets")
    src.add_argument("--from", dest="from_file", help="recorded runs")
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--pairs", type=int, default=MIN_CLAIM_PAIRS)
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--claim", action="append", default=[],
                        help="metric@workload the change claims to improve")
    parser.add_argument("--record", help="append every run here (JSON lines)")
    args = parser.parse_args()

    spec, metrics = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else known
    for w in workloads:
        if w not in known:
            parser.error(f"unknown workload {w}")
    for claim in args.claim:
        name, _, workload = claim.partition("@")
        if name not in metrics or workload not in known:
            parser.error(f"--claim {claim}: not a metric@workload of "
                         "BENCHMARK.json")
    seconds = spec["run_seconds"]

    repeat = args.repeat is not None
    if args.from_file:
        with open(args.from_file) as f:
            runs = [json.loads(line) for line in f if line.strip()]
        repeat = any(r["side"] == "A" for r in runs)
    elif repeat:
        runs = collect([("A", args.repeat), ("B", args.repeat)], workloads,
                       args.pairs, seconds, args.seed_base, args.record)
    else:
        if not args.parent:
            parser.error("--change needs --parent")
        runs = collect([("parent", args.parent), ("change", args.change)],
                       workloads, args.pairs, seconds, args.seed_base,
                       args.record)
    check_names(runs, metrics)
    if not repeat and args.pairs < MIN_CLAIM_PAIRS and args.claim:
        print(f"note: a claim needs at least {MIN_CLAIM_PAIRS} pairs",
              file=sys.stderr)
    sys.exit(1 if compare(runs, metrics, set(args.claim), repeat) else 0)


if __name__ == "__main__":
    main()

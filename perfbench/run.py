#!/usr/bin/env python3
"""Benchmark for pregerst: one workload per run, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run imports ``pregerst`` from ``src/`` next
to this directory and drives each workload through the calls that
``pregerst verify --report structured`` makes: ``run_suite`` on a
``SuiteConfig``, then the structured report.

1. Set-up, repeated SETUP_REPEATS times: import ``pregerst`` afresh, resolve
   the workload's configs and build every instance.  ``setup_s`` is the median.
2. Rounds: every config of the workload once, through ``run_suite`` and the
   structured report.  Rounds repeat until ``--seconds`` have passed and at
   least MIN_ROUNDS have run.  ``wall_s`` is the median over rounds.  Every round runs
   the same instances, and each instance's time is its median over the
   rounds: on a shared host an instance now and then loses several
   milliseconds to the host, and its median leaves out one such round where
   its mean keeps it.  Among the thousands of instances, those hit most
   would otherwise set the 99th percentile.
   A full collection before each set-up and each round starts every one
   from the same collector state, so collections fall on the same
   instances in every round and every run.
3. With ``--trace 1``, the tracer's own cost is calibrated and one more
   round runs under the tracer (``tracer.py``); its reports must equal the
   untraced ones byte for byte.
4. Correctness checks (``checks.py``), outside the timed region.

The last line of standard output is one JSON object; with ``--trace 0`` it
holds the end-to-end metrics, with ``--trace 1`` the per-layer ones.  Their
names and units are those of ``BENCHMARK.json`` at the repository root.  The
traced run also writes its spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from checks import check_hand_examples, check_mutants, check_reports, check_shuffle_signs
from tracer import Tracer, calibrate
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"
OUT = HERE / "out"
SETUP_REPEATS = 7
MIN_ROUNDS = 3

now = time.perf_counter


def import_fresh():
    """Imports pregerst from SRC, dropping any copy imported before."""
    for name in [n for n in sys.modules if n == "pregerst" or n.startswith("pregerst.")]:
        del sys.modules[name]
    import pregerst.suites
    if SRC.resolve() not in Path(pregerst.__file__).resolve().parents:
        raise ImportError("pregerst was imported from %s, not %s" % (pregerst.__file__, SRC))
    return pregerst.suites


def set_up(workload, seed):
    """One set-up: import, resolve the configs, build every instance."""
    gc.collect()
    t0 = now()
    suites = import_fresh()
    configs = [suites.SuiteConfig(report_format="structured", **kw) for kw in workload(seed)]
    resolved = [c.resolved() for c in configs]
    built = sum(len(suites.SUITE_SPECS[c.suite].builder(c)) for c in resolved)
    return now() - t0, suites, configs, resolved, built


def run_round(suites, configs):
    """run_suite and the structured report for every config.  Returns the
    wall time from first instance to last verdict, the part of it spent
    rendering, each instance's milliseconds, the reports and the failed count."""
    wall = render = 0.0
    millis, texts, failed = [], [], 0
    for config in configs:
        report = suites.run_suite(config)
        t0 = now()
        texts.append("\n".join(report.structured_lines()))
        spent = now() - t0
        render += spent
        wall += report.total_ms / 1000.0 + spent
        millis.extend(r.millis for r in report.records)
        failed += report.failed + report.aborted
    return wall, render, millis, texts, failed


def traced_round(suites, configs):
    gc.collect()
    tracer = Tracer(calibrate())
    tracer.install()
    tracer.install_builders(suites.SUITE_SPECS)
    try:
        result = run_round(suites, configs)
    finally:
        leftover = tracer.restore()
    return tracer, leftover, result


def layer_metrics(tracer, wall, render, untraced_wall):
    c = tracer.counts
    calls = tracer.calls
    s = tracer.corrected_self_s()

    def ratio(part, whole):
        return part / whole if whole else 0.0

    return {
        "grading.self_s": s["grading"],
        "grading.calls": calls["grading"],
        "words.self_s": s["words"],
        "words.calls": calls["words"],
        "words.add_terms": c["add_terms"],
        "words.result_terms": c["words_result_terms"],
        "words.kept_ratio": ratio(c["words_result_terms"], c["add_terms"]),
        "fractions.self_s": s["fractions"],
        "fractions.ops": calls["fractions"],
        "cooperations.self_s": s["cooperations"],
        "cooperations.calls": calls["cooperations"],
        "cooperations.distinct_input_ratio":
            ratio(c["coproduct_distinct_words"], c["coproduct_words"]),
        "cooperations.result_terms": c["coproduct_result_terms"],
        "models.self_s": s["models"],
        "models.calls": calls["models"],
        "models.atoms": c["atoms"],
        "envelopes.self_s": s["envelopes"],
        "envelopes.calls": calls["envelopes"],
        "envelopes.result_terms": c["envelope_result_terms"],
        "envelopes.vacuous": c["vacuous"],
        "suites.build_s": tracer.build_s,
        "suites.report_s": render,
        "suites.self_s": s["suites"],
        "trace.wrapper_s": tracer.wrapper_s(),
        "trace.overhead_s": wall - untraced_wall,
    }


def with_units(values, kind, problems):
    """Attaches to each value its unit from BENCHMARK.json, and notes any
    name that is not the list ``kind`` of that file, or is missing from it."""
    units = {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}
    if set(values) != set(units):
        problems.append("metrics %s do not match BENCHMARK.json %s %s"
                        % (sorted(values), kind, sorted(units)))
    return {name: {"value": v, "unit": units.get(name)} for name, v in values.items()}


def write_trace(path, workload, seed, tracer, metrics, accounted):
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "calibration": tracer.cost,
                   "accounted_ratio": accounted,
                   "calls": dict(tracer.calls),
                   "raw_self_s": tracer.self_s,
                   "counts": dict(tracer.counts),
                   "metrics": metrics,
                   "instances": tracer.instances}, fh)
        fh.write("\n")


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pregerst" / "__init__.py").is_file():
        print("error: no pregerst package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    setups = []
    for _ in range(SETUP_REPEATS):
        spent, suites, configs, resolved, built = set_up(workload, args.seed)
        setups.append(spent)

    rounds, problems = [], []
    start = now()
    while True:
        gc.collect()
        wall, render, millis, texts, failed = run_round(suites, configs)
        if not rounds:
            first_texts = texts
        elif texts != first_texts:
            problems.append("round %d reports differ from round 1" % (len(rounds) + 1))
        rounds.append((wall, millis, failed))
        if len(rounds) >= MIN_ROUNDS and now() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [r[0] for r in rounds]
    per_instance = [statistics.median(times) for times in zip(*(r[1] for r in rounds))]
    attempted = sum(len(r[1]) for r in rounds)
    failed = sum(r[2] for r in rounds)

    if built != len(per_instance):
        problems.append("set-up built %d instances, the rounds ran %d" % (built, len(per_instance)))
    if args.trace:
        tracer, leftover, (t_wall, t_render, t_millis, t_texts, t_failed) = \
            traced_round(suites, configs)
        attempted += len(t_millis)
        failed += t_failed
        if t_texts != first_texts:
            problems.append("traced reports differ from the untraced ones")
        if leftover:
            problems.append("wrappers left after restoring: %s" % ", ".join(leftover[:5]))
        values = layer_metrics(tracer, t_wall, t_render, statistics.median(walls))
        # the corrected self times, less the building that wall_s leaves out,
        # against the untraced wall_s: near 1 when the calibration holds
        accounted = ((sum(tracer.corrected_self_s().values()) - tracer.build_s)
                     / statistics.median(walls))
        print("traced: tracer cost per call %s; corrected self times account "
              "for %.3f of the untraced wall_s" % (
                  ", ".join("%s %.3g us" % (k, v * 1e6) for k, v in tracer.cost.items()),
                  accounted), file=sys.stderr)
        write_trace(OUT / ("trace-%s-seed%d.json" % (args.workload, args.seed)),
                    args.workload, args.seed, tracer, values, accounted)
        metrics = with_units(values, "per_layer", problems)
    else:
        metrics = with_units({
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "instance_ms_p50": statistics.median(per_instance),
            "instance_ms_p99": percentile(per_instance, 99),
        }, "end_to_end", problems)

    problems += check_reports(resolved, first_texts)
    problems += check_shuffle_signs(args.seed)
    problems += check_hand_examples()
    problems += check_mutants()
    for problem in problems:
        print("check failed: %s" % problem, file=sys.stderr)
    print("%s seed %d: %d rounds, wall_s %s, setup_s %s" % (
        args.workload, args.seed, len(rounds), " ".join("%.3f" % w for w in walls),
        " ".join("%.3f" % s for s in setups)), file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""One command that builds, runs and checks the end-to-end benchmark.

  python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run. The last line of stdout is one JSON object:
      {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
      with every end_to_end metric of BENCHMARK.json (--trace 0) or every
      per_layer metric (--trace 1).
  python3 e2ebench/run.py [--workload NAME] [--repeat K] [--out FILE] ...
      Every workload (or one), K runs each on seeds N, N+1, ...: prints each
      metric by name and unit with its median and quartiles, and writes
      the runs to FILE for `compare`.
  python3 e2ebench/run.py compare A.json B.json
      Applies each end-to-end metric's bound to B against A.
  python3 e2ebench/run.py --self-test

The first call builds the harness with CMake into .bench_build/e2ebench
(or --build-dir). Exit code 0 means every run built, ran and passed its
output checks.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True  # importing tools/bench_schema writes nothing
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
DEFAULT_SEED = 20110829
# Per-harness-process wall-clock cap on top of the measured window: set-up
# and the traced probes take well under this.
SLACK_SECONDS = 150


class BenchError(Exception):
    pass


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds both harness binaries."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def schema_errors(path):
    """Checks a harness report against tools/bench_schema.py, if present."""
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    try:
        import bench_schema
    except ImportError:
        return []
    finally:
        sys.path.pop(0)
    return bench_schema.validate_file(path)


def run_harness(build_dir, binary, workload, seed, seconds):
    """Runs one harness process; returns (metrics by name, checks passed)."""
    out_dir = os.path.join(build_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-%s-%d" % (binary, workload, seed))
    json_path = stem + ".json"
    if os.path.exists(json_path):
        os.remove(json_path)
    cmd = [os.path.join(build_dir, binary), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--json", json_path]
    if binary.endswith("_traced"):
        cmd += ["--spans", stem + ".spans.json"]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr,
                              timeout=seconds + SLACK_SECONDS)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out" % binary)
    if proc.returncode not in (0, 1) or not os.path.exists(json_path):
        raise BenchError("%s exited with %d" % (binary, proc.returncode))
    errors = schema_errors(json_path)
    for e in errors:
        log("SCHEMA ERROR " + e)
    with open(json_path) as f:
        doc = json.load(f)
    metrics = {m["name"]: m["value"] for m in doc["metrics"]}
    return metrics, proc.returncode == 0 and not errors


def digests(metrics):
    return {k: v for k, v in metrics.items() if k.startswith("check.json_fnv")}


def run_once(spec, build_dir, workload, seed, seconds, trace):
    """One benchmark run: the result object of the output contract."""
    if not trace:
        metrics, ok = run_harness(build_dir, "bench_e2e", workload, seed,
                                  seconds)
        if (supported_percentile(int(metrics["check.attempted"])) or 0) < 90:
            log("fewer than 100 requests: p90 has under 10 samples beyond it")
        wanted, runs = spec["end_to_end"], [metrics]
    else:
        # Half the window untraced, half traced: the difference between the
        # two is the tracing overhead, and both must give the same reports.
        plain, ok_plain = run_harness(build_dir, "bench_e2e", workload, seed,
                                      seconds / 2)
        metrics, ok_traced = run_harness(build_dir, "bench_e2e_traced",
                                         workload, seed, seconds / 2)
        ok = ok_plain and ok_traced
        if digests(plain) != digests(metrics):
            log("traced and untraced JSON reports differ")
            ok = False
        metrics["trace.overhead_pct"] = 100.0 * (
            metrics["tune_p50_ms"] / plain["tune_p50_ms"] - 1.0)
        wanted, runs = spec["per_layer"], [plain, metrics]
    out = {}
    for m in wanted:
        if m["name"] not in metrics:
            raise BenchError("harness did not report " + m["name"])
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    return {
        "correct": ok,
        "attempted": sum(int(r["check.attempted"]) for r in runs),
        "failed": sum(int(r["check.failed"]) for r in runs),
        "metrics": out,
    }


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def supported_percentile(n, levels=(50.0, 90.0, 99.0, 99.9)):
    """Highest percentile with at least ten of n samples beyond it."""
    best = None
    for p in levels:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def worse_by(metric, base, new):
    """How much worse `new` is than `base`, as a share of |base|."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    delta = (new - base) if metric["better"] == "lower" else (base - new)
    return delta / abs(base)


def verdict(metric, a_values, b_values):
    """'regression', 'unresolved', 'better' or 'ok' for B against A."""
    bound = metric["bound"]
    a_med, b_med = statistics.median(a_values), statistics.median(b_values)
    lower = metric["better"] == "lower"
    b_beats_all = all((b < a) if lower else (b > a)
                      for a in a_values for b in b_values)
    if worse_by(metric, a_med, b_med) > bound:
        return "regression"
    if max(spread(a_values), spread(b_values)) > bound and not b_beats_all:
        return "unresolved"
    return "better" if b_beats_all else "ok"


def summarize(runs):
    """Prints median and quartiles of every metric over the repeats."""
    for workload, results in runs.items():
        print("\n== %s (%d runs) ==" % (workload, len(results)))
        print("%-36s %-6s %12s %12s %12s %8s" %
              ("metric", "unit", "median", "q1", "q3", "spread"))
        names = list(results[0]["metrics"])
        for name in names:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            print("%-36s %-6s %12.4f %12.4f %12.4f %7.1f%%" %
                  (name, results[0]["metrics"][name]["unit"], med, q1, q3,
                   100.0 * spread(values)))
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print("requests: %d attempted, %d failed" % (attempted, failed))


def compare(spec, a_path, b_path):
    docs = []
    for path in (a_path, b_path):
        with open(path) as f:
            docs.append(json.load(f))
        if docs[-1]["trace"]:
            log("%s holds traced runs; compare untraced ones" % path)
            return 2
    a, b = docs[0]["runs"], docs[1]["runs"]
    status = 0
    print("%-18s %-18s %12s %12s %8s %6s  %s" %
          ("workload", "metric", "A median", "B median", "spread", "bound",
           "verdict"))
    for workload in sorted(set(a) & set(b)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            av = [r["metrics"][name]["value"] for r in a[workload]]
            bv = [r["metrics"][name]["value"] for r in b[workload]]
            v = verdict(metric, av, bv)
            if v == "regression":
                status = 1
            print("%-18s %-18s %12.4f %12.4f %7.1f%% %5.0f%%  %s" %
                  (workload, name, statistics.median(av),
                   statistics.median(bv),
                   100.0 * max(spread(av), spread(bv)),
                   100.0 * metric["bound"], v))
    return status


class SelfTest(unittest.TestCase):
    def test_supported_percentile(self):
        self.assertIsNone(supported_percentile(19))
        self.assertEqual(supported_percentile(20), 50.0)
        self.assertEqual(supported_percentile(99), 50.0)
        self.assertEqual(supported_percentile(100), 90.0)
        self.assertEqual(supported_percentile(1000), 99.0)
        self.assertEqual(supported_percentile(10000), 99.9)

    def test_quartiles_and_spread(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, med, q3 = quartiles(values)
        self.assertEqual(med, 5.5)
        self.assertEqual((q1, q3), (2.75, 8.25))
        self.assertAlmostEqual(spread(values), 1.0)
        self.assertEqual(spread([4.0]), 0.0)

    def test_verdicts(self):
        lower = {"name": "t", "better": "lower", "bound": 0.1}
        higher = {"name": "q", "better": "higher", "bound": 0.1}
        base = [100.0, 101.0, 99.0, 100.0, 100.5]
        self.assertEqual(verdict(lower, base, [104.0, 105.0, 103.0]), "ok")
        self.assertEqual(verdict(lower, base, [115.0, 116.0, 114.0]),
                         "regression")
        self.assertEqual(verdict(lower, base, [80.0, 81.0, 79.0]), "better")
        self.assertEqual(verdict(higher, base, [80.0, 81.0, 79.0]),
                         "regression")
        noisy = [70.0, 100.0, 130.0, 100.0]
        self.assertEqual(verdict(lower, base, noisy), "unresolved")

    def test_spec_names(self):
        spec = load_spec()
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", names)
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            log("usage: run.py compare A.json B.json")
            return 2
        return compare(load_spec(), argv[1], argv[2])
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--build-dir",
                   default=os.path.join(ROOT, ".bench_build", "e2ebench"))
    p.add_argument("--out")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    if args.self_test:
        suite = unittest.TestLoader().loadTestsFromTestCase(SelfTest)
        result = unittest.TextTestRunner(stream=sys.stderr).run(suite)
        return 0 if result.wasSuccessful() else 1

    try:
        spec = load_spec()
        workloads = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in workloads:
            raise BenchError("unknown workload %s (known: %s)" %
                             (args.workload, " ".join(workloads)))
        if args.repeat < 1 or args.seed < 0:
            raise BenchError("--repeat wants >= 1 and --seed >= 0")
        seconds = args.seconds or spec["run_seconds"]
        build_dir = os.path.abspath(args.build_dir)
        build(build_dir)
        if args.workload is not None and args.repeat == 1:
            result = run_once(spec, build_dir, args.workload, args.seed,
                              seconds, args.trace)
            print(json.dumps(result))
            return 0 if result["correct"] and result["failed"] == 0 else 1
        runs = {}
        for workload in ([args.workload] if args.workload else workloads):
            runs[workload] = []
            for i in range(args.repeat):
                log("%s seed %d" % (workload, args.seed + i))
                runs[workload].append(run_once(
                    spec, build_dir, workload, args.seed + i, seconds,
                    args.trace))
    except BenchError as e:
        log("error: %s" % e)
        return 1
    summarize(runs)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"trace": args.trace, "runs": runs}, f, indent=1)
    bad = [r for rs in runs.values() for r in rs
           if not r["correct"] or r["failed"]]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

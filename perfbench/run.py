#!/usr/bin/env python3
"""End-to-end benchmark of the arithgroups CLI, with a traced run for per-layer numbers.

Run from the repository root:

    python3 perfbench/run.py --workload congruence_scan --seed 1 --seconds 15 --trace 0

Each workload in perfbench/workloads.json is a fixed list of CLI commands.  A
pass runs them one after another, each as a fresh ``python -m arithgroups.cli``
child with PYTHONPATH=src (a closed loop with one client, one child at a time),
started through perfbench/cli_child.py so that it reports its own peak memory.  Passes repeat until --seconds have gone by (at
least one pass); every reported time is the median over passes.  Every output is
checked (recorded digests, golden files, or invariants the benchmark computes
itself), and a failed check is counted, never retried.

On a shared host the CPUs differ in speed and each one's speed drifts by 10-30%
within seconds, more than a change worth measuring.  So the benchmark and its
children run on one CPU, and the benchmark times a fixed piece of pure-Python
reference work on that CPU before a child starts, after it ends, and in pauses
(SIGSTOP) every SAMPLE_EVERY_S while it runs.  Each running stretch of the child
is divided by the mean reference time at its two ends: ``wall_ref`` and
``cpu_ref`` are a pass's times counted in units of the reference work
(``ref_units``).  ``setup_s`` is the median time of ``arithgroups --version`` in
seconds at the reference speed (reference work of REF_NOMINAL_S seconds).  The
raw seconds stay on the detail line.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json.  --trace 1
alternates untraced passes with passes whose children run
perfbench/trace_child.py, and prints the per-layer metrics named there.  The
line before the result carries everything else: provenance, the closure
backend per command, error_rate, the cache_replay cold/warm split and, when
tracing, every per-layer metric including absolute seconds per layer.
``trace_overhead`` is the median over pairs of adjacent passes of the traced
pass's wall time over the untraced one's.

The seed draws the two words of the generator file that the seeded commands
read; the same seed gives the same inputs, and work varies with the seed, so
compare runs only at one seed.
"""

import argparse
import json
import os
import platform
import random
import select
import signal
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from hashlib import sha256

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 20261017
SETUP_REPEATS = 9
SAMPLE_EVERY_S = 0.25
# the reference work's median time on a 2-vCPU Intel Xeon VM with CPython 3.11; it
# only scales setup_s into seconds
REF_NOMINAL_S = 0.020
COMMAND_TIMEOUT_S = 150
WORD_LENGTH = 8

# S = [[0,-1],[1,0]] and T = [[1,1],[0,1]]; lower case is the inverse.
LETTERS = {
    "S": ((0, -1), (1, 0)),
    "s": ((0, 1), (-1, 0)),
    "T": ((1, 1), (0, 1)),
    "t": ((1, -1), (0, 1)),
}

# (span name, "s" for time inside the outermost calls or "self_s" for self time)
TIMED_SPANS = [
    ("closure", "s"),
    ("congruence.strong_approx_scan", "s"),
    ("congruence.reduce_generators", "s"),
    ("congruence.quasisimple_check", "self_s"),
    ("density.density_verdict", "s"),
    ("density.ad_span", "s"),
    ("density.lubotzky_scan", "self_s"),
    ("numberfield.chebotarev_scan", "s"),
    ("numberfield.is_split", "self_s"),
    ("poly.pow_mod", "s"),
    ("report.render_report", "s"),
    ("report.cache_get", "s"),
    ("report.cache_put", "s"),
    ("catalog.load_group", "s"),
    ("catalog.load_field", "s"),
    ("cli.dispatch", "s"),
    ("cli.dispatch", "self_s"),
]
COUNTED_SPANS = ["closure", "congruence.quasisimple_check", "numberfield.is_split",
                 "poly.pow_mod", "report.cache_get", "report.cache_put"]
CHILD_COUNTERS = ["closure.engine_checked", "closure.engine_mismatch", "poly.divmod.calls",
                  "report.render_report.bytes", "report.cache_get.hits",
                  "report.cache_put.bytes"]
EMPTY_TRACE = {"spans": [], "counts": {}, "closures": [], "distinct_closures": 0}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or a broken spec)."""


# --- inputs -----------------------------------------------------------------

def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)) for i in range(2)
    )


def seeded_words(rng, count=2, length=WORD_LENGTH):
    """Freely reduced random words in S, T and their inverses."""
    words = []
    for _ in range(count):
        word = ""
        while len(word) < length:
            letter = rng.choice("SsTt")
            if word and letter == word[-1].swapcase():
                continue
            word += letter
        words.append(word)
    return words


def write_generator_file(path, seed, words):
    blocks = [f"# seed {seed}: words {' '.join(words)}"]
    for word in words:
        acc = ((1, 0), (0, 1))
        for letter in word:
            acc = mat_mul(acc, LETTERS[letter])
        blocks.append("\n".join(" ".join(str(x) for x in row) for row in acc))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n\n".join(blocks) + "\n")


# --- output checks ----------------------------------------------------------

def factorint(m):
    out, p = [], 2
    while p * p <= m:
        k = 0
        while m % p == 0:
            m //= p
            k += 1
        if k:
            out.append((p, k))
        p += 1
    if m > 1:
        out.append((m, 1))
    return out


def order_sl(n, m):
    """|SL_n(Z/m)| from the product formula over the prime powers of m."""
    total = 1
    for p, k in factorint(m):
        base = p ** (n * (n - 1) // 2)
        for i in range(2, n + 1):
            base *= p ** i - 1
        total *= p ** ((k - 1) * (n * n - 1)) * base
    return total


def primes_upto(bound):
    return [p for p in range(2, bound + 1) if all(p % q for q in range(2, int(p ** 0.5) + 1))]


def check_seeded_scan(payload, pmax):
    problems = []
    if payload.get("group") != "seeded":
        problems.append(f"group label {payload.get('group')!r}")
    records = payload["records"]
    if [r["m"] for r in records] != primes_upto(pmax):
        problems.append("moduli are not the primes up to pmax")
    for r in records:
        if r["target_order"] != order_sl(2, r["m"]):
            problems.append(f"target_order mod {r['m']}")
        if r["truncated"]:
            if r["image_order"] is not None or r["surjective"] is not None:
                problems.append(f"truncated record mod {r['m']} carries an order")
            continue
        if r["surjective"] != (r["image_order"] == r["target_order"]):
            problems.append(f"surjective mod {r['m']} disagrees with the orders")
        if r["target_order"] % r["image_order"]:
            problems.append(f"image order mod {r['m']} does not divide the target")
    if payload["exceptional_primes"] != [r["m"] for r in records if r["surjective"] is False]:
        problems.append("exceptional_primes")
    return problems


def check_seeded_density(payload):
    problems = []
    if payload.get("group") != "seeded":
        problems.append(f"group label {payload.get('group')!r}")
    verdict = payload["verdict"]
    if verdict == "DENSE_EVIDENCE":
        if not (payload["full_span"] and payload["ad_span_dim"] == 9
                and payload["infinite_order_witness"] is not None):
            problems.append("DENSE_EVIDENCE without full span and witness")
    elif verdict == "NOT_DENSE":
        if payload["not_dense_witness"] is None:
            problems.append("NOT_DENSE without witness")
    elif verdict != "INCONCLUSIVE":
        problems.append(f"unknown verdict {verdict!r}")
    return problems


def check_output(command, argv, out):
    """Return a list of problems with one command's stdout."""
    check = command["check"]
    if "sha256" in check:
        return [] if sha256(out).hexdigest() == check["sha256"] else ["stdout digest differs"]
    if "golden" in check:
        with open(os.path.join(ROOT, check["golden"]), "rb") as fh:
            return [] if out == fh.read() else [f"stdout differs from {check['golden']}"]
    try:
        payload = json.loads(out)
        if check["seeded"] == "scan":
            return check_seeded_scan(payload, int(argv[argv.index("--pmax") + 1]))
        return check_seeded_density(payload)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return [f"malformed report: {exc!r}"]


# --- running children -------------------------------------------------------

def pin_to_one_cpu():
    """Run this process and its children on one CPU, the one the reference work measures."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _mat_mul_mod(a, b, p):
    return ((a[0] * b[0] + a[1] * b[2]) % p, (a[0] * b[1] + a[1] * b[3]) % p,
            (a[2] * b[0] + a[3] * b[2]) % p, (a[2] * b[1] + a[3] * b[3]) % p)


def reference_work():
    """Time the fixed reference work; returns (wall s, cpu s).

    Pure-Python loops that use nothing from the package, so a change to it cannot
    move them, doing the kinds of work the commands do: a breadth-first closure of
    two 2x2 matrices mod 31 kept as tuples in a set, hashing pairs into a small
    set, growing a larger set of triples, and big-integer modular squaring.  A
    host's slowdowns hit these kinds unequally, and on a 2-vCPU VM their sum
    tracked the commands' times closer than a plain arithmetic loop did.
    """
    wall, cpu = time.perf_counter(), time.process_time()
    seen = {(1, 0, 0, 1)}
    frontier = [(1, 0, 0, 1)]
    while frontier and len(seen) < 4_000:
        grown = []
        for x in frontier:
            for g in ((1, 1, 0, 1), (1, 0, 1, 1)):
                y = _mat_mul_mod(x, g, 31)
                if y not in seen:
                    seen.add(y)
                    grown.append(y)
        frontier = grown
    seen, x = set(), 1
    for _ in range(2):
        for _ in range(6_000):
            x = (x * 1103515245 + 12345) % 2 ** 31
            if (x % 65537, x >> 16) not in seen:
                seen.add((x % 65537, x >> 16))
    seen = set()
    for i in range(20_000):
        x = (x * 1103515245 + 12345) % 2 ** 31
        seen.add((x % 65537, x >> 16, i))
    x, m = 3, 2 ** 127 - 1
    for i in range(8_000):
        x = x * x % m + i
    return time.perf_counter() - wall, time.process_time() - cpu


class Runner:
    """Runs CLI children one at a time, checks their output and keeps the tally."""

    def __init__(self, work):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC
        self.env.pop("ARITHGROUPS_CACHE_DIR", None)
        self.out_path = os.path.join(work, "stdout")
        self.err_path = os.path.join(work, "stderr")
        self.spans_path = os.path.join(work, "spans.json")
        self.rss_path = os.path.join(work, "peak_rss_kib")
        self.attempted = 0
        self.failures = []
        self.first_output = {}
        self.ref = reference_work()

    def spawn(self, argv, sample=True):
        """Run one child, pausing it every SAMPLE_EVERY_S to time the reference work.

        Returns (exit code, stdout, stderr, times), where times holds the child's
        wall and CPU seconds and both counted in reference units.  The wall time is
        the sum of the running stretches; each stretch is divided by the mean of the
        reference times at its two ends.  With sample=False (traced children, whose
        spans would count the pauses) the child runs in one stretch.
        """
        stretches = []
        ref_before = self.ref
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            start = time.perf_counter()
            deadline = start + COMMAND_TIMEOUT_S
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            pidfd = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(pidfd, select.POLLIN)
                while True:
                    exited = poller.poll(1000 * (SAMPLE_EVERY_S if sample else COMMAND_TIMEOUT_S))
                    if not exited and time.perf_counter() > deadline:
                        proc.kill()
                    os.kill(proc.pid, signal.SIGSTOP)
                    _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                    stretch = time.perf_counter() - start
                    if not os.WIFSTOPPED(status):
                        break
                    ref = reference_work()
                    stretches.append((stretch, ref_before, ref))
                    ref_before = ref
                    os.kill(proc.pid, signal.SIGCONT)
                    start = time.perf_counter()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                os.close(pidfd)
        self.ref = reference_work()
        stretches.append((stretch, ref_before, self.ref))
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(self.out_path, "rb") as fh:
            stdout = fh.read()
        with open(self.err_path, "rb") as fh:
            stderr = fh.read()
        wall = sum(stretch for stretch, _, _ in stretches)
        cpu = usage.ru_utime + usage.ru_stime
        times = {
            "wall": wall,
            "cpu": cpu,
            "wall_ref": sum(t / ((a[0] + b[0]) / 2) for t, a, b in stretches),
            "cpu_ref": sum(cpu * t / wall / ((a[1] + b[1]) / 2) for t, a, b in stretches),
        }
        return proc.returncode, stdout, stderr, times

    def run(self, label, command, argv, traced=False, expect=None):
        """Run one CLI command; returns a per-command record."""
        if traced:
            child = [sys.executable, os.path.join(HERE, "trace_child.py"), self.spans_path]
            result_path = self.spans_path
        else:
            child = [sys.executable, os.path.join(HERE, "cli_child.py"), self.rss_path]
            result_path = self.rss_path
        if os.path.exists(result_path):
            os.unlink(result_path)
        code, out, err, times = self.spawn(child + argv, sample=not traced)
        self.attempted += 1
        problems = []
        if code != 0:
            problems.append(f"exit {code}: {err.decode(errors='replace')[-300:]}")
        elif b"Traceback" in err:
            problems.append("traceback on stderr")
        else:
            problems += check_output(command, argv, out)
            if expect is not None and out != expect:
                problems.append("cache hit differs from its miss")
            if self.first_output.setdefault(label, out) != out:
                problems.append("output differs from the first pass")
        record = dict(times, label=label, out=out)
        try:
            with open(result_path, encoding="utf-8") as fh:
                if traced:
                    record["trace"] = json.load(fh)
                else:
                    record["rss_kib"] = int(fh.read())
        except FileNotFoundError:
            problems.append(f"the child wrote no {os.path.basename(result_path)}")
            record["trace"] = EMPTY_TRACE
            record["rss_kib"] = 0
        if problems:
            self.failures.append({"argv": argv, "problems": problems})
        return record

    def version_wall(self):
        """Time `arithgroups --version`; returns (wall s, wall s at the reference speed)."""
        code, out, _, times = self.spawn([sys.executable, "-m", "arithgroups.cli", "--version"])
        self.attempted += 1
        if code != 0 or not out.strip():
            self.failures.append({"argv": ["--version"], "problems": [f"exit {code}"]})
        return times["wall"], times["wall_ref"] * REF_NOMINAL_S


def expand(argv, paths):
    return [paths.get(a, a) for a in argv]


def run_pass(runner, workload, paths, traced, warm_order):
    """One pass over a workload's commands; returns its records and timings."""
    commands = workload["commands"]
    if warm_order is not None:
        # cache_replay: a fresh cache dir, every command once cold, then warm hits
        paths = dict(paths, **{"{cache}": tempfile.mkdtemp(prefix="cache-", dir=runner.work)})
    records = [runner.run(" ".join(c["argv"]), c, expand(c["argv"], paths), traced)
               for c in commands]
    timings = {}
    if warm_order is not None:
        timings["cold"] = sum(r["wall"] for r in records)
        timings["cold_ref"] = sum(r["wall_ref"] for r in records)
        for i in warm_order:
            c = commands[i]
            records.append(runner.run(" ".join(c["argv"]) + " [warm]", c,
                                      expand(c["argv"], paths), traced, expect=records[i]["out"]))
        shutil.rmtree(paths["{cache}"])
    # the passes' times are sums over their children, so the reference work between them
    # are not counted
    for key in ("wall", "cpu", "wall_ref", "cpu_ref"):
        timings[key] = sum(r[key] for r in records)
    if warm_order is not None:
        timings["warm"] = timings["wall"] - timings["cold"]
        timings["warm_ref"] = timings["wall_ref"] - timings["cold_ref"]
    return dict(timings, records=records)


# --- metrics ----------------------------------------------------------------

def unit_of(name):
    if name.endswith("_ref"):
        return "ref_units"
    if name.endswith("elements_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("share"):
        return "%"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "bytes"
    if name in ("error_rate", "trace_overhead", "congruence.closure_reuse"):
        return "ratio"
    return "count"


def end_to_end(passes, setup_walls, runner):
    med = statistics.median
    metrics = {
        "wall_ref": med(p["wall_ref"] for p in passes),
        "cpu_ref": med(p["cpu_ref"] for p in passes),
        "wall_s": med(p["wall"] for p in passes),
        "cpu_s": med(p["cpu"] for p in passes),
        "setup_s": med(ref_s for _, ref_s in setup_walls),
        "setup_raw_s": med(raw for raw, _ in setup_walls),
        "peak_rss_mb": med(max(r["rss_kib"] for r in p["records"]) for p in passes) / 1024,
        "error_rate": len(runner.failures) / runner.attempted,
    }
    if "cold" in passes[0]:
        metrics["cold_pass_s"] = med(p["cold"] for p in passes)
        metrics["warm_pass_s"] = med(p["warm"] for p in passes)
        metrics["cold_pass_ref"] = med(p["cold_ref"] for p in passes)
        metrics["warm_pass_ref"] = med(p["warm_ref"] for p in passes)
    return metrics


def span_totals(spans):
    """Per span name: calls, time in outermost calls, and self time."""
    calls, inclusive, self_time = Counter(), Counter(), Counter()
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_time[name] += end - start - covered[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            inclusive[name] += end - start
    return calls, inclusive, self_time


def layer_metrics(traced_pass):
    """Every per-layer metric of one traced pass, summed over its commands."""
    calls, inclusive, self_time, counts = Counter(), Counter(), Counter(), Counter()
    backend_elements, backend_seconds = Counter(), Counter()
    distinct = startup = 0
    for rec in traced_pass["records"]:
        trace = rec["trace"]
        c, i, s = span_totals(trace["spans"])
        calls.update(c)
        inclusive.update(i)
        self_time.update(s)
        counts.update(trace["counts"])
        distinct += trace["distinct_closures"]
        startup += rec["wall"] - i["cli.dispatch"]
        for backend, _, _, order, _, seconds in trace["closures"]:
            backend_elements[backend] += order
            backend_seconds[backend] += seconds
    metrics = {}
    dispatch = inclusive["cli.dispatch"]
    for span, kind in TIMED_SPANS:
        seconds = inclusive[span] if kind == "s" else self_time[span]
        metrics[f"{span}.{kind}"] = seconds
        metrics[f"{span}.{kind[:-1]}share"] = 100 * seconds / dispatch if dispatch else 0.0
    for span in COUNTED_SPANS:
        metrics[f"{span}.calls"] = calls[span]
    for name in CHILD_COUNTERS:
        metrics[name] = counts[name]
    metrics["closure.elements"] = sum(backend_elements.values())
    metrics["closure.truncated"] = sum(
        r[4] for rec in traced_pass["records"] for r in rec["trace"]["closures"])
    for backend in backend_elements:
        if backend_seconds[backend] > 0:
            metrics[f"closure.{backend}.elements_per_s"] = (
                backend_elements[backend] / backend_seconds[backend])
    metrics["congruence.distinct_closures"] = distinct
    if calls["closure"]:
        metrics["congruence.closure_reuse"] = distinct / calls["closure"]
    metrics["cli.startup_s"] = startup
    return metrics


def command_walls(passes):
    """Median wall time per command label over the passes."""
    walls = {}
    for p in passes:
        for rec in p["records"]:
            walls.setdefault(rec["label"], []).append(rec["wall"])
    return {label: statistics.median(w) for label, w in walls.items()}


def median_metrics(rows):
    names = set.intersection(*(set(r) for r in rows))
    return {n: statistics.median(r[n] for r in rows) for n in sorted(names)}


def with_units(metrics):
    return {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}


# --- provenance -------------------------------------------------------------

def git_revision():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def backends(workload):
    """The closure backend each command selects at its shape, from the tree's own rule."""
    sys.path.insert(0, SRC)
    from arithgroups import closure

    out = []
    for command in workload["commands"]:
        shape = command["shape"]
        out.append({
            "argv": command["argv"],
            "shape": shape,
            "backend": closure.backend_name(*shape) if shape else None,
        })
    return closure._native is not None, out


# --- main -------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/arithgroups/cli.py", "tests/golden", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"{needed} is missing; run from a full checkout")
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    if args.workload not in spec["workloads"]:
        raise BenchError(f"unknown workload {args.workload!r}")
    workload = spec["workloads"][args.workload]

    pinned_cpu = pin_to_one_cpu()
    rng = random.Random(args.seed)
    words = seeded_words(rng)
    warm_order = None
    if "warm_hits" in workload:
        count = len(workload["commands"])
        warm_order = [i % count for i in range(workload["warm_hits"])]
        rng.shuffle(warm_order)
    kernel_imports, command_backends = backends(workload)

    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        seeded = os.path.join(work, "seeded.gens")
        write_generator_file(seeded, args.seed, words)
        paths = {"{seeded}": seeded}
        runner = Runner(work)
        setup_walls = [runner.version_wall() for _ in range(SETUP_REPEATS)]

        plain, traced = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            plain.append(run_pass(runner, workload, paths, False, warm_order))
            if args.trace:
                traced.append(run_pass(runner, workload, paths, True, warm_order))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e = end_to_end(plain, setup_walls, runner)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seeded_words": words,
        "provenance": {
            "python": platform.python_version(),
            "git_revision": git_revision(),
            "nproc": os.cpu_count(),
            "pinned_cpu": pinned_cpu,
            "kernel_imports": kernel_imports,
            "commands": command_backends,
        },
        "passes": len(plain),
        "pass_walls_s": [p["wall"] for p in plain],
        "pass_wall_refs": [p["wall_ref"] for p in plain],
        "command_walls_s": command_walls(plain),
        "attempted": runner.attempted,
        "failures": runner.failures[:5],
        "end_to_end": with_units(e2e),
    }
    if args.trace:
        layers = median_metrics([layer_metrics(t) for t in traced])
        # traced children run unpaused, so compare raw walls of adjacent passes
        layers["trace_overhead"] = statistics.median(
            t["wall"] / p["wall"] for p, t in zip(plain, traced))
        detail["traced_passes"] = len(traced)
        detail["per_layer"] = with_units(layers)
        source, names = layers, declared["per_layer"]
    else:
        source, names = e2e, declared["end_to_end"]
    metrics = {}
    for entry in names:
        if entry["name"] not in source:
            raise BenchError(f"metric {entry['name']} was not measured")
        metrics[entry["name"]] = {"value": source[entry["name"]], "unit": entry["unit"]}

    for failure in runner.failures[:5]:
        print("FAILED", " ".join(failure["argv"]), "; ".join(failure["problems"]),
              file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    # a terminated run still kills and reaps its child (a paused one too) on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        main()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)

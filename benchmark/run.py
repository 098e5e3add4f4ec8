"""Benchmark of the `sidediameter` command line, measured from outside the program.

Usage, from the root of a checkout (the package is read from ./src):

    python3 benchmark/run.py --workload {huge-pair,table,convergence,all}
                             [--seed N] [--seconds S] [--trace 0|1]

A workload is a seeded list of argument lists (see workloads.py).  They run
in a closed loop with one client: one fresh process per command, which runs
the package as `python -m sidediameter ...` does (through child.py), stdout
drained through a pipe, every output checked by checks.py outside the timed
region.

--trace 0 reports the end-to-end metrics: set-up time (median of fresh
`verify --all` processes), per-command wall time (median and tail over every
run of every command), throughput, payload rate and the peak RSS of any
command, as child.py reports it.
--trace 1 runs each command twice, untraced and through traced_child.py
(alternating which goes first), and reports per-layer self times and counts
from the spans, fresh-process set-up probes, and the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The full result, with
the environment stamp and sample counts, is also written to
.bench_results/<workload>-seed<N>-trace<T>.json.  Exits 2 without a result
when ./src holds no sidediameter package.
"""

import argparse
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import checks
import workloads
from child import RSS_MARKER
from traced_child import SPANS_MARKER

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
TRACED_CHILD = HERE / "traced_child.py"
RESULTS_DIR = ".bench_results"
SETUP_REPS = 11
PASSES = 2
COMMAND_TIMEOUT_S = 60
DEADLINE_S = 140  # stop issuing commands so that the run exits within 180 s
SETUP_ARGV = ["verify", "--all"]
PROBE = (
    "import time; t0 = time.perf_counter(); import sidediameter.cli as cli; t1 = time.perf_counter(); "
    "cli.build_parser().parse_args(['verify', '--all']); t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
LAYERS = ("pairs", "approx", "identities", "cli")
SPAN_METRICS = {  # per-layer metric -> (span name, "self" | "total" | "calls")
    "pairs.nth.s": ("pairs.nth", "self"),
    "pairs.nth.calls": ("pairs.nth", "calls"),
    "pairs.check.s": ("pairs.check", "self"),
    "pairs.check.calls": ("pairs.check", "calls"),
    "pairs.sign.s": ("pairs.sign", "self"),
    "pairs.sign.calls": ("pairs.sign", "calls"),
    "pairs.generate.s": ("pairs.generate", "self"),
    "approx.correct_digits.s": ("approx.correct_digits", "self"),
    "approx.correct_digits.calls": ("approx.correct_digits", "calls"),
    "approx.step.s": ("approx.step", "self"),
    "approx.step.calls": ("approx.step", "calls"),
    "approx.side_of_sqrt2.s": ("approx.side_of_sqrt2", "self"),
    "approx.decimal_string.s": ("approx.decimal_string", "self"),
    "approx.decimal_string.calls": ("approx.decimal_string", "calls"),
    "identities.trace_elegant.s": ("identities.trace_elegant", "self"),
    "identities.render.s": ("identities.render", "self"),
    "cli.run.s": ("cli.run", "total"),
    "cli.self_s": ("cli.run", "self"),
}


class Outcome(NamedTuple):
    wall: float
    stdout: bytes
    report: dict | None  # spans and counters of a traced run
    peak_kb: int | None  # peak RSS of an untraced run


class Runner:
    """Runs `sidediameter` commands in fresh processes and checks their output."""

    def __init__(self, root: Path, digits: checks.Sqrt2Digits, deadline: float):
        self.root = root
        self.digits = digits
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        self.attempted = 0
        self.failures = []
        self.checked = {}  # argv -> stdout that passed the checks

    def spawn(self, argv: list[str]) -> tuple[float, subprocess.CompletedProcess | None]:
        """Wall time from spawn to exit with both pipes drained; None on timeout."""
        begin = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return time.perf_counter() - begin, None
        return time.perf_counter() - begin, subprocess.CompletedProcess(argv, proc.returncode, out, err)

    def command(self, argv: list[str], traced: bool = False) -> Outcome | None:
        """Run and check one command; None if it failed."""
        self.attempted += 1
        if time.perf_counter() > self.deadline:
            return self.fail(argv, "not started: run deadline passed")
        prefix = [sys.executable, str(TRACED_CHILD if traced else CHILD)]
        wall, done = self.spawn(prefix + argv)
        if done is None:
            return self.fail(argv, f"timed out after {COMMAND_TIMEOUT_S} s")
        if done.returncode != 0:
            return self.fail(argv, f"exit code {done.returncode}: {done.stderr.decode(errors='replace')[-300:]}")
        try:
            # The CLI's stdout is deterministic, so a repeat that matches a checked run needs no new check.
            if self.checked.get(tuple(argv)) != done.stdout:
                checks.check(argv, done.stdout.decode(), self.digits)
                self.checked[tuple(argv)] = done.stdout
            stderr = done.stderr.decode()
            report = json.loads(stderr.rpartition(SPANS_MARKER)[2]) if traced else None
            peak_kb = None if traced else int(stderr.rpartition(RSS_MARKER)[2])
        except (checks.CheckError, LookupError, ValueError, TypeError) as exc:
            return self.fail(argv, f"wrong output: {type(exc).__name__}: {exc}")
        return Outcome(wall, done.stdout, report, peak_kb)

    def fail(self, argv: list[str], reason: str):
        self.failures.append(f"{' '.join(argv)[:80]}: {reason}")
        return None


def tail(walls: list[float]) -> tuple[float, float]:
    """(p, value): the highest listed percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(walls)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1]


def measure(runner: Runner, commands: list[list[str]]) -> tuple[dict, dict]:
    """Untraced closed loop over `commands`: end-to-end metrics and their sample details.

    The list runs PASSES times, forward then backward, and every run is one
    sample.  Samples are pooled rather than reduced to each command's best run:
    the speed of a shared machine drifts, with short fast spells, and a best-of
    depends on whether the run happened to catch one, while medians over the
    whole run do not.  Set-up probes are spread over the run for the same
    reason.  The loop time is the sum of the samples' walls: with one client
    and the checks outside the timed region the loop does nothing else.
    """
    runner.command(SETUP_ARGV)  # untimed: fills the bytecode cache, as an installed package has it
    forward = list(range(len(commands)))
    order = [i for p in range(PASSES) for i in (forward if p % 2 == 0 else forward[::-1])]
    probe_at = {len(order) * k // SETUP_REPS for k in range(SETUP_REPS)}
    setup, walls, payload, peak_kb = [], [], 0, 0
    for position, i in enumerate(order):
        if position in probe_at and (probe := runner.command(SETUP_ARGV)):
            setup.append(probe.wall)
        if result := runner.command(commands[i]):
            walls.append(result.wall)
            payload += len(result.stdout)
            peak_kb = max(peak_kb, result.peak_kb)
    if not setup or not walls:
        return {}, {}
    loop_s = sum(walls)
    percentile, tail_s = tail(walls)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cmd_p50_s": (statistics.median(walls), "s"),
        "cmd_tail_s": (tail_s, "s"),
        "cmds_per_s": (len(walls) / loop_s, "1/s"),
        "payload_mb_per_s": (payload / loop_s / 1e6, "MB/s"),
        "error_rate": (len(runner.failures) / runner.attempted, "ratio"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    details = {"setup_samples": len(setup), "commands": len(commands), "passes": PASSES, "samples": len(walls),
               "cmd_tail_percentile": percentile, "loop_s": loop_s, "payload_bytes": payload}
    return metrics, details


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its direct child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def measure_traced(runner: Runner, commands: list[list[str]]) -> tuple[dict, dict]:
    """Per-layer metrics from traced runs of `commands`, plus set-up probes and tracing overhead."""
    runner.command(SETUP_ARGV)  # untimed warm-up, as in measure()
    interpreter, imports, parser, verify = [], [], [], []
    for _ in range(SETUP_REPS):
        wall, done = runner.spawn([sys.executable, "-c", "pass"])
        interpreter.append(wall)
        wall, done = runner.spawn([sys.executable, "-c", PROBE])
        if done is None or done.returncode != 0:
            runner.fail(["import probe"], "failed")
        else:
            import_s, parser_s = map(float, done.stdout.split())
            imports.append(import_s)
            parser.append(parser_s)
        result = runner.command(SETUP_ARGV, traced=True)
        if result:
            spans = result.report["spans"]
            verify.append(sum(s for span, s in zip(spans, self_times(spans)) if span[0] == "identities.verify"))
    totals = {"self": Counter(), "total": Counter(), "calls": Counter()}
    counters = Counter()
    errors = Counter(dict.fromkeys(LAYERS, 0))
    plain_s = traced_s = 0.0
    out_bytes = 0
    per_command = []
    for i, argv in enumerate(commands):
        runs = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            runs[traced] = runner.command(argv, traced=traced)
        if not (runs[False] and runs[True]):
            continue
        if runs[False].stdout != runs[True].stdout:
            runner.fail(argv, "traced stdout differs from untraced stdout")
            continue
        plain_s += runs[False].wall
        traced_s += runs[True].wall
        out_bytes += len(runs[True].stdout)
        spans = runs[True].report["spans"]
        command_self = Counter()
        for (name, start, end, _, raised), own in zip(spans, self_times(spans)):
            command_self[name] += own
            totals["self"][name] += own
            totals["total"][name] += end - start
            totals["calls"][name] += 1
            errors[name.partition(".")[0]] += raised
        counters.update(runs[True].report["counters"])
        per_command.append({"id": i, "argv": " ".join(argv)[:80], "untraced_s": runs[False].wall,
                            "traced_s": runs[True].wall, "self_s": command_self})
    if not (imports and verify and plain_s):
        return {}, {}
    metrics = {
        "setup.interpreter_s": (statistics.median(interpreter), "s"),
        "setup.import_s": (statistics.median(imports), "s"),
        "setup.cli_parser_s": (statistics.median(parser), "s"),
        "identities.verify.s": (statistics.median(verify), "s"),
    }
    for metric, (span, kind) in SPAN_METRICS.items():
        metrics[metric] = (totals[kind][span], "count" if kind == "calls" else "s")
    metrics["pairs.generate.pairs"] = (counters["pairs.generate.pairs"], "count")
    metrics["approx.isqrt.calls"] = (counters["approx.isqrt.calls"], "count")
    metrics["approx.isqrt.bits"] = (counters["approx.isqrt.bits"], "bit")
    digit_calls = totals["calls"]["approx.correct_digits"]
    per_call = counters["approx.isqrt.calls"] / digit_calls if digit_calls else 0
    metrics["approx.isqrt_per_digit_call"] = (per_call, "ratio")
    metrics["cli.out_bytes"] = (out_bytes, "B")
    for layer, count in errors.items():
        metrics[f"{layer}.errors"] = (count, "count")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.overhead_ratio"] = ((traced_s - plain_s) / plain_s, "ratio")
    return metrics, {"untraced_s": plain_s, "traced_s": traced_s, "commands": per_command}


def environment(commands: list[list[str]]) -> dict:
    env = {
        "python": platform.python_version(),
        "int_str_quadratic": sys.version_info < (3, 12),  # 3.12 added subquadratic int->str (_pylong)
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
    }
    env["differs_from_reference"] = sorted(k for k, v in workloads.REFERENCE_ENV.items() if env[k] != v)
    env["largest_input"] = workloads.largest_input(commands)
    return env


def run_workload(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    # Every command runs twice: in PASSES untraced passes, or once untraced and once traced.
    commands = workloads.commands(workload, seed, seconds / PASSES)
    runner = Runner(root, checks.Sqrt2Digits(checks.max_cap(commands)), time.perf_counter() + DEADLINE_S)
    metrics, details = (measure_traced if trace else measure)(runner, commands)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "held_out_seed": workloads.HELD_OUT_SEED,
        "env": environment(commands),
        "correct": bool(metrics) and not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "details": details,
        "failures": runner.failures[:20],
    }


def report_lines(result: dict) -> list[str]:
    details = {k: v for k, v in result["details"].items() if k != "commands"}
    lines = [f"# {result['workload']} seed={result['seed']} trace={result['trace']}: "
             f"{result['attempted']} attempted, {result['failed']} failed; details {json.dumps(details)}",
             f"# env {json.dumps(result['env'])}"]
    if result["env"]["differs_from_reference"]:
        lines.append(f"# WARNING: {', '.join(result['env']['differs_from_reference'])} differ from the reference "
                     f"environment {json.dumps(workloads.REFERENCE_ENV)}; do not compare with its numbers")
    lines += [f"{result['workload']:<12} {name:<30} {m['value']:>14.6g} {m['unit']}"
              for name, m in result["metrics"].items()]
    lines += [f"# FAILED {reason}" for reason in result["failures"]]
    return lines


def summary(result: dict) -> dict:
    """The last stdout line.  error_rate is carried by attempted/failed: it is 0 at a correct commit."""
    metrics = {name: m for name, m in result["metrics"].items() if name != "error_rate"}
    return {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, as when it is run alone."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in sorted(workloads.MIXES):
        done = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        *lines, last = done.stdout.splitlines() or [""]
        print("\n".join(lines))
        try:
            part = json.loads(last)
        except json.JSONDecodeError:
            part = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        merged["correct"] = merged["correct"] and part["correct"]
        merged["attempted"] += part["attempted"]
        merged["failed"] += part["failed"]
        merged["metrics"].update({f"{name}.{metric}": m for metric, m in part["metrics"].items()})
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.MIXES) + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "sidediameter" / "__init__.py").is_file():
        print(f"error: no sidediameter package under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    sys.set_int_max_str_digits(0)  # generated pairs reach 10**4 digits
    result = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    (root / RESULTS_DIR).mkdir(exist_ok=True)
    path = root / RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print("\n".join(report_lines(result)))
    print(json.dumps(summary(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

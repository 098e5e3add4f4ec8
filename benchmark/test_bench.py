"""Tests of the benchmark itself: the checker catches corrupted payloads, the
runner counts them as failures, and every workload runs end to end at a tiny size.

Run from the repository root:  python -m pytest -q benchmark
"""

import io
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.set_int_max_str_digits(0)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from sidediameter import approx, cli  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def program_output(argv: list[str]) -> str:
    out = io.StringIO()
    assert cli.run(argv, stdout=out, stderr=io.StringIO()) == 0
    return out.getvalue()


def change_digit(text: str, start: int) -> str:
    """`text` with the first digit at or after `start` replaced by another digit."""
    i = next(i for i in range(start, len(text)) if text[i].isdigit())
    return text[:i] + ("1" if text[i] == "0" else "0") + text[i + 1:]


def change_gen_digits_cell(text: str) -> str:
    header, first, second, *rest = text.split("\n")
    cells = second.split(",")
    cells[-1] = str(int(cells[-1]) + 1)
    return "\n".join([header, first, ",".join(cells), *rest])


def change_json_field(field: str):
    def corrupt(text: str) -> str:
        i = text.index(f'"{field}": "') + len(field) + 5
        return change_digit(text, i)
    return corrupt


CORRUPTIONS = {
    "nth digit in the middle": (["nth", "30000"], lambda text: change_digit(text, len(text) // 2)),
    "gen correct_digits cell": (["gen", "--count", "40", "--format", "csv", "--digits", "30"], change_gen_digits_cell),
    "gen json diameter": (["gen", "--count", "40", "--format", "json", "--digits", "0"], change_json_field("d")),
    "trace value": (["trace", "--n", "2000"], change_json_field("rhs_value")),
    "compare denominator": (["compare", "--steps", "9", "--start", "3/2", "--cap", "50", "--format", "json"],
                            change_json_field("value_den")),
    "approx digits": (["approx", "digits", "99/70", "--cap", "50"], lambda text: "5\n"),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_checker_rejects_a_corrupted_payload(case):
    argv, corrupt = CORRUPTIONS[case]
    digits = checks.Sqrt2Digits(checks.max_cap([argv]))
    good = program_output(argv)
    checks.check(argv, good, digits)
    bad = corrupt(good)
    assert bad != good
    with pytest.raises(checks.CheckError):
        checks.check(argv, bad, digits)


class InProcessRunner(run.Runner):
    """Runs commands through `cli.run` in this process, corrupting one command's stdout."""

    def __init__(self, corrupt_argv, corrupt):
        super().__init__(ROOT, checks.Sqrt2Digits(1600), deadline=float("inf"))
        self.corrupt_argv, self.corrupt = corrupt_argv, corrupt

    def spawn(self, argv):
        command = argv[2:]
        out = program_output(command)
        if command == self.corrupt_argv:
            out = self.corrupt(out)
        return 0.01, subprocess.CompletedProcess(argv, 0, out.encode(), f"{run.RSS_MARKER}1024\n".encode())


@pytest.mark.parametrize("case", ["nth digit in the middle", "gen correct_digits cell"])
def test_corrupted_payload_counts_toward_error_rate(case):
    argv, corrupt = CORRUPTIONS[case]
    runner = InProcessRunner(argv, corrupt)
    commands = [["nth", "500"], argv, ["approx", "step", "7/5", "--method", "sd"]]
    metrics, _ = run.measure(runner, commands)
    assert len(runner.failures) == run.PASSES
    assert metrics["error_rate"][0] == run.PASSES / runner.attempted
    assert all(f.startswith(" ".join(argv)[:40]) and "wrong output" in f for f in runner.failures)


def test_peak_rss_is_the_commands_not_the_benchmarks(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    ballast = b"\x01" * (64 << 20)  # resident in this process, which spawns the commands
    runner = run.Runner(ROOT, checks.Sqrt2Digits(1), deadline=float("inf"))
    metrics, _ = run.measure(runner, [["nth", "10"]])
    assert not runner.failures and len(ballast)
    assert 0 < metrics["peak_rss_mb"][0] < 48


def exact_within(t: Fraction, k: int) -> bool:
    """|t - sqrt(2)| < 10**-k by squaring, the slow reference for Sqrt2Digits."""
    low, high = t - Fraction(1, 10**k), t + Fraction(1, 10**k)
    return (low <= 0 or low * low < 2) and high * high > 2


def test_sqrt2_digits_agree_with_squaring_and_the_package():
    rng = random.Random(5)
    values = [Fraction(d, a) for a, d in map(checks.sqrt2_power, range(1, 120))]
    values += [Fraction(rng.randint(1, 10**30), rng.randint(1, 10**30)) for _ in range(100)]
    values += [Fraction(141421356, 10**8) + Fraction(1, 10**9), Fraction(7, 5), Fraction(3, 2)]
    digits = checks.Sqrt2Digits(60)
    for t in values:
        for cap in (1, 7, 60):
            k = approx.correct_digits(t, cap)
            assert k == max([j for j in range(1, cap + 1) if exact_within(t, j)] + [0])
            digits.check(t.numerator, t.denominator, cap, str(k))
            for wrong in {k - 1, k + 1} & set(range(cap + 1)):
                with pytest.raises(checks.CheckError):
                    digits.check(t.numerator, t.denominator, cap, str(wrong))


def test_sqrt2_digits_decides_a_straddled_bound_by_squaring():
    digits = checks.Sqrt2Digits(2)
    k = 3
    t = Fraction(2 * digits.root + 2 * 10 ** (digits.m - k) + 1, 2 * 10**digits.m)
    p, q = t.numerator, t.denominator
    top = p * 10**digits.m - q * digits.root
    assert top - q < q * 10 ** (digits.m - k) < top  # the isqrt bracket alone cannot decide
    assert digits._within(p, q, k, top) == exact_within(t, k)


def test_sqrt2_power_matches_the_package_and_its_residue():
    for n in (1, 2, 3, 10, 257):
        pair = cli.pairs.nth(n)
        assert checks.sqrt2_power(n) == (pair.a, pair.d)
        assert checks.sqrt2_power(n, checks.PRIME) == (pair.a % checks.PRIME, pair.d % checks.PRIME)
        assert checks.residue(str(pair.d)) == pair.d % checks.PRIME


def test_commands_depend_only_on_workload_and_seed():
    for name in workloads.MIXES:
        assert workloads.commands(name, 3, 20) == workloads.commands(name, 3, 20)
        assert workloads.commands(name, 3, 20) != workloads.commands(name, 4, 20)
        assert len(workloads.commands(name, 3, 20)) >= workloads.MIN_COMMANDS


def test_benchmark_json_records_the_workloads():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == workloads.WHY
    assert BENCHMARK["paths"] == ["benchmark"]


@pytest.fixture
def tiny(monkeypatch):
    for name, value in {
        "MIN_COMMANDS": 1, "NTH_RANGE": (20, 3000), "TRACE_N_RANGE": (10, 300), "TRACE_PAIR_RANGE": (10, 200),
        "GEN_COUNT_RANGE": (5, 60), "COMPARE_DEN_DIGITS": 300, "CONVERGENT_RANGE": (1, 60),
        "APPROX_CAP_RANGE": (1, 80),
    }.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(run, "SETUP_REPS", 2)


@pytest.mark.parametrize("workload", sorted(workloads.MIXES))
def test_workload_runs_end_to_end_at_a_tiny_size(tiny, workload):
    plain = run.run_workload(ROOT, workload, seed=2, seconds=1, trace=False)
    assert plain["correct"] and plain["failed"] == 0, plain["failures"]
    assert set(run.summary(plain)["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert plain["metrics"]["error_rate"]["value"] == 0
    traced = run.run_workload(ROOT, workload, seed=2, seconds=1, trace=True)
    assert traced["correct"] and traced["failed"] == 0, traced["failures"]
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    again = run.run_workload(ROOT, workload, seed=2, seconds=1, trace=True)
    for name, metric in traced["metrics"].items():
        if metric["unit"] in ("count", "bit", "B"):
            assert again["metrics"][name] == metric, name


def test_exits_nonzero_without_the_package(tmp_path):
    done = subprocess.run([sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload", "table"],
                          cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""

"""Seeded argument lists for the benchmark workloads.

The benchmark takes the seed; the program only ever sees the generated
argument lists.  Each workload is a mix of command kinds.  A run holds a
whole number of units of that mix, at least MIN_COMMANDS commands so that
the 75th percentile has ten samples beyond it, and about `seconds` of work
on the reference machine (REFERENCE_ENV).  Sizes are stratified over the
whole run: a kind drawn K times takes one value from each of K equal slices
of its range, near a point that differs between kinds, so runs with
different seeds measure the same, evenly spread sizes.

Claims made with this benchmark must also hold on HELD_OUT_SEED, a seed not
used while tuning a change.
"""

import math
import random
from fractions import Fraction
from functools import partial

import checks

HELD_OUT_SEED = 7919
MIN_COMMANDS = 40
# Share of a sub-slot over which the seed moves each size: small, so that the
# median and tail command stay the same size from seed to seed.
JITTER = 0.2
REFERENCE_ENV = {"python": "3.11.7", "int_str_quadratic": True, "gmpy2": False, "nproc": 2}
LOG10_SILVER = math.log10(1 + math.sqrt(2))

# Why each workload exists; BENCHMARK.json carries the same sentences.
WHY = {
    "huge-pair": "nth/trace on pairs of 10^4-2*10^5 digits: time is CPython 3.11's quadratic int->decimal "
                 "conversion, then the pairs doubling core, validation and .sign; approx is idle",
    "table": "gen of 200-1500 rows: ~90% is approx.correct_digits' linear isqrt scan (~48 calls/row) over "
             "many small pairs; integers stay under 600 digits, so decimal conversion barely shows",
    "convergence": "compare from small starts plus short approx commands: few huge Fractions, so step gcds, "
                   "side_of_sqrt2 squaring and huge isqrt calls dominate, and setup_s is much of cmd_p50_s",
}

# Input-size ranges, inclusive.
NTH_RANGE = (20_000, 500_000)
TRACE_N_RANGE = (10_000, 100_000)
TRACE_PAIR_RANGE = (10_000, 60_000)
GEN_COUNT_RANGE = (200, 1500)
GEN_PLACES = (0, 30, 100)
FORMATS = ("csv", "json")
COMPARE_STARTS = ("1", "3/2", "7/5", "19/13")
COMPARE_CAPS = (50, 200)
# Each start runs the most steps whose last Babylonian denominator stays under this many digits.
COMPARE_DEN_DIGITS = 13_000
CONVERGENT_RANGE = (1, 2000)
APPROX_CAP_RANGE = (1, 1500)
# Seconds one unit of each mix takes on the reference machine.
UNIT_SECONDS = {"huge-pair": 2.3, "table": 2.7, "convergence": 9.1}


def _log_uniform(bounds: tuple[int, int], u: float) -> int:
    low, high = bounds
    return round(low * (high / low) ** u)


def _uniform(bounds: tuple[int, int], u: float) -> int:
    low, high = bounds
    return round(low + (high - low) * u)


def _convergent(index: int) -> str:
    a, d = checks.sqrt2_power(index)
    return f"{d}/{a}"


def babylonian_run(start: str) -> tuple[int, int]:
    """(steps, approximate digits of the last Babylonian denominator) for a compare from `start`."""
    value = Fraction(start)
    p, q = value.numerator, value.denominator
    steps, digits = 0, 1
    while True:
        p, q = checks.babylonian(p, q)
        next_digits = math.ceil(q.bit_length() * math.log10(2))
        if next_digits >= COMPARE_DEN_DIGITS:
            return steps, digits
        steps, digits = steps + 1, next_digits


def _nth(rng, u):
    return ["nth", str(_log_uniform(NTH_RANGE, u))]


def _trace_n(rng, u):
    return ["trace", "--n", str(_log_uniform(TRACE_N_RANGE, u))]


def _trace_pair(rng, u):
    a, d = checks.sqrt2_power(_log_uniform(TRACE_PAIR_RANGE, u))
    return ["trace", str(a), str(d)]


def _gen(fmt, places, rng, u):
    return ["gen", "--count", str(_uniform(GEN_COUNT_RANGE, u)), "--format", fmt, "--digits", str(places)]


def _compare(start, cap, rng, u):
    steps, _ = babylonian_run(start)
    return ["compare", "--steps", str(steps), "--start", start, "--cap", str(cap),
            "--format", FORMATS[int(u * len(FORMATS))]]


def _approx_step(rng, u):
    method = ("babylonian", "sd")[int(u * 2)]
    return ["approx", "step", _convergent(rng.randint(*CONVERGENT_RANGE)), "--method", method]


def _approx_preimage(rng, u):
    return ["approx", "preimage", _convergent(_uniform(CONVERGENT_RANGE, u))]


def _approx_digits(rng, u):
    # Index and cap rise together, so the cost of the isqrt scan is stratified too.
    return ["approx", "digits", _convergent(_uniform(CONVERGENT_RANGE, u)),
            "--cap", str(_uniform(APPROX_CAP_RANGE, u))]


# (commands per unit, generator of one argument list from a stratified u in [0, 1)).
# In convergence, step and preimage commands, of near-equal cost, are over half
# of the mix, so the median command lies inside their cluster and not at its
# edge, where the costlier digits scans begin.
MIXES = {
    "huge-pair": [(4, _nth), (1, _trace_n), (1, _trace_pair)],
    "table": [(1, partial(_gen, fmt, places)) for fmt in FORMATS for places in GEN_PLACES],
    "convergence": [(1, partial(_compare, start, cap)) for start in COMPARE_STARTS for cap in COMPARE_CAPS]
                   + [(7, _approx_step), (7, _approx_preimage), (2, _approx_digits)],
}


def commands(workload: str, seed: int, seconds: float) -> list[list[str]]:
    """The run's argument lists: the same for the same (workload, seed, seconds)."""
    rng = random.Random(f"{workload}:{seed}")
    mix = MIXES[workload]
    per_unit = sum(count for count, _ in mix)
    units = max(math.ceil(MIN_COMMANDS / per_unit), round(seconds / UNIT_SECONDS[workload]))
    out = []
    for j, (count, make) in enumerate(mix):
        draws = count * units
        # Kind j takes the j-th of len(mix) sub-slots of each stratum, so the kinds' sizes interleave.
        out += [make(rng, (i + (j + 0.5 + JITTER * (rng.random() - 0.5)) / len(mix)) / draws) for i in range(draws)]
    rng.shuffle(out)
    return out


def largest_input(commands: list[list[str]]) -> dict:
    """The largest pair (decimal digits), table (rows) and Babylonian denominator (digits) in a run."""
    pair_digits = rows = den_digits = 0
    for argv in commands:
        positional, named = checks.options(argv)
        if argv[0] == "nth" or "--n" in named:
            n = int(named.get("--n") or positional[1])
            pair_digits = max(pair_digits, math.ceil(n * LOG10_SILVER))
        elif argv[0] == "trace":
            pair_digits = max(pair_digits, len(positional[2]))
        elif argv[0] == "gen":
            rows = max(rows, int(named["--count"]))
        elif argv[0] == "compare":
            rows = max(rows, 2 * int(named["--steps"]))
            den_digits = max(den_digits, babylonian_run(named["--start"])[1])
    return {"pair_digits": pair_digits, "rows": rows, "babylonian_den_digits": den_digits}

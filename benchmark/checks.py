"""Independent checks of `sidediameter` command output.

Nothing here imports the package under test.  Pairs come from powers of
1 + sqrt(2) in Z[sqrt(2)]; long decimal fields are compared modulo a large
prime by Horner's rule over their digit strings, which is linear and so does
not repeat the quadratic int <-> str conversion the benchmark measures; digit
counts are decided against floor(sqrt(2) * 10**M) from one `math.isqrt` at the
run's largest cap, followed by integer comparisons.
"""

import json
import math
import re
from fractions import Fraction

PRIME = 2**61 - 1
CHUNK = 18
GUARD_DIGITS = 10
# Constants of the CLI contract: `gen` counts digits up to the default cap and
# `compare` prints the default number of decimal places.
DEFAULT_CAP = 50
DEFAULT_PLACES = 30
CATALOG = ("euclid_II_10", "euclid_II_9", "elegant_core", "encouraging", "descent_core")
GEN_COLUMNS = ("n", "a", "d", "e", "ratio_decimal", "correct_digits")
REPORT_COLUMNS = ("step", "value_num", "value_den", "decimal_value", "correct_digits", "side")
_DECIMAL = re.compile(r"0|[1-9][0-9]*")
_NTH_LINE = re.compile(r"n=([0-9]+) a=([0-9]+) d=([0-9]+) e=(-1|1)\n")


class CheckError(Exception):
    """An output that disagrees with the independent computation."""


def sqrt2_power(n: int, modulus: int | None = None) -> tuple[int, int]:
    """(a, d) with (1 + sqrt(2))**n = d + a*sqrt(2), optionally reduced modulo `modulus`."""
    a, d = 0, 1
    base_a, base_d = 1, 1
    while n:
        if n & 1:
            a, d = a * base_d + d * base_a, d * base_d + 2 * a * base_a
        base_a, base_d = 2 * base_a * base_d, base_d * base_d + 2 * base_a * base_a
        if modulus:
            a, d, base_a, base_d = a % modulus, d % modulus, base_a % modulus, base_d % modulus
        n >>= 1
    return a, d


def babylonian(p: int, q: int) -> tuple[int, int]:
    """(t + 2/t) / 2 for t = p/q in lowest terms, again in lowest terms, without a gcd.

    For odd p, (p**2 + 2q**2) / (2pq) is already reduced; for even p the
    factor 2 cancels once, giving (p**2/2 + q**2) / (pq).
    """
    if p % 2:
        return p * p + 2 * q * q, 2 * p * q
    return p * p // 2 + q * q, p * q


def side_diameter(p: int, q: int) -> tuple[int, int]:
    """(2 + t) / (1 + t) for t = p/q; gcd(p + 2q, p + q) = gcd(p, q) = 1."""
    return p + 2 * q, p + q


def residue(field: str) -> int:
    """The canonical decimal string `field` modulo PRIME."""
    if not _DECIMAL.fullmatch(field):
        raise CheckError(f"not a canonical decimal: {field[:40]!r}")
    first = len(field) % CHUNK or CHUNK
    value = int(field[:first])
    scale = 10**CHUNK
    for i in range(first, len(field), CHUNK):
        value = (value * scale + int(field[i:i + CHUNK])) % PRIME
    return value % PRIME


def _expect(field: str, value: int, what: str):
    if residue(field) != value % PRIME:
        raise CheckError(f"{what} differs from the independent value")


def _expect_equal(got, want, what: str):
    if got != want:
        raise CheckError(f"{what}: got {str(got)[:60]!r}, want {str(want)[:60]!r}")


class Sqrt2Digits:
    """floor(sqrt(2) * 10**M) from one isqrt; decides digit counts up to `max_cap`."""

    def __init__(self, max_cap: int):
        self.m = max_cap + 1 + GUARD_DIGITS
        self.root = math.isqrt(2 * 10 ** (2 * self.m))

    def check(self, p: int, q: int, cap: int, field: str):
        """`field` must be the largest k <= cap with |p/q - sqrt(2)| < 10**-k (0 if none)."""
        if cap + 1 + GUARD_DIGITS > self.m:
            raise CheckError(f"cap {cap} is above the {self.m - 1 - GUARD_DIGITS} digits of sqrt(2) prepared")
        claimed = int(field) if _DECIMAL.fullmatch(field) else -1
        if not 0 <= claimed <= cap:
            raise CheckError(f"correct_digits {field[:20]!r} outside 0..{cap}")
        # X = (p/q - sqrt(2)) * q * 10**M lies in the open interval (top - q, top).
        top = p * 10**self.m - q * self.root
        if claimed and not self._within(p, q, claimed, top):
            raise CheckError(f"correct_digits {claimed} too high")
        if claimed < cap and self._within(p, q, claimed + 1, top):
            raise CheckError(f"correct_digits {claimed} too low")

    def _within(self, p: int, q: int, k: int, top: int) -> bool:
        """|p/q - sqrt(2)| < 10**-k, i.e. |X| < q * 10**(M - k)."""
        bound = q * 10 ** (self.m - k)
        if -bound <= top - q and top <= bound:
            return True
        if top - q >= bound or top <= -bound:
            return False
        # X straddles the bound (t within 10**-M of sqrt(2) -+ 10**-k): decide by squaring.
        scaled_p, scaled_q = p * 10**k, q * 10**k
        low, high = scaled_p - q, scaled_p + q
        return (low <= 0 or low * low < 2 * scaled_q * scaled_q) and high * high > 2 * scaled_q * scaled_q


def _check_decimal(field: str, p: int, q: int, places: int):
    """`field` must be p/q truncated to `places` decimal places."""
    whole, dot, frac = field.partition(".")
    if places == 0:
        ok = not dot
    else:
        ok = dot == "." and len(frac) == places and frac.isdigit()
    if not ok or not _DECIMAL.fullmatch(whole):
        raise CheckError(f"malformed decimal {field[:60]!r}")
    scaled = int(whole + frac)
    if not scaled * q <= p * 10**places < (scaled + 1) * q:
        raise CheckError(f"decimal {field[:60]!r} is not p/q truncated to {places} places")


def _check_value(row: dict, p: int, q: int, places: int, cap: int, digits: Sqrt2Digits):
    _expect(row["value_num"], p, "numerator")
    _expect(row["value_den"], q, "denominator")
    _check_decimal(row["decimal_value"], p, q, places)
    digits.check(p, q, cap, row["correct_digits"])
    _expect_equal(row["side"], "under" if p * p < 2 * q * q else "over", "side")


def _csv_rows(out: str, columns: tuple[str, ...]) -> list[dict]:
    lines = out.split("\n")
    if lines[0] != ",".join(columns) or lines[-1] != "":
        raise CheckError("bad CSV header or missing final newline")
    rows = [line.split(",") for line in lines[1:-1]]
    if any(len(row) != len(columns) for row in rows):
        raise CheckError("CSV row with the wrong number of fields")
    return [dict(zip(columns, row)) for row in rows]


def _json_rows(rows: list, columns: tuple[str, ...]) -> list[dict]:
    if not isinstance(rows, list) or any(
        not isinstance(row, dict) or tuple(row) != columns or not all(isinstance(v, str) for v in row.values())
        for row in rows
    ):
        raise CheckError(f"JSON rows must be objects of strings with keys {columns}")
    return rows


def _check_gen(out: str, count: int, fmt: str, places: int, digits: Sqrt2Digits):
    rows = _csv_rows(out, GEN_COLUMNS) if fmt == "csv" else _json_rows(json.loads(out), GEN_COLUMNS)
    _expect_equal(len(rows), count, "row count")
    a, d = 1, 1
    for n, row in enumerate(rows, 1):
        _expect_equal(row["n"], str(n), "index")
        _expect(row["a"], a, f"side of row {n}")
        _expect(row["d"], d, f"diameter of row {n}")
        sign = -1 if n % 2 else 1
        _expect_equal(row["e"], str(sign), f"sign of row {n}")
        if (residue(row["d"]) ** 2 - 2 * residue(row["a"]) ** 2 - sign) % PRIME:
            raise CheckError(f"row {n} breaks d^2 - 2a^2 = e")
        _check_decimal(row["ratio_decimal"], d, a, places)
        digits.check(d, a, DEFAULT_CAP, row["correct_digits"])
        a, d = a + d, 2 * a + d


def _check_compare(out: str, start: Fraction, steps: int, cap: int, fmt: str, digits: Sqrt2Digits):
    methods = (("babylonian", babylonian), ("side_diameter", side_diameter))
    if fmt == "csv":
        rows = _csv_rows(out, ("method",) + REPORT_COLUMNS)
    else:
        doc = json.loads(out)
        _expect_equal((doc["start"], doc["steps"]), (str(start), str(steps)), "compare header")
        rows = []
        for method, _ in methods:
            report = doc[method]
            _expect_equal((report["method"], report["start"]), (method, str(start)), "report header")
            rows += [dict(row, method=method) for row in _json_rows(report["rows"], REPORT_COLUMNS)]
    _expect_equal(len(rows), 2 * steps, "row count")
    rows = iter(rows)
    for method, advance in methods:
        p, q = start.numerator, start.denominator
        for step in range(1, steps + 1):
            p, q = advance(p, q)
            row = next(rows)
            _expect_equal((row["method"], row["step"]), (method, str(step)), "row label")
            _check_value(row, p, q, DEFAULT_PLACES, cap, digits)


def _check_trace(out: str, a: int, d: int, sign: int):
    """The derivation trace JSON for the pair with residues (a, d) and sign."""
    doc = json.loads(out)
    pair = doc["pair"]
    _expect(pair["a"], a, "trace side")
    _expect(pair["d"], d, "trace diameter")
    _expect_equal(pair["e"], str(sign), "trace sign")
    side, diam = pair["a"], pair["d"]
    next_a, next_d = a + d, 2 * a + d
    double = 2 * (a * a + next_a * next_a)
    u = next_d * next_d + sign
    square = f"(2*{side}+{diam})^2"
    twice = f"2*({side}+{diam})^2"
    both = f"2*({side}^2 + ({side}+{diam})^2)"
    plus = f"+ {sign}" if sign > 0 else f"- {-sign}"
    minus = f"- {sign}" if sign > 0 else f"+ {-sign}"
    expected = (
        ("II.10", f"{square} + {diam}^2", both, next_d * next_d + d * d, double),
        ("hypothesis-substitution", f"({square} {plus}) + 2*{side}^2", both, u + 2 * a * a, double),
        ("V.19-subtraction", f"{square} {plus}", twice, u, 2 * next_a * next_a),
        ("conclusion", square, f"{twice} {minus}", next_d * next_d, 2 * next_a * next_a - sign),
    )
    _expect_equal(len(doc["steps"]), len(expected), "trace steps")
    for step, (tag, lhs, rhs, lhs_value, rhs_value) in zip(doc["steps"], expected):
        _expect_equal((step["justification"], step["lhs_expr"], step["rhs_expr"]), (tag, lhs, rhs), "trace step text")
        _expect(step["lhs_value"], lhs_value, f"{tag} lhs")
        _expect(step["rhs_value"], rhs_value, f"{tag} rhs")


def _check_approx(out: str, action: str, value: Fraction, named: dict, digits: Sqrt2Digits):
    p, q = value.numerator, value.denominator
    if action == "step":
        advance = babylonian if named["--method"] == "babylonian" else side_diameter
        num, den = advance(p, q)
        _expect_equal(out, f"{num}/{den}\n" if den != 1 else f"{num}\n", "step")
    elif action == "preimage":
        # x**2 - 2*value*x + 2 = 0 has rational roots iff value**2 - 2 is a rational square.
        disc = value * value - 2
        roots = []
        if disc > 0:
            num, den = math.isqrt(disc.numerator), math.isqrt(disc.denominator)
            if num * num == disc.numerator and den * den == disc.denominator:
                roots = [r for r in (value - Fraction(num, den), value + Fraction(num, den)) if r > 0]
        listed = ", ".join(str(r) for r in roots) if roots else "none"
        _expect_equal(out, f"preimages: {listed}\n", "preimage")
    else:
        if not out.endswith("\n"):
            raise CheckError("digits output must end with a newline")
        digits.check(p, q, int(named["--cap"]), out[:-1])


def options(argv: list[str]) -> tuple[list[str], dict[str, str]]:
    """Positionals and `--name value` options of a generated argument list ("" for a flag)."""
    positional, named = [], {}
    tokens = list(argv)
    while tokens:
        token = tokens.pop(0)
        if not token.startswith("--"):
            positional.append(token)
        elif tokens and not tokens[0].startswith("--"):
            named[token] = tokens.pop(0)
        else:
            named[token] = ""
    return positional, named


def max_cap(commands: list[list[str]]) -> int:
    return max(int(options(argv)[1].get("--cap", DEFAULT_CAP)) for argv in commands)


def check(argv: list[str], out: str, digits: Sqrt2Digits):
    """Raise CheckError unless `out` is the correct stdout of `sidediameter argv`."""
    (verb, *args), named = options(argv)
    if verb == "verify":
        _expect_equal(out, "".join(f"{name}: OK\n" for name in CATALOG), "verify")
    elif verb == "nth":
        n = int(args[0])
        match = _NTH_LINE.fullmatch(out)
        if not match:
            raise CheckError(f"malformed nth line {out[:60]!r}")
        a, d = sqrt2_power(n, PRIME)
        _expect_equal(match[1], str(n), "nth index")
        _expect(match[2], a, "nth side")
        _expect(match[3], d, "nth diameter")
        _expect_equal(match[4], "-1" if n % 2 else "1", "nth sign")
    elif verb == "trace" and "--n" in named:
        n = int(named["--n"])
        _check_trace(out, *sqrt2_power(n, PRIME), -1 if n % 2 else 1)
    elif verb == "trace":
        a, d = residue(args[0]), residue(args[1])
        pell = (d * d - 2 * a * a) % PRIME
        if pell not in (1, PRIME - 1):
            raise CheckError("trace input is not a side/diameter pair")
        _check_trace(out, a, d, 1 if pell == 1 else -1)
    elif verb == "gen":
        _check_gen(out, int(named["--count"]), named["--format"], int(named["--digits"]), digits)
    elif verb == "compare":
        _check_compare(out, Fraction(named["--start"]), int(named["--steps"]),
                       int(named["--cap"]), named["--format"], digits)
    elif verb == "approx":
        _check_approx(out, args[0], Fraction(args[1]), named, digits)
    else:
        raise CheckError(f"no check for verb {verb!r}")

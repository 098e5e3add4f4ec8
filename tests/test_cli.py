import hashlib
import io
import json
import sys

import pytest

from sidediameter import generate, to_decimal, trace_elegant
from sidediameter.cli import run
from sidediameter.pairs import SideDiameterPair, nth


# 4,594 digits each: above the default int-to-str limit of 4,300 digits.
BIG_PAIR = nth(12000)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def test_gen_csv_first_four():
    code, out, err = invoke(["gen", "--count", "4", "--format", "csv"])
    assert code == 0
    assert err == ""
    assert out.splitlines() == [
        "n,a,d,e,ratio_decimal,correct_digits",
        "1,1,1,-1,1.000000000000000000000000000000,0",
        "2,2,3,1,1.500000000000000000000000000000,1",
        "3,5,7,-1,1.400000000000000000000000000000,1",
        "4,12,17,1,1.416666666666666666666666666666,2",
    ]


def test_gen_csv_rows_carry_the_pairs_and_signs():
    code, out, _ = invoke(["gen", "--count", "4"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(int(r[1]), int(r[2]), int(r[3])) for r in rows] == [
        (1, 1, -1), (2, 3, 1), (5, 7, -1), (12, 17, 1),
    ]


def test_gen_json_round_trips_to_library_values():
    code, out, _ = invoke(["gen", "--count", "100", "--format", "json"])
    assert code == 0
    parsed = json.loads(out)
    assert len(parsed) == 100
    rebuilt = [
        SideDiameterPair(int(row["a"]), int(row["d"]), index=int(row["n"]))
        for row in parsed
    ]
    assert rebuilt == generate(100)
    for row, pair in zip(parsed, rebuilt):
        assert int(row["e"]) == pair.sign
    _, csv_out, _ = invoke(["gen", "--count", "100", "--format", "csv"])
    header, *lines = csv_out.splitlines()
    assert len(lines) == 100
    for line, row in zip(lines, parsed):
        assert list(row) == header.split(",")
        assert list(row.values()) == line.split(",")


def test_gen_digits_flag_controls_decimal_precision():
    code, out, _ = invoke(["gen", "--count", "2", "--digits", "4"])
    assert code == 0
    assert out.splitlines()[2].startswith("2,2,3,1,1.5000,")


def test_verify_single_identity():
    code, out, err = invoke(["verify", "--identity", "euclid_II_10"])
    assert code == 0
    assert out == "euclid_II_10: OK\n"
    assert err == ""


def test_verify_all():
    code, out, _ = invoke(["verify", "--all"])
    assert code == 0
    assert out.splitlines() == [
        "euclid_II_10: OK",
        "euclid_II_9: OK",
        "elegant_core: OK",
        "encouraging: OK",
        "descent_core: OK",
    ]


def test_verify_unknown_identity_is_usage_error():
    code, _, err = invoke(["verify", "--identity", "bogus"])
    assert code == 2
    assert err != ""


def test_approx_preimage_empty_notice():
    code, out, _ = invoke(["approx", "preimage", "7/5"])
    assert code == 0
    assert out == "preimages: none\n"


def test_approx_preimage_two_roots_sorted():
    code, out, _ = invoke(["approx", "preimage", "17/12"])
    assert code == 0
    assert out == "preimages: 4/3, 3/2\n"


def test_approx_step_both_methods():
    code, out, _ = invoke(["approx", "step", "3/2"])
    assert (code, out) == (0, "17/12\n")
    code, out, _ = invoke(["approx", "step", "3/2", "--method", "sd"])
    assert (code, out) == (0, "7/5\n")


def test_approx_digits():
    code, out, _ = invoke(["approx", "digits", "577/408"])
    assert (code, out) == (0, "5\n")


def test_approx_preimage_rejects_sd_method():
    code, _, err = invoke(["approx", "preimage", "17/12", "--method", "sd"])
    assert code == 2
    assert "babylonian" in err


def test_nth_check_oracle():
    code, out, _ = invoke(["nth", "5", "--check-oracle"])
    assert code == 0
    assert out == "n=5 a=29 d=41 e=-1\noracle: match\n"


def test_nth_iterative_flag():
    code, out, _ = invoke(["nth", "6", "--iterative"])
    assert (code, out) == (0, "n=6 a=70 d=99 e=1\n")


def test_trace_json_matches_library():
    code, out, _ = invoke(["trace", "12", "17"])
    assert code == 0
    assert json.loads(out) == trace_elegant(SideDiameterPair(12, 17)).to_json_dict()


def test_trace_by_index_equals_trace_by_pair():
    _, by_index, _ = invoke(["trace", "--n", "4"])
    _, by_pair, _ = invoke(["trace", "12", "17"])
    assert by_index == by_pair


def test_trace_pretty_contains_conclusion():
    code, out, _ = invoke(["trace", "2", "3", "--pretty"])
    assert code == 0
    assert "conclusion" in out
    assert "(2*2+3)^2 = 2*(2+3)^2 - 1" in out


def test_trace_invalid_pair_is_domain_error():
    code, out, err = invoke(["trace", "3", "5"])
    assert code == 1
    assert out == ""
    assert "not a side/diameter pair" in err


def test_trace_of_a_huge_invalid_pair_keeps_stderr_short():
    p = nth(60000)
    code, out, err = invoke(["trace", to_decimal(p.a), to_decimal(p.d + 1)])
    assert code == 1
    assert out == ""
    assert "not a side/diameter pair" in err
    assert len(err.encode()) < 1024


def test_trace_requires_pair_or_index():
    code, _, err = invoke(["trace"])
    assert code == 2
    assert "usage" in err
    code, _, _ = invoke(["trace", "12", "17", "--n", "4"])
    assert code == 2
    code, _, _ = invoke(["trace", "12"])
    assert code == 2


def test_compare_csv_table():
    code, out, _ = invoke(["compare", "--start", "3/2", "--steps", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "method,step,value_num,value_den,decimal_value,correct_digits,side"
    assert lines[1].startswith("babylonian,1,17,12,")
    assert lines[2].startswith("babylonian,2,577,408,")
    assert lines[3].startswith("side_diameter,1,7,5,")
    assert lines[4].startswith("side_diameter,2,17,12,")


def test_compare_json_shape():
    code, out, _ = invoke(["compare", "--start", "3/2", "--steps", "1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"start", "steps", "babylonian", "side_diameter"}
    assert payload["babylonian"]["rows"][0]["value_num"] == "17"
    assert payload["side_diameter"]["rows"][0]["value_num"] == "7"


def test_compare_default_start_is_one():
    code, out, _ = invoke(["compare", "--steps", "1"])
    assert code == 0
    assert out.splitlines()[1].startswith("babylonian,1,3,2,")


def test_bench_payload_is_deterministic_and_timing_goes_to_stderr():
    code1, out1, err1 = invoke(["bench", "--n", "500", "--reps", "2"])
    code2, out2, err2 = invoke(["bench", "--n", "500", "--reps", "2"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert "results_match=true" in out1
    assert "a_digits=" in out1 and "d_digits=" in out1
    assert "fast_seconds=" in err1 and "iterative_seconds=" in err1


def test_bench_timings_flag_moves_timing_to_stdout():
    code, out, err = invoke(["bench", "--n", "100", "--timings"])
    assert code == 0
    assert "fast_seconds=" in out
    assert "fast_seconds=" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--count", "8", "--format", "json"],
        ["gen", "--count", "8", "--format", "csv"],
        ["compare", "--start", "3/2", "--steps", "3"],
        ["trace", "--n", "6"],
        ["verify", "--all"],
    ],
)
def test_determinism_byte_identical_stdout(argv):
    _, first, _ = invoke(argv)
    _, second, _ = invoke(argv)
    assert first == second
    assert first  # nonempty payload


# sha256 and length of the exact stdout bytes: column order, number
# rendering, JSON key order and indent, and the trailing newline.
@pytest.mark.parametrize(
    "argv,size,sha256",
    [
        (["gen", "--count", "40", "--format", "csv", "--digits", "0"], 1153,
         "a1f49b7c60905eba73cd2fc08aca859b1d880930c945936380a7e092c4ce3fd3"),
        (["gen", "--count", "40", "--format", "csv"], 2393,
         "96a1d8da8e4191e404e9bb6855bcaec3f46664afc558f2f5cdd739192a19e5a9"),
        (["gen", "--count", "40", "--format", "json", "--digits", "100"], 9359,
         "2be085b460c8691e580585314e3285619de45718a0dc0be1c5375a6cb7b0398e"),
        (["compare", "--start", "3/2", "--steps", "4"], 582,
         "edb3ecb81b7fd5f4228c6689bacedf53754a977185b75ea39e6d50c78b58ccb3"),
        (["compare", "--start", "7/5", "--steps", "5", "--format", "json", "--cap", "200"], 2425,
         "dac10189c2cfb3165ba297e0b0c5b4e279c3cd7883bc0715804161ac4129a59a"),
        (["compare", "--steps", "0"], 66,
         "fb8fd4e8fae9526b45e7faf1a8b04f2aca98dd03915fb974215cdea7e48022de"),
        (["compare", "--steps", "0", "--format", "json"], 209,
         "db15211bdb2d3d99e87da9575cd7ec68ad5df89f8ca9e60711759cf1673af342"),
        # Integers above the str() threshold: pairs, trace values and a
        # 30,000-place fractional part.
        (["nth", "200000"], 153129,
         "ed1b8a9654713e5474e4956d0023707ddd1212e1708eac6b048b9515dc2395e1"),
        (["trace", "--n", "60000"], 873488,
         "0ee32450eb0d13de4ef753d21953eede8889eeb505fa4cdb3ab9f7a59346f453"),
        (["trace", "--n", "60000", "--pretty"], 873045,
         "977272b1c1657df6aa9bba1cc8b5b470d0653b7c11495ad420342b6beb2900fa"),
        pytest.param(["trace", BIG_PAIR.a, BIG_PAIR.d], 175294,
                     "ac809af9b5e6805b3d447ee144cc8092499430d03799639fa8e82d61471ed9e7",
                     id="trace-A-D-of-nth-12000"),
        pytest.param(["trace", BIG_PAIR.a, BIG_PAIR.d, "--pretty"], 174851,
                     "43c12fe3963f7404cee3c6bb91692302bf5dba44b0a60409f58e95902e3a9e65",
                     id="trace-A-D-of-nth-12000-pretty"),
        (["gen", "--count", "3", "--digits", "30000"], 90078,
         "1f26ae5cafa0568b9d82cc404b957b80b61c2f5989fbeca6beb58412ffdc50be"),
        (["gen", "--count", "3", "--digits", "30000", "--format", "json"], 90359,
         "e846472d31d8e06f0efc3246cfe32a78909626afc8e24120c5beba6882d86bf6"),
    ],
)
def test_golden_stdout_bytes(argv, size, sha256, int_str_limit):
    int_str_limit(0)  # to spell the integer arguments of `trace A D`
    code, out, err = invoke([str(arg) for arg in argv])
    assert (code, err) == (0, "")
    payload = out.encode()
    assert (len(payload), hashlib.sha256(payload).hexdigest()) == (size, sha256)


@pytest.mark.parametrize(
    "argv",
    [
        ["bogus"],
        ["nth", "5", "--frobnicate"],
        ["gen", "--count", "0"],
        ["gen", "--count", "x"],
        ["nth", "0"],
        ["approx", "step", "7/0"],
        ["approx", "step", "x/y"],
        ["compare", "--steps", "-1"],
        [],
    ],
)
def test_usage_errors_exit_2(argv):
    code, _, err = invoke(argv)
    assert code == 2
    assert err != ""


@pytest.mark.parametrize(
    "argv,message",
    [
        (["gen", "--count", "0"], "argument --count: must be >= 1, got 0"),
        (["compare", "--steps", "-1"], "argument --steps: must be >= 0, got -1"),
        (["nth", "x"], "argument n: not an integer: 'x'"),
        (["gen", "--count", "3", "--digits", "2.5"], "argument --digits: not an integer: '2.5'"),
    ],
)
def test_integer_argument_error_texts(argv, message):
    code, _, err = invoke(argv)
    assert code == 2
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "3", "5"],
        ["approx", "step", "0/5"],
        ["approx", "digits", "0"],
    ],
)
def test_domain_errors_exit_1(argv):
    code, out, err = invoke(argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [["nth", "20000"], ["trace", "3", "5"], ["bogus"]])
def test_run_restores_the_int_str_limit(argv, int_str_limit):
    int_str_limit(5000)
    invoke(argv)
    assert sys.get_int_max_str_digits() == 5000


def test_help_exits_zero():
    code, out, _ = invoke(["--help"])
    assert code == 0
    assert "verb" in out

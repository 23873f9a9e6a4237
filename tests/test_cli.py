import json
import sys

import pytest
from helpers import hankel_formula

from expriordan.cli import main
from expriordan.catalog import build_entry
from expriordan.riordan import matrix_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_mentions_every_entry(capsys):
    code, out, err = run(capsys, "list")
    assert code == 0 and err == ""
    for eid in ("tanh", "gompertz", "pascal", "quartic"):
        assert eid in out


def test_array_identity_block(capsys):
    code, out, _ = run(capsys, "array", "--g", "1", "--f", "0,1", "--order", "3")
    assert code == 0
    assert out.splitlines() == [
        "1  0  0  0",
        "0  1  0  0",
        "0  0  1  0",
        "0  0  0  1",
    ]


def test_array_gompertz_block(capsys):
    code, out, _ = run(capsys, "array", "gompertz", "--order", "6")
    assert code == 0
    assert out.splitlines()[3].split() == ["1", "-4", "0", "1", "0", "0", "0"]


def test_array_pascal(capsys):
    code, out, _ = run(capsys, "array", "pascal", "--order", "4")
    assert code == 0
    assert out.splitlines()[4].split() == ["1", "4", "6", "4", "1"]


def test_array_json_round_trip(capsys):
    code, out, _ = run(capsys, "array", "erf", "--order", "8", "--format", "json")
    assert code == 0
    name, m = matrix_from_json(json.loads(out))
    assert name == "erf"
    assert m == build_entry("erf", 8).matrix


def test_array_egf_input(capsys):
    # Pascal from EGF coefficients of e^x and ordinary f = x.
    code, out, _ = run(
        capsys, "array", "--g", "1,1,1,1,1", "--egf", "--f", "0,1", "--order", "4"
    )
    assert code == 0
    assert out.splitlines()[4].split() == ["1", "4", "6", "4", "1"]


def test_produce_block_size_and_params(capsys):
    code, out, _ = run(capsys, "produce", "tanh", "--order", "6")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8  # 7x7 block plus the params line
    assert lines[-1] == "jacobi: alpha=0, beta=-2, gamma=0, delta=-1"


def test_produce_not_tridiagonal(capsys):
    code, out, _ = run(capsys, "produce", "algebraic", "--order", "6")
    assert code == 0
    assert out.splitlines()[-1] == "jacobi: not tridiagonal"


def test_produce_cos_sin_matches_reference(capsys):
    code, out, _ = run(capsys, "produce", "cos_sin", "--order", "6")
    assert code == 0
    assert out.splitlines()[5].split() == ["-45", "0", "-45", "0", "-15", "0", "1"]


def test_produce_json_contains_jacobi(capsys):
    code, out, _ = run(capsys, "produce", "pascal", "--order", "5", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["jacobi"] == {"alpha": "1", "beta": "0", "gamma": "0", "delta": "0"}


def test_hankel_tanh(capsys):
    code, out, _ = run(capsys, "hankel", "tanh", "--n", "5")
    assert code == 0
    assert out.strip() == "0, -1, 0, 144, 0, -1194393600"


def test_hankel_tanh_at_the_size_limit(capsys):
    # h_0..h_64 of tanh's EGF read off its order-128 jet, against the closed form.
    code, out, _ = run(capsys, "hankel", "tanh", "--n", "64")
    assert code == 0
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # h_63 has about 4800 digits
    try:
        want = ", ".join(str(hankel_formula("tanh", n)) for n in range(65))
    finally:
        sys.set_int_max_str_digits(limit)
    assert out == want + "\n"


def test_hankel_explicit_sequence(capsys):
    code, out, _ = run(capsys, "hankel", "--seq", "1,0,1,0,2,0,5", "--n", "3")
    assert code == 0
    assert out.strip() == "1, 1, 1, 1"


def test_hankel_csv(capsys):
    code, out, _ = run(capsys, "hankel", "tanh", "--n", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,value"
    assert out.splitlines()[-1] == "3,144"


def test_sequence_json_round_trip(capsys):
    from fractions import Fraction

    code, out, _ = run(capsys, "hankel", "tanh", "--n", "4", "--format", "json")
    assert code == 0
    assert [Fraction(v) for v in json.loads(out)] == [0, -1, 0, 144, 0]


def test_moments_gompertz(capsys):
    code, out, _ = run(capsys, "moments", "gompertz", "--n", "6")
    assert code == 0
    assert out.strip() == "1, 0, -1, 1, 2, -9, 9"


def test_moments_arctan_inverse(capsys):
    code, out, _ = run(capsys, "moments", "arctan", "--inverse", "--n", "8")
    assert code == 0
    assert out.strip() == "1, 0, 2, 0, 16, 0, 272, 0, 7936"


def test_poly_algebraic(capsys):
    code, out, _ = run(capsys, "poly", "algebraic", "--n", "6")
    assert code == 0
    assert out.splitlines()[-1] == "x^6 - 105x^4 + 1575x^2 - 1575"


def test_cf_gompertz(capsys):
    code, out, _ = run(capsys, "cf", "gompertz", "--depth", "4")
    assert code == 0
    assert out.splitlines() == ["b: 0, -1, -2, -3", "lambda: -1, -2, -3, -4"]


def test_cf_json(capsys):
    code, out, _ = run(capsys, "cf", "gompertz", "--depth", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["b"] == ["0", "-1", "-2"]
    assert obj["lambda"] == ["-1", "-2", "-3"]


def test_plotdata_parametric_tanh(capsys):
    code, out, _ = run(
        capsys, "plotdata", "tanh", "--kind", "parametric", "--samples", "3",
        "--tmin", "-1", "--tmax", "1",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "fprime,f"
    assert lines[2] == "1,0"  # t = 0: (sech^2(0), tanh(0))


def test_plotdata_gompertz_curve_at_zero(capsys):
    code, out, _ = run(
        capsys, "plotdata", "gompertz", "--samples", "3", "--tmin", "-1", "--tmax", "1"
    )
    assert code == 0
    t, f, fp = out.splitlines()[2].split(",")
    assert (t, f, fp) == ("0", "0", "1")


def test_plotdata_validation(capsys):
    code, _, err = run(capsys, "plotdata", "tanh", "--samples", "1")
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1


def test_unknown_id_fails(capsys):
    code, _, err = run(capsys, "array", "logistic")
    assert code == 1
    assert "unknown catalog id" in err


def test_malformed_series_spec_fails(capsys):
    code, _, err = run(capsys, "array", "--g", "1,zz", "--f", "0,1")
    assert code == 1
    assert "malformed coefficient" in err


def test_unnormalized_pair_fails(capsys):
    code, _, err = run(capsys, "array", "--g", "2", "--f", "0,1")
    assert code == 1
    assert "invalid (g, f) pair" in err


def test_hankel_insufficient_data_fails(capsys):
    code, _, err = run(capsys, "hankel", "--seq", "1,2,3", "--n", "4")
    assert code == 1
    assert "need" in err
    # The diagnostic names the order that was asked for, not the first short one.
    code, _, err = run(capsys, "hankel", "--seq", "1,2", "--n", "3")
    assert code == 1
    assert err == "error: need 7 terms for h_0..h_3\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("moments", "tanh", "--n", "-3"),
        ("hankel", "tanh", "--n", "-1"),
        ("poly", "tanh", "--n", "-1"),
        ("produce", "tanh", "--order", "1"),
        ("array", "tanh", "--order", "0"),
        ("cf", "gompertz", "--depth", "0"),
        ("array", "--g", "1", "--f", "0,1", "--order", "100000000000"),
        ("hankel", "tanh", "--n", "65"),
        ("cf", "gompertz", "--depth", "65"),
    ],
    ids=lambda argv: "_".join(argv).replace("--", ""),
)
def test_out_of_range_option_fails(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: --") and err.count("\n") == 1


def test_largest_size_is_accepted(capsys):
    code, out, err = run(capsys, "array", "--g", "1", "--f", "0,1", "--order", "64")
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 65


def test_integers_past_the_string_conversion_limit(capsys):
    # Python refuses int <-> str conversion past 4300 digits by default; the
    # CLI reads and prints such terms whole and restores the limit after.
    limit = sys.get_int_max_str_digits()
    big = "9" + "0" * 4398 + "7"
    code, out, err = run(capsys, "hankel", "--seq", big, "--n", "0")
    assert (code, out, err) == (0, big + "\n", "")
    assert sys.get_int_max_str_digits() == limit


UNKNOWN_ID = (
    "error: unknown catalog id 'logistic'; known ids: tanh, tanh2, arctan, algebraic, "
    "quartic, gudermann, erf, gompertz, cos_sin, pascal\n"
)


# Errors raised inside the library reach stderr as their bare message.
LIBRARY_ERRORS = [
    (("array", "logistic"), UNKNOWN_ID),
    (("hankel", "logistic"), UNKNOWN_ID),
    (("moments", "logistic"), UNKNOWN_ID),
    (("cf", "logistic"), UNKNOWN_ID),
    (("plotdata", "logistic"), UNKNOWN_ID),
    (("moments", "erf", "--inverse"), "error: entry 'erf' has no closed-form inverse pair\n"),
    (("cf", "tanh", "--of", "f"), "error: moment sequence must start with m_0 = 1\n"),
    (("plotdata", "tanh", "--samples", "1"), "error: need at least two samples\n"),
    (
        ("plotdata", "tanh", "--tmin", "1", "--tmax", "0"),
        "error: t_min must be strictly below t_max\n",
    ),
    # A non-finite bound used to print a nan row and exit 0.
    (
        ("plotdata", "tanh", "--tmax", "inf", "--samples", "3"),
        "error: t_min and t_max must be finite\n",
    ),
    # exp(800) overflows in the float evaluator; this used to be a traceback.
    (("plotdata", "gompertz", "--tmin", "-800", "--tmax", "-700"), "error: math range error\n"),
]


@pytest.mark.parametrize(
    "argv, expected",
    LIBRARY_ERRORS,
    ids=["_".join(argv).replace("--", "") for argv, _ in LIBRARY_ERRORS],
)
def test_library_error_diagnostics(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", expected)


@pytest.mark.parametrize(
    "argv",
    [
        ("array", "tanh", "--format", "yaml"),
        ("moments",),
        ("hankel", "tanh", "--n", "x"),
        ("nonsense",),
        (),
    ],
    ids=lambda argv: "_".join(argv).replace("--", "") or "empty",
)
def test_usage_error_is_one_line_and_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [("--help",), ("array", "--help")])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_id_and_spec_conflict(capsys):
    code, _, err = run(capsys, "array", "tanh", "--g", "1", "--f", "0,1")
    assert code == 1
    assert "not both" in err


def test_deterministic_output(capsys):
    first = run(capsys, "produce", "gudermann", "--order", "8", "--format", "json")
    second = run(capsys, "produce", "gudermann", "--order", "8", "--format", "json")
    assert first == second

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import hankel_formula, matrix_from_json

from expriordan import catalog
from expriordan.cli import MAX_SAMPLES, main
from expriordan.production import production_definitional
from expriordan.riordan import build, format_polynomial, inverse, row_polynomials


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
    assert m == build(*catalog.pair("erf", 8)).matrix


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


ENTRY_SIDES = [
    pytest.param(eid, side, id=eid + "".join(side))
    for eid in catalog.ids()
    for side in ((), ("--inverse",))
]


@pytest.mark.parametrize("n", [0, 1, 8, 24])
@pytest.mark.parametrize("eid, side", ENTRY_SIDES)
def test_moments_read_the_prefix_of_the_order_64_jet(capsys, eid, side, n):
    # `moments` reads the order-n jet; it must agree with a longer one.
    get = catalog.inverse_pair if side else catalog.pair
    g, f = get(eid, 64)
    for part, s in (("g", g), ("f", f)):
        code, out, err = run(capsys, "moments", eid, *side, "--n", str(n), "--of", part)
        assert (code, err) == (0, "")
        assert out == ", ".join(map(str, s.egf()[: n + 1])) + "\n"


def test_erf_inverse_has_the_inverse_error_function_coefficients(capsys):
    # (2k)! c_k, with erfinv(z) = sum c_k/(2k+1) (sqrt(pi) z/2)^(2k+1) (OEIS A002067).
    code, out, err = run(capsys, "moments", "erf", "--inverse", "--of", "f", "--n", "9")
    assert (code, err) == (0, "")
    assert out == "0, 1, 0, 2, 0, 28, 0, 1016, 0, 69904\n"


@pytest.mark.parametrize(
    "argv, want",
    [
        (("hankel", "erf", "--inverse", "--n", "5"), "0, -1, 0, 576, 0, -543581798400\n"),
        (("cf", "erf", "--inverse", "--depth", "4"), "b: 0, 0, 0, 0\nlambda: 2, 12, 26, 640/13\n"),
    ],
    ids=("hankel", "cf"),
)
def test_erf_inverse_sequence_commands(capsys, argv, want):
    assert run(capsys, *argv) == (0, want, "")


@pytest.mark.parametrize("eid, side", ENTRY_SIDES)
def test_array_commands_print_what_the_reverted_array_prints(capsys, eid, side):
    # The route every --inverse took before inverse_pair covered every entry:
    # realize the forward array and invert it.  `poly` printed rows of the
    # order-16 array; it now reads order max(n, 1).
    def arr(n):
        a = build(*catalog.pair(eid, n))
        return inverse(a) if side else a

    for n in range(1, 13):
        out = run(capsys, "array", eid, *side, "--order", str(n))[1]
        assert out == arr(n).matrix.render_text() + "\n", n
    for n in range(2, 13):  # produce needs order 2 for its Jacobi line
        out = run(capsys, "produce", eid, *side, "--order", str(n))[1]
        want = production_definitional(arr(n + 1)).render_text()
        assert out.splitlines()[:-1] == want.splitlines(), n
    polys = [format_polynomial(p) for p in row_polynomials(arr(16))]
    for n in range(17):
        out = run(capsys, "poly", eid, *side, "--n", str(n))[1]
        assert out == "\n".join(polys[: n + 1]) + "\n", n


def test_poly_algebraic(capsys):
    code, out, _ = run(capsys, "poly", "algebraic", "--n", "6")
    assert code == 0
    assert out.splitlines()[-1] == "x^6 - 105x^4 + 1575x^2 - 1575"


def test_poly_order_follows_n(capsys):
    # Past the old default order of 16, which printed "array only provides 17 polynomials".
    code, out, err = run(capsys, "poly", "tanh", "--n", "20")
    assert (code, err) == (0, "")
    polys = row_polynomials(build(*catalog.pair("tanh", 20)))
    assert out == "\n".join(map(format_polynomial, polys)) + "\n"


def test_poly_reads_a_spec_whole(capsys):
    # A spec longer than --n + 1 terms is read at its own length, up to the size cap.
    g = ",".join(["1"] + ["0"] * 9)
    assert run(capsys, "poly", "--g", g, "--f", "0,1", "--n", "2") == (0, "1\nx\nx^2\n", "")
    g = ",".join(["1"] + ["0"] * 65)
    code, out, err = run(capsys, "poly", "--g", g, "--f", "0,1", "--n", "2")
    assert (code, out, err) == (1, "", "error: 66 coefficients exceed order 64\n")


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


def test_plotdata_samples_bound(capsys):
    code, out, err = run(capsys, "plotdata", "tanh", "--samples", str(MAX_SAMPLES + 1))
    assert (code, out) == (1, "")
    assert err == f"error: --samples must be at most {MAX_SAMPLES}, got {MAX_SAMPLES + 1}\n"


def test_plotdata_algebraic_far_out(capsys):
    # t*t overflows to inf here; f = t/sqrt(1 + t^2) is still +-1 in floats.
    code, out, err = run(
        capsys, "plotdata", "algebraic", "--tmin=-1e200", "--tmax", "1e200", "--samples", "3"
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == ["t,f,fprime", "-1e+200,-1,0", "0,0,1", "1e+200,1,0"]


@pytest.mark.parametrize(
    "argv, rows",
    [
        (("tanh", "--tmin", "700", "--tmax", "1e100"), ["700,1,0", "1e+100,1,0"]),
        (
            ("tanh", "--tmin=-360", "--tmax=-355"),
            ["-360,-1,8.12892320967344e-313", "-355,-1,1.79051449027005e-308"],
        ),
        (("tanh2", "--tmin", "400", "--tmax", "800"), ["400,0.5,0", "800,0.5,0"]),
        (
            ("gudermann", "--tmin", "700", "--tmax", "800"),
            ["700,1.5707963267949,1.97193530875195e-304", "800,1.5707963267949,0"],
        ),
        (
            ("gudermann", "--tmin=-800", "--tmax=-750"),
            ["-800,-1.5707963267949,0", "-750,-1.5707963267949,0"],
        ),
        (("quartic", "--tmin", "1e77", "--tmax", "1e78"), ["1e+77,1,0", "1e+78,1,0"]),
        (("quartic", "--tmin=-1e78", "--tmax=-1e77"), ["-1e+78,-1,0", "-1e+77,-1,0"]),
        (("gompertz", "--tmin=-800", "--tmax=-700"), ["-800,-1,0", "-700,-1,0"]),
        # t_min + step rounds to 0 here; the last row is t_max itself.
        (
            ("tanh", "--tmin=-1e100", "--tmax=-355"),
            ["-1e+100,-1,0", "-355,-1,1.79051449027005e-308"],
        ),
        # At 15 digits this t reads -1.79769313486232e+308, which parses as -inf.
        (
            ("tanh", "--tmin=-1.7976931348623151e+308", "--tmax=0"),
            ["-1.7976931348623151e+308,-1,0", "0,0,1"],
        ),
    ],
    ids=[
        "tanh", "tanh_negative", "tanh2", "gudermann", "gudermann_negative", "quartic",
        "quartic_negative", "gompertz_negative", "tanh_far_window", "tanh_near_float_max",
    ],
)
def test_plotdata_far_out(capsys, argv, rows):
    # cosh(t)**2, sinh, cosh, t**4 and exp(-t) overflow here; f is at its
    # limit and f' is its exponentially small tail, 0 once that underflows.
    code, out, err = run(capsys, "plotdata", *argv, "--samples", "2")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["t,f,fprime", *rows]


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
    # So did a finite window whose width overflows.
    (
        ("plotdata", "tanh", "--tmin=-1e308", "--tmax", "1e308", "--samples", "3"),
        "error: t_max - t_min must be finite\n",
    ),
    (
        ("plotdata", "tanh", "--tmin=-1.7e308", "--tmax", "1.7e308", "--samples", "2"),
        "error: t_max - t_min must be finite\n",
    ),
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


@pytest.mark.parametrize(
    "argv",
    [
        ("hankel", "tanh", "--seq", "1,0,1,0,2", "--n", "2"),
        ("hankel", "--seq", "1,0,1,0,2", "--inverse", "--n", "2"),
    ],
    ids=("id", "inverse"),
)
def test_hankel_seq_takes_no_entry(capsys, argv):
    # Neither has a meaning beside --seq, so neither may be dropped silently.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: --seq takes no catalog id and no --inverse\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("hankel", "tanh", "--n", "5", "--order", "64"),
        ("moments", "gompertz", "--order", "16"),
        ("cf", "gompertz", "--order", "16"),
        ("poly", "algebraic", "--order", "6"),
    ],
    ids=lambda argv: argv[0],
)
def test_sequence_commands_take_no_order(capsys, argv):
    # These, and `poly`, read the jet order off the length they need.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: unrecognized arguments: " + " ".join(argv[-2:]) + "\n"


def test_deterministic_output(capsys):
    first = run(capsys, "produce", "gudermann", "--order", "8", "--format", "json")
    second = run(capsys, "produce", "gudermann", "--order", "8", "--format", "json")
    assert first == second


# sha256 of stdout for every README command and the three larger commands of
# the benchmark's cli workload, under every --format each accepts: a change to
# any printed byte fails here.
GOLDEN_STDOUT = {
    "list": "eb74555d3ca508cea72d5afdf2829f1fe33e39d012488ed3db8b0f2d1d9141d7",
    "array gompertz --order 6 --format text":
        "aeba42b42d799aa623d9e645fedf7b11e3b1a325ed890ca941a8549862c20e8d",
    "array gompertz --order 6 --format json":
        "bb6368b4ee1dfba7c7dd9a683caa9776ed5da27f525d8f562d4b7ce48c35027e",
    "array gompertz --order 6 --format csv":
        "010638ae78c97993e532161718518f05dd44b344898ac27cd3c2de53324119bc",
    "array --g 1 --f 0,1 --order 3 --format text":
        "402bef1e8114fd895cd8261fd73fc9e565609f02d90d053de7c52c82535d4d2a",
    "array --g 1 --f 0,1 --order 3 --format json":
        "ae77e386e7f60c317868f91cbe715bd32520a313fa613a97449402b310b9b202",
    "array --g 1 --f 0,1 --order 3 --format csv":
        "db4bed23dc5ac8aa9d1b5ff5bebaefcb78b5a4cb8838aea907397fd933ebfa65",
    "produce tanh --order 6 --format text":
        "9b09d7cbaf897c404474df55f418051deb8338ec8dfa49ee6c6e597ac3ea8873",
    "produce tanh --order 6 --format json":
        "f315a7ae1eb62f136ac4a87bda87ad3e0cba2364034dad043329a075d215bb57",
    "produce tanh --order 6 --format csv":
        "eef7d129aff76c3da5edc90fd3c00265aa43ea492f1ead82e1fc215100804253",
    "produce algebraic --order 6 --format text":
        "c2cc1745471f6c2b11433f03794fec3dfd2807cf8f16a7a029aec4a267d168e7",
    "produce algebraic --order 6 --format json":
        "00bf1f208e4cd6b27d70b516abac08a11821b7cbedaaa142e126651e6ea31e7f",
    "produce algebraic --order 6 --format csv":
        "d63529f2b8b3c2ea891981436c895d26bf6da729ecd87f4e66607c8c82214729",
    "hankel tanh --n 5 --format text":
        "3f9494ccff69f5be873ede990e0c039574b90bcaf183fc9bea8c6e5278885f68",
    "hankel tanh --n 5 --format json":
        "a8783a688adde30b8458c7382f473d0f051d2f3f356bd450b26a7c57db0d67ff",
    "hankel tanh --n 5 --format csv":
        "b2a7bfe1b841bc299c9c9cad44ba85ab7f35ea4ba8fc97875723e51482028033",
    "moments arctan --inverse --n 8 --format text":
        "16a60f26bd290a3a7040d749c004b478a880f82a8120eed8f7aa5c15b4259702",
    "moments arctan --inverse --n 8 --format json":
        "596769a876665de264a392f8f62ef0717f92f5ea84ae35c748f8e7e651268b09",
    "moments arctan --inverse --n 8 --format csv":
        "7560e1ee264e8f6543652126919265b4767113ecf5146057762db1315520da75",
    "poly algebraic --n 6 --format text":
        "81b57047fffb391fdcdd10a650f1bdeb57233102439fde86901fe171bb7a509f",
    "poly algebraic --n 6 --format json":
        "717589fd1b49dc182d7f4c2b9702a017b8a22406d2082b4656d3766aa934ba5d",
    "poly algebraic --n 6 --format csv":
        "17109e30924e63e1712a5e78e60572b66f70d545879a6e02eba71da6cdbbf172",
    "cf gompertz --depth 4 --format text":
        "1d6296a61a128b1671104cda2e230461a7de6bec950301be721170f6fea14c36",
    "cf gompertz --depth 4 --format json":
        "905022551421a6f4a139627a0e3c51dbd2acf4e72e6b4272a4cfb5567a1996ab",
    "cf gompertz --depth 4 --format csv":
        "ba8db5d0a541149fc94df4643dbc911ceb77f2b467088b49aa9cbae9a5f941c8",
    "plotdata tanh --kind parametric":
        "37e5c4470c7a4d01842d3ee131908bf2dab84b846c26d58eaa1d4f040c7e7285",
    "produce gompertz --order 24 --format text":
        "74c8093d13ddbaa6a1e8bedb95998cf4ea26146d4a042c454a8f2b78be0740fb",
    "produce gompertz --order 24 --format json":
        "f92ecd8b658cd1f6fb4a7c0b743143e9af9e3e173fb7fa1ea203a734f6feedbf",
    "produce gompertz --order 24 --format csv":
        "7dd62d4355f4fc106fb9d8ea027ab274d31bf87a16c788513889efae95f7471e",
    "hankel tanh --n 24 --format text":
        "1b0d65bf9d51c20a1103e6d8b73e160480554d422d1521be0e3f5ce8cf58eef4",
    "hankel tanh --n 24 --format json":
        "bee49580c9cc0cb7b000610587fc27a39f17b7eae4fc72d0808eb6505afdb7e5",
    "hankel tanh --n 24 --format csv":
        "5f4a19ff502270b4e86c78cc6ba0cd4772d975c6714943e6ec2d973777cef004",
    "array algebraic --inverse --order 24 --format text":
        "854819bd2caca92b6f3239dff4af355bf742dd57cc64c5fdb06a40dc81855b13",
    "array algebraic --inverse --order 24 --format json":
        "177510699d26b3ed3bdba88fbc0fc22254449b22f1e6da121f0320e9da080dc6",
    "array algebraic --inverse --order 24 --format csv":
        "3c9f9bbcf081271b72975db6e5d30ea566f774a687d5337799b73d918ffb9ed5",
}


@pytest.mark.parametrize("command", GOLDEN_STDOUT)
def test_golden_stdout(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]


def test_startup_imports_only_what_every_command_needs():
    # Each CLI process pays for every module it imports; dataclasses (with
    # inspect), json and orthopoly are loaded only by the commands that use them.
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import expriordan.cli, sys; "
        "print([m for m in ('dataclasses', 'inspect', 'json', 'expriordan.orthopoly') "
        "if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def test_golden_reproduce_tables():
    root = Path(__file__).resolve().parent.parent
    path = [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "reproduce_tables.py")],
        env=env, capture_output=True, check=True,
    ).stdout
    digest = "422de6d8b8521f7347cfb1feb7b7b7c17fcea93366ebfbbf82de777891336fff"
    assert hashlib.sha256(out).hexdigest() == digest


def test_export_plot_data_writes_what_plotdata_prints(capsys, tmp_path):
    root = Path(__file__).resolve().parent.parent
    path = [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    script = [sys.executable, str(root / "scripts" / "export_plot_data.py"), "--outdir"]
    subprocess.run([*script, str(tmp_path)], env=env, capture_output=True, check=True)
    assert (tmp_path / "tanh_curve.csv").read_text() == run(capsys, "plotdata", "tanh")[1]
    # A window the CLI rejects stops the script with its diagnostic.
    bad = subprocess.run(
        [*script, str(tmp_path / "bad"), "--tmax", "inf"], env=env, capture_output=True, text=True
    )
    assert (bad.returncode, bad.stderr) == (1, "error: t_min and t_max must be finite\n")

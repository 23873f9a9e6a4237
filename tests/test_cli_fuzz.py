"""The CLI's contract on generated input, in-process: every call either exits
0 with output that parses in its format, or exits 1 with one line on stderr.
Every plot data field parses back as a finite float.  Sizes stay at most 8
and samples at most 50, so that no example is slow."""

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from math import isfinite

import hypothesis.strategies as st
from hypothesis import example, given, settings

from expriordan import catalog
from expriordan.cli import main

COMMANDS = ("list", "array", "produce", "poly", "hankel", "moments", "cf", "plotdata")
SIZES = st.integers(-1, 8).map(str)
IDS = st.sampled_from(catalog.ids() + ("logistic",))
TERMS = st.lists(st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4", "x", "1/0"]), max_size=5)
# Half the specs start like a valid g (1, ...) or f (0, 1, ...).
G_SPECS = st.one_of(TERMS, TERMS.map(lambda t: ["1", *t])).map(",".join)
F_SPECS = st.one_of(TERMS, TERMS.map(lambda t: ["0", "1", *t])).map(",".join)
# Half the bounds lie near the float range's ends, where t_max - t_min can
# overflow though both bounds are finite.
BOUNDS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([8e307, -8e307, 1e308, -1e308, 1.7e308, -1.7e308]),
).map(repr)
# Now and then an option that the subcommand may reject.
STRAY = st.sampled_from([()] * 9 + [("--order", "3"), ("--depth", "2"), ("--seq=1,0,1",)])


@st.composite
def argvs(draw):
    def maybe(*words):
        return list(words) if draw(st.booleans()) else []

    cmd = draw(st.sampled_from(COMMANDS))
    argv = [cmd]
    if cmd == "plotdata":
        argv += [draw(IDS), "--kind", draw(st.sampled_from(("curve", "parametric")))]
        argv += [f"--tmin={draw(BOUNDS)}", f"--tmax={draw(BOUNDS)}"]
        argv += ["--samples", str(draw(st.integers(-1, 50)))]
    elif cmd in ("array", "produce", "poly"):
        if draw(st.booleans()):
            argv.append(draw(IDS))
        else:
            argv += [f"--g={draw(G_SPECS)}", f"--f={draw(F_SPECS)}", *maybe("--egf")]
        argv += maybe("--inverse")
        argv += ["--n" if cmd == "poly" else "--order", draw(SIZES)]
    elif cmd != "list":
        if cmd == "hankel" and draw(st.booleans()):
            argv.append("--seq=" + ",".join(draw(st.lists(st.sampled_from(["0", "1", "-2", "1/3"])))))
        else:
            argv.append(draw(IDS))
        argv += maybe("--inverse")
        argv += ["--of", draw(st.sampled_from(("f", "g")))]
        argv += ["--depth" if cmd == "cf" else "--n", draw(SIZES)]
    if cmd not in ("list", "plotdata"):
        argv += ["--format", draw(st.sampled_from(("text", "json", "csv")))]
    return argv + list(draw(STRAY))


@settings(max_examples=300, deadline=None)
@given(argvs())
# Windows whose width overflows, which printed nan rows and exited 0.
@example(["plotdata", "tanh", "--tmin=-1e308", "--tmax=1e308", "--samples", "3"])
@example(
    ["plotdata", "tanh", "--kind", "parametric"]
    + ["--tmin=-1.7e308", "--tmax=1.7e308", "--samples", "2"]
)
# A t whose 15-digit text reads back as -inf.
@example(["plotdata", "tanh", "--tmin=-1.7976931348623151e+308", "--tmax=0", "--samples", "2"])
def test_cli_exits_0_with_parseable_output_or_1_with_one_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("\n")
        return
    assert (code, err) == (0, "")
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else None
    if fmt == "json":
        json.loads(out)
    elif fmt == "csv" or argv[0] == "plotdata":
        # `produce` appends its Jacobi line as a "#" comment.
        rows = [r for r in csv.reader(io.StringIO(out)) if not r[0].startswith("#")]
        assert len({len(r) for r in rows}) == 1
        if argv[0] == "plotdata":
            assert all(isfinite(float(v)) for r in rows[1:] for v in r), out
    else:
        assert out.endswith("\n") and out.strip()

"""A fuzz net over the CLI: no input file makes a command exit 3.

Hypothesis writes matrix, vector, instance and config files, each well
formed or with one fault (a bad entry, a bad shape, a bad format), and runs
each of the five commands on them in process. Every command must exit 0, 1
or 2, and exit 2 must come with an ``error:`` line. Every drawn size is
capped (matrices at most 4 x 4, instances at most 3 elements and 3 sets, so
a symmetric reduction has r <= 29, and experiments at most n = 12 with 3
trials and 3 regenerations), so that no draw asks for a large allocation or
a long run.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from minctrl.cli import main

# Values that no field expects: the wrong type, a non-finite float (json
# writes ``NaN`` and ``Infinity``, and reads them back), a string that is not
# a rational, an empty container and, except for a count that a command
# loops over, an integer past float64 or int64.
SMALL_JUNK = st.sampled_from(
    [None, True, False, 0.5, -1.5, float("nan"), float("inf"), float("-inf"),
     "", "x", "1/0", "nan", "1e999", "0x10", " 2 ", [], {}]
)
JUNK = st.one_of(SMALL_JUNK, st.sampled_from([10**400, -(10**400), 2**63]))
# Well-formed entries. Floats stay on a grid of sixteenths: an entry near
# 1e-200 beside entries near 1 can fail the eigensolver's residual check,
# which is a numeric error (exit 3 by the CLI's contract), not a file fault.
ENTRY = st.one_of(
    st.integers(-3, 3),
    st.builds("{}/{}".format, st.integers(-5, 5), st.integers(1, 5)),
    st.integers(-64, 64).map(lambda k: k / 16),
)
DIM = st.integers(1, 4)


@st.composite
def matrix_text(draw, rows, cols):
    """A file for a ``rows x cols`` matrix and its suffix: JSON or CSV."""
    fault = draw(st.sampled_from(["none", "entry", "entry", "shape", "csv", "garbage"]))
    data = draw(st.lists(ENTRY, min_size=rows * cols, max_size=rows * cols))
    if fault == "entry":
        data[draw(st.integers(0, len(data) - 1))] = draw(JUNK)
    if fault == "garbage":
        return draw(st.sampled_from(["", "{", "[1, 2]", "null", '"1"', "{oops", "\x00"])), ".json"
    if fault == "csv":
        cells = [str(float(x)) if not isinstance(x, str) else x for x in data]
        if draw(st.booleans()):
            cells[draw(st.integers(0, len(cells) - 1))] = draw(
                st.sampled_from(["x", "", "nan", "inf", "1e400", "1/2", "True"])
            )
        lines = [",".join(cells[i * cols : (i + 1) * cols]) for i in range(rows)]
        return "\n".join(lines) + "\n", ".csv"
    obj = {"rows": rows, "cols": cols, "data": data}
    if fault == "shape":
        how = draw(st.sampled_from(["rows", "cols", "short", "long", "key", "not-an-object"]))
        if how in ("rows", "cols"):
            obj[how] = draw(st.one_of(JUNK, st.integers(-1, 5)))
        elif how == "short":
            data.pop()
        elif how == "long":
            data.append(draw(ENTRY))
        elif how == "key":
            del obj[draw(st.sampled_from(sorted(obj)))]
        else:
            obj = data
    return json.dumps(obj), ".json"


@st.composite
def instance_text(draw):
    m = draw(st.integers(1, 3))
    sets = draw(st.lists(
        st.lists(st.integers(1, m), min_size=1, max_size=3), min_size=1, max_size=3
    ))
    obj = {"m": m, "sets": sets}
    fault = draw(st.sampled_from(["none", "none", "element", "m", "sets", "key"]))
    if fault == "element":
        s = sets[draw(st.integers(0, len(sets) - 1))]
        s[draw(st.integers(0, len(s) - 1))] = draw(st.one_of(JUNK, st.sampled_from([0, m + 1])))
    elif fault == "m":
        obj["m"] = draw(st.one_of(JUNK, st.integers(-1, 3)))
    elif fault == "sets":
        obj["sets"] = draw(st.one_of(JUNK, st.just([[]]), st.just([1, 2]), st.just([])))
    elif fault == "key":
        del obj[draw(st.sampled_from(sorted(obj)))]
    return json.dumps(obj if draw(st.integers(0, 9)) else sets)


# Each config field's values, valid and not.
CONFIG_FIELDS = {
    "n_values": st.one_of(JUNK, st.lists(st.one_of(st.integers(-1, 12), JUNK), max_size=3)),
    "trials_per_n": st.one_of(st.integers(-1, 3), SMALL_JUNK),
    "edge_probability": st.one_of(st.floats(-0.5, 1.5), JUNK),
    "eigen_gap_threshold": st.one_of(st.floats(-1, 2), JUNK),
    "seed": st.one_of(st.integers(-1, 5), JUNK),
    "solver": st.one_of(st.sampled_from(["randomized", "deterministic", "greedy"]), JUNK),
    "max_regenerations_per_trial": st.one_of(st.integers(-1, 3), SMALL_JUNK),
    "include_self_loops": st.one_of(st.booleans(), JUNK),
    "log_base": st.one_of(st.sampled_from(["natural", "ten", "two"]), JUNK),
    "unknown_key": JUNK,
}


@st.composite
def config_text(draw):
    obj = {
        "n_values": draw(st.lists(st.integers(1, 12), min_size=1, max_size=3)),
        "trials_per_n": draw(st.integers(1, 3)),
        # bounded, so that an always-rejecting threshold ends soon
        "max_regenerations_per_trial": 3,
    }
    for key in draw(st.lists(st.sampled_from(sorted(CONFIG_FIELDS)), max_size=3, unique=True)):
        obj[key] = draw(CONFIG_FIELDS[key])
    if draw(st.booleans()):
        del obj[draw(st.sampled_from(sorted(obj)))]
    return json.dumps(obj if draw(st.integers(0, 9)) else list(obj))


@st.composite
def command(draw):
    """A command line and the files it reads, as ``(argv, {name: text})``."""
    name = draw(st.sampled_from(["solve", "reduce", "oracle", "experiment", "verify"]))
    if name == "reduce":
        flags = ["--symmetric"] if draw(st.booleans()) else []
        argv = ["reduce", "inst.json", *flags, "--out-dir", "out"]
        return argv, {"inst.json": draw(instance_text())}
    if name == "experiment":
        return ["experiment", "cfg.json"], {"cfg.json": draw(config_text())}
    kind = draw(st.sampled_from(["hitting-set", "min-vector", "min-diagonal"]))
    if name == "oracle" and kind == "hitting-set":
        return ["oracle", "inst.json", "--kind", kind], {"inst.json": draw(instance_text())}
    n = draw(DIM)
    text, suffix = draw(matrix_text(n, n))
    A = "A" + suffix
    if name == "oracle":
        return ["oracle", A, "--kind", kind], {A: text}
    backend = ["--backend", draw(st.sampled_from(["exact", "pbh"]))]
    if name == "solve":
        mode = ["--mode", draw(st.sampled_from(["vector", "diagonal"]))]
        algo = ["--algo", draw(st.sampled_from(["det", "rand"]))]
        return ["solve", A, *mode, *algo, *backend], {A: text}
    b_text, b_suffix = draw(matrix_text(*draw(st.sampled_from([(n, 1), (1, n), (n + 1, 1)]))))
    b = "b" + b_suffix
    return ["verify", A, b, *backend], {A: text, b: b_text}


# Inputs the net has found exiting 3, pinned: besides its seed, Hypothesis
# draws constants mined from the modules loaded in the process, so which
# examples a run tries shifts with the code and with the tests run beside it.
NAN_ENTRY = '{"rows": 1, "cols": 2, "data": ["1/2", NaN]}'
HUGE = 10**400
HUGE_ENTRY = json.dumps({"rows": 1, "cols": 1, "data": [HUGE]})


def _config(**fields) -> dict:
    config = {"trials_per_n": 1, "max_regenerations_per_trial": 3, **fields}
    return {"cfg.json": json.dumps(config)}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(command())
@example((["solve", "A.json", "--backend", "exact"], {"A.json": NAN_ENTRY}))
@example((["oracle", "A.json", "--kind", "min-vector"], {"A.json": NAN_ENTRY}))
@example((["solve", "A.json", "--backend", "pbh"], {"A.json": HUGE_ENTRY}))
@example((["experiment", "cfg.json"], _config(n_values=[HUGE])))
@example((["experiment", "cfg.json"], _config(n_values=[3], eigen_gap_threshold=HUGE)))
def test_no_input_file_is_an_internal_error(cmd):
    argv, files = cmd
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text)
        argv = [str(Path(tmp) / a) if a in files or a == "out" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # numpy's overflow warnings
                code = main(argv)
    assert code in (0, 1, 2), (argv, files, err.getvalue())
    if code == 2:
        assert err.getvalue().startswith("error: "), (argv, files, err.getvalue())

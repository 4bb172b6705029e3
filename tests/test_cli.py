"""CLI front end: verbs, exit codes, atomic output, determinism."""

import json
import math
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from extropy.cli import _json, build_parser, reproduce_figure, run
from extropy.distributions import _FAMILY_PARAMS
from extropy.errors import ExtropyError
from extropy.estimators import SampleSet, empirical_crex
from extropy.measures import MeasureKind, sign_changes


@pytest.fixture
def uniform01(tmp_path):
    path = tmp_path / "uniform01.json"
    path.write_text(json.dumps({"family": "uniform", "params": {"a": 0, "b": 1}}))
    return str(path)


@pytest.fixture
def exp1(tmp_path):
    path = tmp_path / "exp1.json"
    path.write_text(json.dumps({"family": "exponential", "params": {"lambda": 1}}))
    return str(path)


def run_json(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------


def test_measure_uniform_crex_min(uniform01, capsys):
    payload = run_json(
        ["measure", "--dist", uniform01, "--measure", "crex-min", "--n", "2"], capsys
    )
    assert payload["value"] == pytest.approx(-0.1)
    assert payload["method"] == "closed-form"


def test_measure_exponential_crex(exp1, capsys):
    payload = run_json(["measure", "--dist", exp1, "--measure", "crex"], capsys)
    assert payload["value"] == pytest.approx(-0.25)


def test_measure_crex_honours_n(exp1, capsys):
    payload = run_json(["measure", "--dist", exp1, "--measure", "crex", "--n", "2"], capsys)
    assert payload["value"] == pytest.approx(-0.125)
    assert payload["method"] == "closed-form"


def test_measure_with_order_flag(exp1, capsys):
    payload = run_json(
        ["measure", "--dist", exp1, "--measure", "crex", "--order-min", "2"], capsys
    )
    assert payload["value"] == pytest.approx(-1 / 8, abs=1e-9)


def test_measure_dynamic_requires_t(exp1, capsys):
    assert run(["measure", "--dist", exp1, "--measure", "dcrex"]) == 2


def test_conflicting_order_flags(exp1):
    assert (
        run(
            ["measure", "--dist", exp1, "--measure", "crex", "--order-min", "2", "--order-max", "2"]
        )
        == 2
    )


def test_malformed_order_flag(exp1):
    assert run(["measure", "--dist", exp1, "--measure", "crex", "--order", "2-3"]) == 2


@pytest.mark.parametrize("flag", ["--order-min", "--order-max"])
def test_order_flag_zero_is_read(exp1, flag, capsys):
    # an order of 0 is rejected, not ignored in favour of the parent
    assert run(["measure", "--dist", exp1, "--measure", "crex", flag, "0"]) == 1
    assert "sample size must be >= 1, got 0" in _one_line_error(capsys, "error: ")
    other = "--order-max" if flag == "--order-min" else "--order-min"
    assert run(["measure", "--dist", exp1, "--measure", "crex", flag, "0", other, "2"]) == 2
    assert "at most one of" in _one_line_error(capsys, "usage error: ")


# ---------------------------------------------------------------------------
# exit codes and error paths
# ---------------------------------------------------------------------------


def test_domain_error_exits_one(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"family": "pareto", "params": {"lambda": 1, "theta": 0.5}}))
    assert run(["measure", "--dist", str(spec), "--measure", "crex"]) == 1
    assert "error" in capsys.readouterr().err


def test_nan_age_is_rejected(exp1, capsys):
    # an integral over [nan, inf) would otherwise come out empty, as 0: the CLI rejects the flag, the library the kind
    assert run(["measure", "--dist", exp1, "--measure", "dcrex", "--t", "nan", "--order", "2:3"]) == 2
    assert "--t must be finite" in _one_line_error(capsys, "usage error: ")
    with pytest.raises(ExtropyError, match="requires an age t that is a number, got nan"):
        MeasureKind("dcrex", t=math.nan)


def test_unbounded_past_measure_exits_one(exp1, capsys):
    assert run(["measure", "--dist", exp1, "--measure", "cpex"]) == 1


def test_unknown_family_exits_one(tmp_path):
    spec = tmp_path / "odd.json"
    spec.write_text(json.dumps({"family": "cauchy", "params": {}}))
    assert run(["measure", "--dist", str(spec), "--measure", "crex"]) == 1


def test_invalid_json_exits_one(tmp_path, capsys):
    spec = tmp_path / "broken.json"
    spec.write_text("{not json")
    assert run(["measure", "--dist", str(spec), "--measure", "crex"]) == 1


def test_missing_file_exits_one(tmp_path):
    assert run(["measure", "--dist", str(tmp_path / "nope.json"), "--measure", "crex"]) == 1


@pytest.mark.parametrize(
    "case",
    ["output-is-a-directory", "output-under-a-file", "dist-is-a-directory", "samples-is-a-directory", "dist-not-utf8"],
)
def test_unreadable_or_unwritable_file_is_one_line(exp1, tmp_path, case, capsys):
    # each of these used to end in a traceback
    directory, a_file, latin1 = tmp_path / "a-directory", tmp_path / "a-file", tmp_path / "latin1.json"
    directory.mkdir()
    a_file.write_text("1.0\n")
    latin1.write_bytes('{"family": "exponential", "params": {"lambda": 1}} # \xe9'.encode("latin-1"))
    argv = {
        "output-is-a-directory": ["measure", "--dist", exp1, "--measure", "crex", "--output", str(directory)],
        "output-under-a-file": ["measure", "--dist", exp1, "--measure", "crex", "--output", str(a_file / "out.json")],
        "dist-is-a-directory": ["measure", "--dist", str(directory), "--measure", "crex"],
        "samples-is-a-directory": ["estimate", "--samples", str(directory), "--measure", "crex"],
        "dist-not-utf8": ["measure", "--dist", str(latin1), "--measure", "crex"],
    }[case]
    assert run(argv) == 1
    err = _one_line_error(capsys, "error: ")
    if case == "output-is-a-directory":
        # it named the temporary file first: "... '/dir/.extropy-l8hq9p3x' -> '/dir/a-directory'"
        assert str(directory) in err and ".extropy-" not in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-directory", "a-file", "exp1.json", "latin1.json"]
    assert not any(directory.iterdir())


def test_unknown_verb_exits_two(capsys):
    assert run(["frobnicate"]) == 2


def test_unknown_flag_exits_two(exp1, capsys):
    assert run(["measure", "--dist", exp1, "--measure", "crex", "--bogus", "1"]) == 2


def _one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    return err


def test_non_numeric_sample_line_exits_one(tmp_path, capsys):
    samples = tmp_path / "samples.txt"
    samples.write_text("1.0\nabc\n3.0\n")
    assert run(["estimate", "--samples", str(samples), "--measure", "crex"]) == 1
    assert ":2: not a number: 'abc'" in _one_line_error(capsys, "error: ")


def test_non_numeric_spec_param_exits_one(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"family": "exponential", "params": {"lambda": "abc"}}))
    assert run(["measure", "--dist", str(spec), "--measure", "crex"]) == 1
    assert "lambda must be a number" in _one_line_error(capsys, "error: ")


@pytest.mark.parametrize(
    "family,params,message",
    [
        ("uniform", {"a": 0, "b": "inf"}, "uniform param b must be finite"),
        ("exponential", {"lambda": "inf"}, "exponential param lambda must be finite"),
        ("weibull", {"lambda": 1e-300, "theta": 1e-3}, "numeric overflow"),
    ],
    ids=["uniform-b-inf", "exponential-lambda-inf", "weibull-overflow"],
)
def test_non_finite_param_or_overflow_exits_one(tmp_path, capsys, family, params, message):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"family": family, "params": params}))
    assert run(["measure", "--dist", str(spec), "--measure", "crex"]) == 1
    assert message in _one_line_error(capsys, "error: ")


@pytest.mark.parametrize(
    "argv",
    [["measure", "--measure", "crex"], ["curve", "--measure", "dcrex"], ["check", "--suite", "bounds"]],
    ids=["measure", "curve", "check"],
)
def test_overflow_is_one_line_for_every_verb(tmp_path, capsys, argv):
    # the default grid's quantiles overflow for curve and check; no numpy RuntimeWarning on the way
    spec = tmp_path / "weibull.json"
    spec.write_text(json.dumps({"family": "weibull", "params": {"lambda": 1e-300, "theta": 1e-3}}))
    assert run([*argv, "--dist", str(spec)]) == 1
    assert "numeric overflow" in _one_line_error(capsys, "error: ")


def test_non_numeric_tol_env_exits_two(uniform01, capsys, monkeypatch):
    monkeypatch.setenv("EXTROPY_TOL", "abc")
    assert run(["check", "--suite", "bounds", "--dist", uniform01]) == 2
    assert "EXTROPY_TOL" in _one_line_error(capsys, "usage error: ")


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_non_finite_tol_exits_two(uniform01, tol, capsys, monkeypatch):
    # a nan tolerance would fail every margin check and an infinite one pass it
    from extropy import analysis

    monkeypatch.setattr(analysis, "BASE_TOL", analysis.BASE_TOL)  # restore after test
    assert run(["check", "--suite", "inequalities", "--dist", uniform01, f"--tol={tol}"]) == 2
    assert "must be finite" in _one_line_error(capsys, "usage error: ")
    monkeypatch.setenv("EXTROPY_TOL", tol)
    assert run(["check", "--suite", "inequalities", "--dist", uniform01]) == 2
    assert "must be finite" in _one_line_error(capsys, "usage error: ")
    assert analysis.BASE_TOL == 1e-7


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["measure", "--measure", "dcpex", "--t", "inf"], "--t"),
        (["measure", "--measure", "dcrex", "--t=-inf"], "--t"),
        (["curve", "--measure", "dcrex", "--t-min", "0.1", "--t-max", "inf"], "--t-max"),
        (["curve", "--measure", "dcrex", "--t-min", "nan", "--t-max", "2"], "--t-min"),
        (["characterize", "--model", "gpd", "--t-min", "0.1", "--t-max", "inf"], "--t-max"),
        (["estimate", "--measure", "cpex", "--bound", "nan"], "--bound"),
        (["estimate", "--measure", "cpex", "--bound", "inf"], "--bound"),
        (["estimate", "--measure", "dcrex", "--t", "nan"], "--t"),
    ],
    ids=["measure-t-inf", "measure-t-minus-inf", "curve-t-max", "curve-t-min", "characterize-t-max",
         "estimate-bound-nan", "estimate-bound-inf", "estimate-t-nan"],
)
def test_non_finite_float_flag_exits_two(uniform01, tmp_path, argv, flag, capsys):
    # these used to print NaN or -Infinity with exit 0, or a numpy warning and a misleading error
    samples = tmp_path / "samples.txt"
    samples.write_text("1\n2\n3\n")
    source = ["--samples", str(samples)] if argv[0] == "estimate" else ["--dist", uniform01]
    assert run([*argv, *source]) == 2
    assert f"{flag} must be finite" in _one_line_error(capsys, "usage error: ")


def _strict_json(text):
    """text as JSON (RFC 8259): NaN, Infinity and -Infinity are not JSON."""

    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=reject)


def test_json_output_writes_non_finite_values_as_strings(exp1, tmp_path, capsys):
    exp3 = tmp_path / "exp3.json"
    exp3.write_text(json.dumps({"family": "exponential", "params": {"lambda": 3}}))
    # hr-implies-dcrex is Inconclusive here: no point tested, so its worst margin is nan
    assert run(["check", "--suite", "orderings", "--n", "1", "--json", "--dist", exp1, "--dist2", str(exp3)]) == 0
    reports = {r["check_id"]: r for r in _strict_json(capsys.readouterr().out)}
    assert reports["hr-implies-dcrex(n=1)"]["worst_margin"] == "nan"
    assert _strict_json(_json({"v": [math.nan, math.inf, -math.inf, 0.5]})) == {"v": ["nan", "inf", "-inf", 0.5]}


@pytest.mark.parametrize("steps", ["0", "-1"])
@pytest.mark.parametrize(
    "verb",
    [
        ["curve", "--measure", "dcrex"],
        ["curve", "--measure", "dcrex", "--t-min", "0.1", "--t-max", "2.0"],
        ["characterize", "--model", "gpd"],
    ],
    ids=["curve", "curve-t-range", "characterize"],
)
def test_steps_below_one_exits_two(exp1, verb, steps, capsys):
    assert run([*verb, "--dist", exp1, "--steps", steps]) == 2
    assert "--steps must be >= 1" in _one_line_error(capsys, "usage error: ")


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("suite", ["bounds", "orderings", "inequalities", "all"])
def test_check_n_below_one_exits_two(exp1, suite, n, capsys):
    # --suite orderings with --n 0 used to run no check and print an empty line
    assert run(["check", "--suite", suite, "--dist", exp1, "--n", n]) == 2
    assert "--n must be >= 1" in _one_line_error(capsys, "usage error: ")


@pytest.mark.parametrize("suite", ["orderings", "all"])
def test_check_n_past_max_n_exits_two_for_the_chains(exp1, suite, capsys):
    # it used to print 2n Inconclusive chain reports with 0 points and exit 0
    assert run(["check", "--suite", suite, "--dist", exp1, "--n", "61"]) == 2
    assert "--n must be <= 60" in _one_line_error(capsys, "usage error: ")


@pytest.mark.parametrize("suite", ["bounds", "inequalities"])
def test_check_n_past_max_n_is_read_by_the_other_suites(uniform01, suite, capsys):
    assert run(["check", "--suite", suite, "--dist", uniform01, "--n", "61"]) == 0


@pytest.mark.parametrize(
    "family,params,measure,where",
    [
        ("power", {"b": 3, "c": 0.5}, "extropy", "x = 0.0"),  # pdf^2 = 1/(12 x)
        ("weibull", {"lambda": 2, "theta": 0.5}, "extropy", "x = 0.0"),
        ("folded-cramer", {"theta": 1}, "cren", "infinity"),  # -S log S ~ log(x)/x
    ],
    ids=["power", "weibull", "folded-cramer"],
)
def test_divergent_integral_exits_one(tmp_path, capsys, family, params, measure, where):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"family": family, "params": params}))
    assert run(["measure", "--dist", str(spec), "--measure", measure]) == 1
    assert f"diverges at {where}" in _one_line_error(capsys, "error: ")
    assert capsys.readouterr().out == ""


def test_gpd_ratio_past_the_float_range_warns_nothing(tmp_path, capsys):
    # lam x / theta overflows to inf, whose log sf is -inf; no RuntimeWarning on the way
    spec = tmp_path / "gpd.json"
    spec.write_text(json.dumps({"family": "gpd", "params": {"theta": 1e-300, "lambda": 97642}}))
    assert run(["measure", "--dist", str(spec), "--measure", "crex-min", "--n", "2"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("flag", [["--seed", "42"], ["--format", "json"]])
def test_unread_flags_are_gone(exp1, flag, capsys):
    assert run(["measure", "--dist", exp1, "--measure", "crex", *flag]) == 2


def test_error_leaves_no_partial_artifact(exp1, tmp_path, capsys):
    out = tmp_path / "result.json"
    assert run(["measure", "--dist", exp1, "--measure", "cpex", "--output", str(out)]) == 1
    assert not out.exists()
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".extropy-")]


_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e300, -1e300, 1e-300, -1e-300, 0.0, -0.0, -1.0]),
    st.integers(),
)
_VALUES = st.one_of(_NUMBERS, st.sampled_from(["inf", "-inf", "nan", "1e400", "abc", ""]), st.text(max_size=6))


@st.composite
def _specs(draw):
    family = draw(st.one_of(st.sampled_from(sorted(_FAMILY_PARAMS)), st.text(max_size=12)))
    names = _FAMILY_PARAMS.get(family, ("a", "b"))
    values = {name: _VALUES for name in names}
    if "base" in values:
        values["base"] = st.one_of(
            _VALUES, st.builds(lambda v: {"family": "exponential", "params": {"lambda": v}}, _VALUES)
        )
    # optional keys: any subset of the parameters may be missing
    return {"family": family, "params": draw(st.fixed_dictionaries({}, optional=values))}


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=_specs())
def test_any_json_spec_exits_cleanly(spec, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = run(["measure", "--dist", str(path), "--measure", "crex-min", "--n", "2"])
    capsys.readouterr()
    assert code in (0, 1, 2)


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------


def test_curve_csv_output(exp1, capsys):
    code = run(
        ["curve", "--dist", exp1, "--measure", "dcrex", "--t-min", "0.1", "--t-max", "2.0", "--steps", "5"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,value"
    assert len(lines) == 6
    for line in lines[1:]:
        _, value = line.split(",")
        assert float(value) == pytest.approx(-0.25, abs=1e-9)


def test_curve_rejects_static_measure(exp1):
    assert run(["curve", "--dist", exp1, "--measure", "crex"]) == 2


def test_curve_rejects_bad_grid(exp1):
    assert (
        run(["curve", "--dist", exp1, "--measure", "dcrex", "--t-min", "2", "--t-max", "1"]) == 2
    )


@pytest.mark.parametrize("verb", [["curve", "--measure", "dcrex"], ["characterize", "--model", "gpd"]])
def test_grid_wider_than_a_float_is_a_usage_error(exp1, verb, capsys):
    # t_max - t_min is inf: np.linspace would warn and give no grid
    assert run([*verb, "--dist", exp1, "--t-min=-1e308", "--t-max=1e308", "--steps", "3"]) == 2
    assert "must be finite" in _one_line_error(capsys, "usage error: ")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_bounds_json_all_hold(uniform01, capsys):
    payload = run_json(["check", "--suite", "bounds", "--dist", uniform01, "--json"], capsys)
    assert payload and all(r["verdict"] == "Holds" for r in payload)


def test_check_inequalities_with_pair(uniform01, tmp_path, capsys):
    spec2 = tmp_path / "power12.json"
    spec2.write_text(json.dumps({"family": "power", "params": {"b": 1, "c": 2}}))
    payload = run_json(
        ["check", "--suite", "inequalities", "--dist", uniform01, "--dist2", str(spec2), "--json"],
        capsys,
    )
    assert {r["check_id"] for r in payload} >= {"convolution-cpex", "conditioning-cpex"}
    assert all(r["verdict"] == "Holds" for r in payload)


def test_check_all_reports_each_check_once(uniform01, capsys):
    # bounds and inequalities both ran mean-abs-diff on a bounded family
    payload = run_json(["check", "--suite", "all", "--n", "2", "--dist", uniform01, "--json"], capsys)
    check_ids = [r["check_id"] for r in payload]
    assert len(check_ids) == len(set(check_ids)), check_ids
    assert "mean-abs-diff" in check_ids
    for suite in ("bounds", "inequalities"):
        payload = run_json(["check", "--suite", suite, "--dist", uniform01, "--json"], capsys)
        assert "mean-abs-diff" in [r["check_id"] for r in payload], suite


def test_check_text_output(uniform01, capsys):
    code = run(["check", "--suite", "bounds", "--dist", uniform01])
    out = capsys.readouterr().out
    assert code == 0
    assert "Holds" in out and "Fails" not in out


# ---------------------------------------------------------------------------
# characterize
# ---------------------------------------------------------------------------


def test_characterize_gpd_ratio(tmp_path, capsys):
    spec = tmp_path / "gpd.json"
    spec.write_text(json.dumps({"family": "gpd", "params": {"theta": 1, "lambda": 1}}))
    payload = run_json(["characterize", "--dist", str(spec), "--model", "gpd"], capsys)
    assert payload["model"] == "ParetoII"
    assert payload["recovered_params"]["lambda"] == pytest.approx(1.0, rel=1e-6)


def test_characterize_power(uniform01, capsys):
    payload = run_json(["characterize", "--dist", uniform01, "--model", "power"], capsys)
    assert payload["model"] == "PowerBounded"
    assert payload["recovered_params"]["c"] == pytest.approx(1.0, rel=1e-9)


def test_characterize_from_curve_file(tmp_path, capsys):
    spec = tmp_path / "gpd.json"
    spec.write_text(json.dumps({"family": "gpd", "params": {"theta": 1, "lambda": 1}}))
    curve_path = tmp_path / "curve.csv"
    assert (
        run(
            ["curve", "--dist", str(spec), "--measure", "dcrex-min", "--t-min", "0.1",
             "--t-max", "2.0", "--steps", "20", "--output", str(curve_path)]
        )
        == 0
    )
    payload = run_json(
        ["characterize", "--curve", str(curve_path), "--model", "gpd"], capsys
    )
    assert payload["model"] == "ParetoII"
    assert payload["recovered_params"]["theta"] == pytest.approx(1.0, rel=1e-4)


def test_characterize_curve_only_supports_gpd(tmp_path):
    curve_path = tmp_path / "c.csv"
    curve_path.write_text("t,value\n0.1,-0.1\n0.2,-0.2\n0.3,-0.3\n")
    assert run(["characterize", "--curve", str(curve_path), "--model", "power"]) == 2


def test_characterize_curve_header_enforced(tmp_path):
    curve_path = tmp_path / "c.csv"
    curve_path.write_text("x,y\n0.1,-0.1\n")
    assert run(["characterize", "--curve", str(curve_path), "--model", "gpd"]) == 2


@pytest.mark.parametrize("row", ["1,2,3", "1,abc", "0.2,inf", "nan,-0.2"])
def test_characterize_malformed_curve_row_exits_one(tmp_path, row, capsys):
    curve_path = tmp_path / "c.csv"
    curve_path.write_text(f"t,value\n0.1,-0.1\n\n{row}\n0.3,-0.3\n")
    assert run(["characterize", "--curve", str(curve_path), "--model", "gpd"]) == 1
    assert f"{curve_path}:4: " in _one_line_error(capsys, "error: ")


def test_characterize_needs_input():
    assert run(["characterize", "--model", "gpd"]) == 2


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def test_estimate_crex(tmp_path, capsys):
    samples = tmp_path / "samples.txt"
    samples.write_text("# three points\n1\n2\n3\n")
    payload = run_json(["estimate", "--samples", str(samples), "--measure", "crex"], capsys)
    assert payload["value"] == pytest.approx(-7 / 9, abs=1e-9)
    assert payload["m"] == 3
    assert payload["value"] == pytest.approx(empirical_crex(SampleSet.from_values([1, 2, 3])))


def test_estimate_dcrex_requires_t(tmp_path):
    samples = tmp_path / "samples.txt"
    samples.write_text("1\n2\n3\n")
    assert run(["estimate", "--samples", str(samples), "--measure", "dcrex"]) == 2


def test_estimate_with_bound(tmp_path, capsys):
    samples = tmp_path / "samples.txt"
    samples.write_text("1\n2\n3\n")
    payload = run_json(
        ["estimate", "--samples", str(samples), "--measure", "cpex", "--bound", "4"], capsys
    )
    assert payload["value"] == pytest.approx(-5 / 18 - 0.5, abs=1e-9)


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def test_reproduce_writes_full_curve(tmp_path):
    out = tmp_path / "fig21.csv"
    assert run(["reproduce", "--figure", "2.1", "--output", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,value"
    assert len(lines) == 201
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert sign_changes(values) >= 1


def test_reproduce_second_curve_non_monotone(capsys):
    assert run(["reproduce", "--figure", "3.1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 201
    ts = [float(line.split(",")[0]) for line in lines[1:]]
    assert 1.0 < ts[0] and ts[-1] < 2.0
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert sign_changes(values) >= 1


def test_reproduce_unknown_figure():
    assert run(["reproduce", "--figure", "9.9"]) == 2


def test_reproduce_figure_helper_validates():
    from extropy.errors import UsageError

    with pytest.raises(UsageError):
        reproduce_figure("1.0")


def test_output_is_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["reproduce", "--figure", "3.1", "--output", str(a)]) == 0
    assert run(["reproduce", "--figure", "3.1", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_tol_env_override(uniform01, capsys, monkeypatch):
    # a negative tolerance demands a margin of at least 1, as --tol -1 does below
    monkeypatch.setenv("EXTROPY_TOL", "-1")
    payload = run_json(["check", "--suite", "bounds", "--dist", uniform01, "--json"], capsys)
    verdicts = {r["check_id"].split("(")[0]: r["verdict"] for r in payload}
    assert verdicts["crexmin-monotone-n"] == verdicts["cpexmax-bounds"] == "Fails"


def test_tol_reaches_the_margin_checks(uniform01, capsys, monkeypatch):
    # a negative tolerance demands a margin of at least 1, which none of these has
    from extropy import analysis

    monkeypatch.setattr(analysis, "BASE_TOL", analysis.BASE_TOL)  # restore after test
    payload = run_json(["check", "--suite", "bounds", "--dist", uniform01, "--tol", "-1", "--json"], capsys)
    verdicts = {r["check_id"].split("(")[0]: r["verdict"] for r in payload}
    for check_id in ("crexmin-monotone-n", "crexmin-mean-bound", "crexmin-vs-crex",
                     "dcrex-bounds", "dcpex-bounds", "cpexmax-bounds"):
        assert verdicts[check_id] == "Fails", check_id
    from extropy.distributions import Power

    monkeypatch.setattr(analysis, "BASE_TOL", -1.0)
    assert analysis.check_dcpexmax_monotone_t(Power(1, 2), 2, [0.3, 0.5, 0.7]).verdict == "Fails"


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "--measure", "crex"],
        ["curve", "--measure", "dcrex"],
        ["characterize", "--model", "gpd"],
        ["estimate", "--measure", "crex"],
        ["reproduce", "--figure", "2.1"],
    ],
    ids=lambda argv: argv[0],
)
def test_only_check_takes_tol(uniform01, tmp_path, argv, capsys, monkeypatch):
    if argv[0] == "estimate":
        samples = tmp_path / "samples.txt"
        samples.write_text("1\n2\n3\n")
        argv = [*argv, "--samples", str(samples)]
    elif argv[0] != "reproduce":
        argv = [*argv, "--dist", uniform01]
    assert run([*argv, "--tol", "1"]) == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    # nor does any other verb read EXTROPY_TOL: one that is not a number is no usage error there
    monkeypatch.setenv("EXTROPY_TOL", "abc")
    assert run(argv) == 0
    capsys.readouterr()


@pytest.mark.parametrize("override", [["--tol", "-1"], ["--tol=-1", "--json"]])
def test_tol_holds_for_one_run_only(exp1, override, capsys, monkeypatch):
    from extropy import analysis

    argv = ["check", "--suite", "bounds", "--dist", exp1]
    assert run(argv) == 0
    before = capsys.readouterr().out
    assert "crexmin-monotone-n: Holds" in before
    assert run([*argv, *override]) == 0
    assert "Fails" in capsys.readouterr().out
    assert analysis.BASE_TOL == 1e-7
    monkeypatch.setenv("EXTROPY_TOL", "-1")
    assert run(argv) == 0
    capsys.readouterr()
    monkeypatch.delenv("EXTROPY_TOL")
    assert run(argv) == 0
    assert capsys.readouterr().out == before


def test_parser_exposes_all_verbs():
    parser = build_parser()
    text = parser.format_help()
    for verb in ("measure", "curve", "check", "characterize", "estimate", "reproduce"):
        assert verb in text

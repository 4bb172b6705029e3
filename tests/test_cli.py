"""CLI front end: verbs, exit codes, atomic output, determinism."""

import json
import math
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from extropy.cli import build_parser, reproduce_figure, run
from extropy.distributions import _FAMILY_PARAMS
from extropy.estimators import SampleSet, empirical_crex
from extropy.measures import sign_changes


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


# ---------------------------------------------------------------------------
# exit codes and error paths
# ---------------------------------------------------------------------------


def test_domain_error_exits_one(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"family": "pareto", "params": {"lambda": 1, "theta": 0.5}}))
    assert run(["measure", "--dist", str(spec), "--measure", "crex"]) == 1
    assert "error" in capsys.readouterr().err


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


def test_non_numeric_tol_env_exits_two(uniform01, capsys, monkeypatch):
    monkeypatch.setenv("EXTROPY_TOL", "abc")
    assert run(["check", "--suite", "bounds", "--dist", uniform01]) == 2
    assert "EXTROPY_TOL" in _one_line_error(capsys, "usage error: ")


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
    from extropy import analysis

    monkeypatch.setattr(analysis, "BASE_TOL", analysis.BASE_TOL)  # restore after test
    monkeypatch.setenv("EXTROPY_TOL", "1e-6")
    assert run(["check", "--suite", "bounds", "--dist", uniform01]) == 0
    assert analysis.BASE_TOL == 1e-6
    capsys.readouterr()


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

    assert analysis.check_dcpexmax_monotone_t(Power(1, 2), 2, [0.3, 0.5, 0.7]).verdict == "Fails"


def test_parser_exposes_all_verbs():
    parser = build_parser()
    text = parser.format_help()
    for verb in ("measure", "curve", "check", "characterize", "estimate", "reproduce"):
        assert verb in text

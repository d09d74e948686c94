"""Command-line front-end: subcommand dispatch, scenario files,
deterministic reports, and exit-code contract."""

import argparse
import json

import pytest

from pncalc.boundedness import MAX_SAMPLES
from pncalc.cli import build_parser, main
from pncalc.distfn import MAX_GRID, from_spec
from pncalc.pnspace import MAX_DIM
from pncalc.topology import MAX_HORIZON


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ------------------------------------------------------------ subcommands

def test_convolve_steps(capsys):
    doc = run_json(capsys, "convolve", "--tnorm", "prod", "--lhs", "step:1", "--rhs", "step:2")
    assert doc["result"]["result"]["breakpoints"] == [3.0]
    assert doc["result"]["result"]["levels"] == [0.0, 1.0]
    assert doc["config"]["kind"] == "sup"  # defaults expanded into the report


def test_convolve_inf_kind(capsys):
    doc = run_json(capsys, "convolve", "--kind", "inf", "--tnorm", "lukasiewicz",
                   "--lhs", "step:1", "--rhs", "step:2")
    assert doc["result"]["result"]["breakpoints"] == [3.0]


def test_convolve_sampled_result_summarized(capsys):
    doc = run_json(capsys, "convolve", "--tnorm", "prod", "--lhs", "ratio:1", "--rhs", "step:0.5",
                   "--grid", "128", "--xmax", "16")
    r = doc["result"]["result"]
    assert r["family"] == "grid"
    assert r["n"] == 128


def test_grid_file_operand(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0.5 0.2\n1.0 0.6\n2.0 1.0\n")
    doc = run_json(capsys, "convolve", "--kind", "max", "--lhs", f"grid:@{path}", "--rhs", "step:0")
    # the minimum with a sampled operand is sampled too
    assert doc["result"]["result"]["family"] == "grid"


def test_axioms_subcommand(capsys):
    doc = run_json(capsys, "axioms", "--space", "E12", "--tau", "sup:prod",
                   "--taustar", "inf:prod", "--tol", "1e-9")
    assert doc["result"]["all_hold"] is True
    assert doc["result"]["axioms"]["N3"] is True


def test_axioms_on_plateau_norms_make_no_loop_convolution(capsys, monkeypatch):
    # the inf:prod battery runs on rows: no single-pair convolution at all
    from pncalc import triangle

    calls = []
    for name in ("_conv_loop", "_conv_array"):
        kernel = getattr(triangle, name)
        monkeypatch.setattr(triangle, name, lambda *a, kernel=kernel: calls.append(a) or kernel(*a))
    doc = run_json(capsys, "axioms", "--space", "E12", "--tau", "sup:prod", "--taustar", "inf:prod")
    assert doc["result"]["all_hold"] is True
    assert calls == []


def test_serstnev_subcommand_reports_witness(capsys):
    doc = run_json(capsys, "serstnev", "--space", "E9:a=1")
    assert doc["result"]["holds"] is False
    assert "witness" in doc["result"]


def test_classify_subcommand(capsys):
    doc = run_json(capsys, "classify", "--space", "E9:a=1", "--set", "all_reals")
    assert doc["result"]["class"] == "certainly_bounded"
    assert doc["result"]["x0"] == 1.0


def test_radius_subcommand(capsys):
    doc = run_json(capsys, "radius", "--space", "E25",
                   "--set", "interval:1.4142136,3.1622777")
    assert doc["result"]["radius"]["family"] == "ratio"
    assert doc["result"]["radius"]["beta"] == pytest.approx(1.77827941, abs=1e-6)


def test_converge_subcommand_divergence_verdict(capsys):
    doc = run_json(capsys, "converge", "--space", "E21", "--seq", "harmonic",
                   "--target", "0", "--lambdas", "0.25", "--horizon", "64")
    assert doc["result"]["verdict"] == "diverges"
    assert doc["result"]["per_lambda"][0]["N"] is None


def test_cauchy_subcommand(capsys):
    doc = run_json(capsys, "cauchy", "--space", "E9:a=1", "--seq", "geometric",
                   "--lambdas", "0.25")
    assert doc["result"]["verdict"] == "not_cauchy"


def test_cauchy_past_the_l2_overflow(capsys):
    # terms pass 2**512, whose square overflows a float
    doc = run_json(capsys, "cauchy", "--space", "E9:a=1", "--seq", "geometric",
                   "--lambdas", "0.25", "--horizon", "512")
    assert doc["result"]["verdict"] == "not_cauchy"


@pytest.mark.parametrize("task", ["cauchy", "converge"])
def test_geometric_term_past_the_float_range_is_a_usage_error(capsys, task):
    # 2^1024 is the first geometric term a float cannot hold
    code, out, err = run_cli(capsys, task, "--space", "E9:a=1", "--seq", "geometric",
                             "--lambdas", "0.25", "--horizon", "1100")
    assert code == 2
    assert out == ""
    assert "geometric term 1024: 2^1024 exceeds the float range" in err


def test_one_term_sequence_is_probed_through_the_horizon(capsys):
    # the last term repeats, so one term is the constant sequence
    once = run_json(capsys, "cauchy", "--space", "E9:a=1", "--seq", "explicit:1", "--lambdas", "0.25")
    twice = run_json(capsys, "cauchy", "--space", "E9:a=1", "--seq", "explicit:1;1", "--lambdas", "0.25")
    assert once["result"] == twice["result"]
    assert once["result"]["verdict"] == "cauchy"
    assert once["result"]["horizon"] == 64
    assert once["result"]["per_lambda"] == [{"N": 1, "lambda": 0.25, "worst_margin": 0.25}]


@pytest.mark.parametrize("task", ["radius", "classify", "compact"])
def test_sequence_set_takes_the_space_dimension(capsys, task):
    doc = run_json(capsys, task, "--space", "E19:l2,dim=2", "--set", "seq:harmonic")
    assert doc["result"]["set"] == "image(harmonic)"


def test_classify_unbounded_interval(capsys):
    doc = run_json(capsys, "classify", "--space", "E9:a=1", "--set", "interval:0,inf")
    assert doc["result"]["class"] == "certainly_bounded"
    assert doc["result"]["x0"] == 1.0


def test_equiv_subcommand(capsys):
    doc = run_json(capsys, "equiv", "--a", "E19:l2", "--b", "E19b:a=1,l2")
    assert doc["result"]["equivalent_on_battery"] is True


def test_equiv_decides_past_the_battery_horizon(capsys):
    # E12's harmonic tail settles at N = 381, past the default horizon
    doc = run_json(capsys, "equiv", "--a", "E9:a=1", "--b", "E12")
    assert doc["result"]["equivalent"] is True
    assert doc["result"]["reason"] == "E9:a=1 is Euclidean-class and E12 is Euclidean-class"
    assert doc["result"]["equivalent_on_battery"] is False


def test_find_c_subcommand(capsys):
    doc = run_json(capsys, "find_c", "--space", "E19:l2,dim=2", "--basis", "1,0;0,1",
                   "--field", "E19")
    assert doc["result"]["c"] == pytest.approx(0.707107, abs=0.01)


def test_compact_subcommand(capsys):
    doc = run_json(capsys, "compact", "--space", "E9:a=1", "--set", "seq:geometric")
    assert doc["result"]["refuted"] is True


@pytest.mark.parametrize("spec, compact", [
    ("finite:1;2;3", True),
    ("finite:5", True),
    ("all_reals", False),
    ("seq:explicit:1;2", True),
    ("seq:harmonic", False),
])
def test_compact_decides_every_set_kind(capsys, spec, compact):
    doc = run_json(capsys, "compact", "--space", "E9:a=1", "--set", spec)
    assert doc["result"]["compact"] is compact
    assert doc["result"]["refuted"] is not compact
    assert doc["result"]["reason"].startswith("E9:a=1 is Euclidean-class and ")
    assert sorted(doc["config"]) == ["seed", "set", "space"]


def test_compact_on_an_interval_in_the_plane_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "compact", "--space", "E19:l2,dim=2", "--set", "interval:-1,1")
    assert code == 2
    assert out == ""
    assert "interval sets are one-dimensional" in err


@pytest.mark.parametrize("argv", [
    ("axioms", "--space", "E25", "--samples", "default"),
    ("compact", "--space", "E9:a=1", "--set", "seq:geometric", "--lambda", "0.25"),
    ("compact", "--space", "E9:a=1", "--set", "seq:geometric", "--horizon", "64"),
    ("compact", "--space", "E9:a=1", "--set", "seq:geometric", "--samples", "200"),
], ids=["axioms-samples", "compact-lambda", "compact-horizon", "compact-samples"])
def test_unread_options_are_gone(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_lgprobe_subcommand(capsys):
    doc = run_json(capsys, "lgprobe", "--space", "E12")
    assert doc["result"]["has_lg_property"] is True


# ------------------------------------------------------------ scenarios

def test_scenario_file_runs_task(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"task": "convolve", "tnorm": "prod",
                                "lhs": "step:1", "rhs": "step:2"}))
    doc = run_json(capsys, "--scenario", str(path))
    assert doc["result"]["result"]["breakpoints"] == [3.0]


def test_scenario_unknown_key_rejected(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"task": "convolve", "lhs": "step:1", "rhs": "step:2",
                                "mystery": 1}))
    code, out, err = run_cli(capsys, "--scenario", str(path))
    assert code == 2
    assert "mystery" in err


def test_scenario_malformed_json_gives_line_number(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text('{"task": "convolve",\n "lhs": oops}')
    code, out, err = run_cli(capsys, "--scenario", str(path))
    assert code == 2
    assert ":2:" in err  # line number of the parse failure


def test_scenario_unknown_task(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"task": "frobnicate"}))
    code, _, err = run_cli(capsys, "--scenario", str(path))
    assert code == 2
    assert "frobnicate" in err


SCENARIOS = [
    ({"task": "convolve", "tnorm": "min", "lhs": "step:0.5", "rhs": "step:0.5"},
     lambda r: r["result"]["breakpoints"] == [1.0]),
    ({"task": "axioms", "space": "E21"},
     lambda r: r["all_hold"] is True),
    ({"task": "serstnev", "space": "E19"},
     lambda r: r["holds"] is True),
    ({"task": "classify", "space": "E12", "set": "finite:1"},
     lambda r: r["class"] == "perhaps_unbounded"),
    ({"task": "radius", "space": "E19", "set": "finite:0.5;1;2"},
     lambda r: r["radius"]["breakpoints"] == [2.0]),
    ({"task": "converge", "space": "E19", "seq": "harmonic", "target": "0",
      "lambdas": "0.25"},
     lambda r: r["per_lambda"][0]["N"] == 5),
    ({"task": "cauchy", "space": "E19", "seq": "harmonic", "lambdas": "0.25"},
     lambda r: r["verdict"] == "cauchy"),
    ({"task": "equiv", "a": "E19", "b": "E19b:a=1"},
     lambda r: r["equivalent_on_battery"] is True),
    ({"task": "find_c", "space": "E19:linf,dim=2", "basis": "1,0;0,1"},
     lambda r: abs(r["c"] - 0.5) < 0.01),
    ({"task": "compact", "space": "E27:a=1", "set": "finite:-1;0;1"},
     lambda r: r["compact"] is True and r["refuted"] is False),
    ({"task": "lgprobe", "space": "E9:a=1"},
     lambda r: r["has_lg_property"] is False),
]


@pytest.mark.parametrize("doc,check", SCENARIOS, ids=[s[0]["task"] for s in SCENARIOS])
def test_every_task_runs_from_a_scenario(capsys, tmp_path, doc, check):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    report = run_json(capsys, "--scenario", str(path))
    assert report["task"] == doc["task"]
    assert check(report["result"]), report["result"]


@pytest.mark.parametrize("doc,named", [
    ({"task": "classify", "space": 5, "set": "all_reals"}, "'space'"),
    ({"task": "cauchy", "space": "E19", "seq": "harmonic", "lambdas": [{}]}, "'lambdas'"),
    ({"task": "classify", "space": "E19", "set": "all_reals", "samples": True}, "'samples'"),
    ({"task": ["classify"]}, "['classify']"),
], ids=["space", "lambdas", "samples", "task"])
def test_scenario_value_of_wrong_type_rejected(capsys, tmp_path, doc, named):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "--scenario", str(path))
    assert code == 2
    assert named in err
    assert out == ""


def test_scenario_accepts_numbers_and_lists_where_flags_parse_them(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"task": "converge", "space": "E19", "seq": "harmonic",
                                "target": 0, "lambdas": [0.25], "horizon": "64"}))
    doc = run_json(capsys, "--scenario", str(path))
    assert doc["result"]["per_lambda"][0]["N"] == 5


@pytest.mark.parametrize("argv", [
    ("converge", "--space", "E19", "--seq", "harmonic"),
    ("cauchy", "--space", "E19", "--seq", "harmonic"),
    ("equiv", "--a", "E19", "--b", "E19b:a=1"),
], ids=lambda argv: argv[0])
def test_empty_horizon_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--horizon", "0")
    assert code == 2
    assert out == ""
    assert "horizon" in err


def test_compact_on_an_unbounded_interval_is_decided(capsys):
    doc = run_json(capsys, "compact", "--space", "E9:a=1", "--set", "interval:0,inf")
    assert doc["result"]["compact"] is False
    assert doc["result"]["reason"] == (
        "E9:a=1 is Euclidean-class and interval_rationals[0,inf] is unbounded in the base norm"
    )


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the size check")


@pytest.mark.parametrize("argv, target, message", [
    (("cauchy", "--space", "E19", "--seq", "harmonic", "--horizon", str(MAX_HORIZON + 1)),
     "pncalc.pnspace.PNSpace.norm_of", f"horizon must be <= {MAX_HORIZON}, got {MAX_HORIZON + 1}"),
    (("convolve", "--lhs", "ratio:1", "--rhs", "ratio:2", "--grid", str(MAX_GRID + 1)),
     "pncalc.cli.from_spec", f"grid size must lie in [1, {MAX_GRID}], got {MAX_GRID + 1}"),
    (("classify", "--space", "E25", "--set", "interval:1,2", "--samples", str(MAX_SAMPLES + 1)),
     "pncalc.cli.classify_set", f"interval samples must lie in [1, {MAX_SAMPLES}], got {MAX_SAMPLES + 1}"),
    (("axioms", "--space", f"E19:l2,dim={MAX_DIM + 1}"),
     "pncalc.pnspace.default_samples", f"dimension must be <= {MAX_DIM}, got {MAX_DIM + 1}"),
] + [
    (("convolve", "--lhs", "ratio:1", "--rhs", "ratio:2", "--xmax", xmax),
     "pncalc.cli.from_spec", f"grid x_max must be positive and finite, got {float(xmax)!r}")
    for xmax in ("inf", "nan", "0", "-1")
], ids=["cauchy-horizon", "grid", "samples", "dim", "xmax-inf", "xmax-nan", "xmax-0", "xmax-negative"])
def test_size_above_its_bound_is_a_usage_error(capsys, monkeypatch, argv, target, message):
    monkeypatch.setattr(target, _no_work)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_grid_file_above_its_bound_is_a_usage_error(capsys, monkeypatch, tmp_path):
    path = tmp_path / "g.txt"
    lines = [f"{k + 1} 0.5\n" for k in range(MAX_GRID)]
    path.write_text("".join(lines))
    assert len(from_spec(f"grid:@{path}").xs) == MAX_GRID
    # reading stops at the sample past the bound, before the malformed line
    path.write_text("".join(lines) + f"{MAX_GRID + 1} 0.5\nnot a sample\n")
    monkeypatch.setattr("pncalc.cli.max_tf", _no_work)
    code, out, err = run_cli(capsys, "convolve", "--kind", "max", "--lhs", f"grid:@{path}", "--rhs", "step:0")
    assert code == 2
    assert out == ""
    assert f"has more than {MAX_GRID} samples" in err


def test_malformed_grid_row_names_the_file_and_line(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# x value\n0.5 0.2\n1.0 0.6 0.7\n")
    code, out, err = run_cli(capsys, "convolve", "--kind", "max", "--lhs", f"grid:@{path}", "--rhs", "step:0")
    assert code == 2
    assert out == ""
    assert f"grid file {str(path)!r} line 3: expected two numbers, x and value, got '1.0 0.6 0.7'" in err


@pytest.mark.parametrize("spec", ["interval:1", "interval:1,2,3", "interval:a,b"])
def test_malformed_interval_names_the_spec(capsys, spec):
    code, out, err = run_cli(capsys, "classify", "--space", "E25", "--set", spec)
    assert code == 2
    assert out == ""
    assert f"malformed set spec {spec!r}: an interval takes two bounds, lo,hi" in err


def test_ratio_near_the_largest_float_prints_no_warning(capsys):
    # the probe ladder and the values of ratio:1e308 stay finite
    code, out, err = run_cli(capsys, "convolve", "--kind", "max", "--lhs", "ratio:1e308", "--rhs", "step:1")
    assert code == 0
    assert err == ""


@pytest.mark.parametrize("argv, message", [
    (("classify", "--space", "E25", "--set", "interval:1,2", "--tol", "nan"), "tolerance must be finite and in [0, 1), got nan"),
    (("axioms", "--space", "E12", "--tol", "nan"), "tolerance must be finite and in [0, 1), got nan"),
    (("axioms", "--space", "E12", "--tol", "-1"), "tolerance must be finite and in [0, 1), got -1.0"),
    (("axioms", "--space", "E12", "--tol", "1"), "tolerance must be finite and in [0, 1), got 1.0"),
    (("serstnev", "--space", "E9:a=1", "--tol", "nan"), "tolerance must be finite and in [0, 1), got nan"),
    (("axioms", "--space", "E9:a=inf"), "parameter a must be positive and finite"),
    (("axioms", "--space", "E27:a=inf"), "parameter a must be positive and finite"),
], ids=["classify-tol-nan", "axioms-tol-nan", "axioms-tol-negative", "axioms-tol-one", "serstnev-tol-nan", "E9-a-inf", "E27-a-inf"])
def test_verdict_parameter_out_of_range_is_a_usage_error(capsys, monkeypatch, argv, message):
    monkeypatch.setattr("pncalc.pnspace.default_samples", _no_work)
    monkeypatch.setattr("pncalc.boundedness.prob_radius", _no_work)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


# ------------------------------------------------------------ determinism

def test_reports_are_byte_stable(capsys, tmp_path):
    s = tmp_path / "s.json"
    s.write_text(json.dumps({"task": "classify", "space": "E9:a=1", "set": "all_reals"}))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["--scenario", str(s), "--out", str(out1)]) == 0
    assert main(["--scenario", str(s), "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_report_embeds_resolved_config(capsys):
    doc = run_json(capsys, "classify", "--space", "E9:a=1", "--set", "all_reals")
    cfg = doc["config"]
    assert cfg["tol"] == 1e-9  # default expanded
    assert cfg["samples"] == 200
    assert cfg["seed"] == 7


def test_env_seed_respected(capsys, monkeypatch):
    monkeypatch.setenv("PNCALC_SEED", "123")
    doc = run_json(capsys, "classify", "--space", "E9:a=1", "--set", "all_reals")
    assert doc["config"]["seed"] == 123


def test_the_reused_parser_is_stateless(capsys, monkeypatch, tmp_path):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"task": "radius", "space": "E9:a=1", "set": "all_reals"}))
    report = tmp_path / "r.json"
    runs = [
        ("convolve", "--bogus"),  # argparse error
        ("axioms",),  # UsageError: --space is missing
        ("--scenario", str(scenario)),
        ("convolve", "--lhs", "step:1", "--rhs", "step:2", "--out", str(report)),
        ("radius", "--space", "E9:a=1", "--set", "all_reals"),
        ("suite",),  # UsageError: no suite name
        ("axioms", "--space", "E12", "--tau", "sup:prod"),
        ("lgprobe", "--space", "E12"),
        ("classify", "--space", "E9:a=1", "--set", "all_reals", "--samples", "5"),
    ]

    def run(argv):
        report.unlink(missing_ok=True)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        # --out is read from this run's flags only
        assert report.exists() == ("--out" in argv)
        return code, out, err

    first = [run(argv) for argv in runs]
    assert [code for code, _, _ in first] == [2, 2, 0, 0, 0, 2, 0, 0, 0]
    constructed = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv, (code, out, err) in zip(runs, first):
        again = run(argv)
        assert again[0] == code
        if code == 0:
            assert again == (code, out, err), argv
    assert constructed == []  # main built no further parser
    assert build_parser() is not build_parser()
    assert len(constructed) == 2 * 13  # the root parser and its 12 subcommands


# ------------------------------------------------------------ errors & suites

def test_missing_required_option(capsys):
    code, _, err = run_cli(capsys, "classify", "--space", "E9:a=1")
    assert code == 2
    assert "set" in err


def test_bad_distfn_spec(capsys):
    code, _, err = run_cli(capsys, "convolve", "--lhs", "step:", "--rhs", "step:1")
    assert code == 2


def test_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "suite", "nonesuch")
    assert code == 2
    assert "nonesuch" in err


def test_laws_suite_clean(capsys):
    doc = run_json(capsys, "suite", "laws", "--seed", "7")
    assert doc["result"]["violations"] == 0
    assert {t["name"] for t in doc["result"]["tnorms"]} == {"min", "prod", "lukasiewicz", "t2"}


def test_suite_name_is_positional_only(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["suite", "--name", "laws"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --name" in capsys.readouterr().err
    # the scenario file keeps its "name" key and prints the same report
    scenario = tmp_path / "laws.json"
    scenario.write_text(json.dumps({"task": "suite", "name": "laws"}), encoding="utf-8")
    assert run_cli(capsys, "--scenario", str(scenario)) == run_cli(capsys, "suite", "laws")


def _reject_non_finite(name):
    raise ValueError(f"non-finite number {name} in the report")


def test_paper_examples_stdout_is_strict_json(capsys):
    code, out, err = run_cli(capsys, "suite", "paper-examples")
    assert code == 0, err
    doc = json.loads(out, parse_constant=_reject_non_finite)
    assert doc["result"]["passed"] == doc["result"]["total"] == 12
    assert "12/12 criteria passed" in err


# the README's command lines, and a report whose margin is infinite
STRICT_JSON_COMMANDS = [
    "convolve --kind sup --tnorm prod --lhs step:1 --rhs step:2",
    "axioms --space E12 --tau sup:prod --taustar inf:prod --tol 1e-9",
    "serstnev --space E9:a=1",
    "classify --space E25 --set interval:1.4142136,3.1622777 --samples 200",
    "radius --space E9:a=1 --set all_reals",
    "converge --space E21 --seq harmonic --target 0 --lambdas 0.5,0.25 --horizon 64",
    "cauchy --space E9:a=1 --seq geometric --lambdas 0.25",
    "equiv --a E19:l2 --b E19b:a=1,l2 --battery default",
    "find_c --space E19:l2,dim=2 --basis 1,0;0,1 --field E19",
    "compact --space E9:a=1 --set seq:geometric",
    "lgprobe --space E12",
    "cauchy --space E9:a=1 --seq harmonic --lambdas 0.25 --horizon 1",
]


@pytest.mark.parametrize("command", STRICT_JSON_COMMANDS,
                         ids=[c.split()[0] for c in STRICT_JSON_COMMANDS[:-1]] + ["cauchy-one-term"])
def test_stdout_is_strict_json(capsys, command):
    code, out, err = run_cli(capsys, *command.split())
    assert code == 0, err
    json.loads(out, parse_constant=_reject_non_finite)


def test_infinite_margin_is_written_as_null(capsys):
    # one term leaves no pair, so the worst margin is the empty minimum
    doc = run_json(capsys, "cauchy", "--space", "E9:a=1", "--seq", "harmonic", "--lambdas", "0.25",
                   "--horizon", "1")
    assert doc["result"]["per_lambda"][0]["worst_margin"] is None

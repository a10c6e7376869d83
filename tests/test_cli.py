"""CLI surface: config parsing and validation, exit codes, report formats,
single-operator evaluation."""

import csv
import json
import math
import re
from pathlib import Path

import pytest

import subrep.quadrature as quadrature
from subrep import cli, operators, verify
from subrep.cli import main

# Independent fine-grid oracle for D^0.5(smooth_bump) at the center, n=2:
# radial reduction of the defining integral, 40-digit quadrature.
FRAC_ORACLE = 6.40447956460511


def write_config(tmp_path, body, name="run.ini"):
    p = tmp_path / name
    p.write_text(body)
    return str(p)


def test_list_checks(capsys):
    assert main(["list-checks"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 13
    assert any(line.startswith("bbm_limit") for line in out)
    assert any("Theorem 2.1" in line for line in out)


def test_run_empty_check_list_exits_zero(tmp_path, capsys):
    cfg = write_config(
        tmp_path, f"[run]\nchecks =\noutput_dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", cfg]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary == {"checks": [], "all_pass": True}


def test_run_passing_check_exits_zero(tmp_path):
    cfg = write_config(
        tmp_path,
        f"[run]\nchecks = bbm_limit\noutput_dir = {tmp_path / 'out'}\n"
        "[params]\nbbm_octaves = 15\n",
    )
    assert main(["run", cfg]) == 0
    report = json.loads((tmp_path / "out" / "bbm_limit.json").read_text())
    assert report["pass"] is True
    assert report["paper_anchor"] == "Lemma 2.4, Remark"
    for key in ("check_id", "config_digest", "samples", "empirical_constant",
                "theoretical_constant", "error_budget"):
        assert key in report


def test_run_failing_check_exits_one(tmp_path, capsys):
    # Ten octaves leave the BBM gap an order of magnitude above threshold.
    cfg = write_config(
        tmp_path,
        f"[run]\nchecks = bbm_limit\noutput_dir = {tmp_path / 'out'}\n",
    )
    assert main(["run", cfg]) == 1
    assert "FAIL" in capsys.readouterr().out
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["all_pass"] is False


def test_config_error_names_offending_field(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "[run]\nchecks = bbm_limit\n[params]\nalpha = 1.5\n"
    )
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "[params] alpha" in err
    assert "1.5" in err


def test_config_error_unknown_check(tmp_path, capsys):
    cfg = write_config(tmp_path, "[run]\nchecks = no_such_check\n")
    assert main(["run", cfg]) == 2
    assert "no_such_check" in capsys.readouterr().err


def test_unwritable_output_dir_exits_two_before_any_check(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "taken"
    blocker.write_text("a regular file\n")
    cfg = write_config(tmp_path, f"[run]\nchecks = lower_ahlfors\noutput_dir = {blocker}\n")
    monkeypatch.setattr(cli, "_run_one", lambda rc, cid: pytest.fail(f"{cid} ran"))
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write reports: ")
    assert str(blocker) in err
    assert blocker.read_text() == "a regular file\n"


@pytest.mark.parametrize(
    "n, check, span",
    [(1, "bbm_limit", "2 and up"), (1, "annuli_absorption", "2-3"), (4, "annuli_absorption", "2-3")],
)
def test_config_error_dimension_a_check_cannot_run_in(tmp_path, capsys, n, check, span):
    cfg = write_config(tmp_path, f"[run]\ndimension = {n}\nchecks = lower_ahlfors, {check}\n")
    assert main(["run", cfg]) == 2
    assert f"[run] dimension = {n}: check {check} runs in dimensions {span}" in capsys.readouterr().err


def test_dimension_check_keeps_working_configs(tmp_path):
    cfg = write_config(
        tmp_path, f"[run]\ndimension = 5\nchecks = lower_ahlfors\noutput_dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", cfg]) == 0


def test_report_write_failure_exits_two(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "lower_ahlfors.json").mkdir(parents=True)  # a directory where the report goes
    cfg = write_config(tmp_path, f"[run]\nchecks = lower_ahlfors\noutput_dir = {out}\n")
    assert main(["run", cfg]) == 2
    assert capsys.readouterr().err.startswith("cannot write reports: ")


@pytest.mark.parametrize(
    "key, value",
    [("outer_cells", "0"), ("outer_cells", "100"), ("cells", "0"), ("bbm_octaves", "0"),
     ("K", "2.5"), ("cube_side", "-1"), ("separation", "0"),
     # read by checks that this config does not run, but still numbers
     ("p", "nan"), ("d", "inf"), ("a1", "nan"), ("a2", "-inf")],
)
def test_config_error_bad_params_value(tmp_path, capsys, key, value):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, f"[run]\nchecks = lower_ahlfors\noutput_dir = {out}\n[params]\n{key} = {value}\n"
    )
    assert main(["run", cfg]) == 2
    assert f"[params] {key}" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_config_error_bad_weight_beta(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "[run]\ndimension = 2\nchecks = bbm_limit\n[weight]\nkind = radial_power\nbeta = 2.5\n",
    )
    assert main(["run", cfg]) == 2
    assert "[weight] beta" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, field",
    [("function", "amplitude = -1"), ("omega", "k = 0"), ("quadrature", "rel_tol = -1"),
     ("quadrature", "points_per_dim = inf"), ("quadrature", "annuli_per_decade = inf"),
     ("quadrature", "rel_tol = nan"), ("weight", "value = nan"), ("function", "scale = nan"),
     ("function", "center = nan, 0"),
     # counts are whole numbers, never truncated
     ("quadrature", "points_per_dim = 2.5"), ("quadrature", "annuli_per_decade = 4.5"),
     ("omega", "k = 1.9"),
     # a zero sign profile is no symbol
     ("omega", "profile = sign_profile\namplitude = 0")],
)
def test_config_rejected_by_a_constructor_exits_two(tmp_path, capsys, section, field):
    cfg = write_config(tmp_path, f"[run]\nchecks = bbm_limit\n[{section}]\n{field}\n")
    assert main(["run", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_json_reports_byte_identical(tmp_path):
    body = (
        "[run]\ndimension = 1\nchecks = beta_identity, lower_ahlfors\n"
        "output_dir = {out}\nformats = json\n"
    )
    cfg1 = write_config(tmp_path, body.format(out=tmp_path / "out1"), "a.ini")
    cfg2 = write_config(tmp_path, body.format(out=tmp_path / "out2"), "b.ini")
    assert main(["run", cfg1]) == 0
    assert main(["run", cfg2]) == 0
    for name in ("beta_identity.json", "lower_ahlfors.json", "summary.json"):
        b1 = (tmp_path / "out1" / name).read_bytes()
        b2 = (tmp_path / "out2" / name).read_bytes()
        assert b1 == b2


def test_csv_json_roundtrip(tmp_path):
    cfg = write_config(
        tmp_path,
        f"[run]\nchecks = lower_ahlfors\noutput_dir = {tmp_path / 'out'}\n"
        "formats = json, csv\n",
    )
    assert main(["run", cfg]) == 0
    report = json.loads((tmp_path / "out" / "lower_ahlfors.json").read_text())
    with open(tmp_path / "out" / "lower_ahlfors.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(report["samples"])
    for row, sample in zip(rows, report["samples"]):
        assert float(row["lhs"]) == sample["lhs"]
        assert float(row["rhs"]) == sample["rhs"]
        assert float(row["ratio"]) == sample["ratio"]
        assert row["config_digest"] == report["config_digest"]
        assert [float(tok) for tok in row["point"].split("|")] == sample["point"]


def test_thread_count_does_not_change_reports(tmp_path):
    body = (
        "[run]\ndimension = 2\nchecks = beta_identity, bbm_limit, lower_ahlfors\n"
        "output_dir = {out}\nformats = json\n[params]\nbbm_octaves = 15\n"
    )
    cfg1 = write_config(tmp_path, body.format(out=tmp_path / "t1"), "t1.ini")
    cfg2 = write_config(tmp_path, body.format(out=tmp_path / "t4"), "t4.ini")
    assert main(["run", cfg1, "--threads", "1"]) == 0
    assert main(["run", cfg2, "--threads", "4"]) == 0
    assert (tmp_path / "t1" / "summary.json").read_bytes() == (
        tmp_path / "t4" / "summary.json"
    ).read_bytes()


def _printed_value(capsys):
    out = capsys.readouterr().out.strip()
    return float(out.split()[0])


def test_eval_riesz_zero_function(capsys):
    assert main(["eval", "riesz", "--amplitude", "0"]) == 0
    assert _printed_value(capsys) == 0.0


def test_eval_tw_matches_riesz_up_to_ball_volume(capsys):
    assert main(["eval", "tw", "--x", "0.2,0.1"]) == 0
    tw = _printed_value(capsys)
    assert main(["eval", "riesz", "--x", "0.2,0.1"]) == 0
    riesz = _printed_value(capsys)
    assert tw == pytest.approx(riesz / math.pi, rel=1e-3)


def test_eval_frac_derivative_matches_frozen_oracle(capsys):
    assert main(["eval", "frac_derivative", "--alpha", "0.5"]) == 0
    assert _printed_value(capsys) == pytest.approx(FRAC_ORACLE, rel=1e-3)


@pytest.mark.parametrize("operator", ["riesz", "tw"])
def test_eval_evaluates_every_rule(monkeypatch, capsys, operator):
    # eval runs no check, so no rule store is open and every rule is summed.
    stores = []

    def recorded(*args, **kwargs):
        stores.append(quadrature._RULES.get())
        return quadrature.integrate_annular(*args, **kwargs)

    monkeypatch.setattr(operators, "integrate_annular", recorded)
    assert main(["eval", operator, "--x", "0.2,0.1"]) == 0
    assert stores == [None]


def test_eval_rejects_bad_alpha(capsys):
    assert main(["eval", "frac_derivative", "--alpha", "1.5"]) == 2
    assert "--alpha" in capsys.readouterr().err


def test_eval_unknown_operator_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "convolve"])
    assert exc.value.code == 2


# -- the check registry and the CLI contract on every check -----------------------

LIGHT_INI = """\
[run]
dimension = 2
checks = {check}
output_dir = {out}
formats = json, csv
[quadrature]
rel_tol = 1e-2
points_per_dim = 8
[params]
outer_cells = 3
cells = 4
"""

@pytest.mark.parametrize("check", sorted(verify.CHECKS))
def test_run_round_trip_every_check(tmp_path, check):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, LIGHT_INI.format(check=check, out=out))
    assert main(["run", cfg, "--threads", "1"]) in (0, 1)
    summary = json.loads((out / "summary.json").read_text())
    assert [row["check_id"] for row in summary["checks"]] == [check]
    assert "error" not in summary["checks"][0]
    report = json.loads((out / f"{check}.json").read_text())
    assert report["check_id"] == check
    assert report["config"]["check"] == check
    assert (out / f"{check}.csv").exists()


def _reports_identical_across_thread_counts(tmp_path, checks, codes=(0,), memos=()):
    """Run checks at --threads 1 and 2, each run after emptying memos, and
    compare the JSON reports byte for byte."""
    outs = []
    for threads in ("1", "2"):
        for memo in memos:
            memo.cache_clear()
        out = tmp_path / f"t{threads}"
        ini = LIGHT_INI.format(check=checks, out=out).replace("json, csv", "json")
        cfg = write_config(tmp_path, ini, f"t{threads}.ini")
        assert main(["run", cfg, "--threads", threads]) in codes
        outs.append(out)
    names = [f"{c.strip()}.json" for c in checks.split(",")] + ["summary.json"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_shell_rule_reports_byte_identical_across_thread_counts(tmp_path):
    # Node arrays are summed pairwise and shell values with fsum, each in a
    # fixed order, so the thread count changes no byte of a report.
    _reports_identical_across_thread_counts(
        tmp_path, "subrepresentation_identity, rough_subrepresentation, annuli_absorption, "
        "poincare_bbm, hedberg_split, sobolev_mapping", codes=(0, 1))


def test_fractional_reports_byte_identical_across_thread_counts(tmp_path):
    # The four fractional checks share their fields through one memo; with
    # it emptied before each run, two threads build and read them at once.
    _reports_identical_across_thread_counts(
        tmp_path, "fractional_domination, lemma_domination, identity_fractional, rough_fractional",
        memos=(operators.frac_derivative_field,))


def test_weighted_reports_byte_identical_across_thread_counts(tmp_path):
    # The four weighted theorems share [w]_A1 through one memo; with it
    # emptied before each run, two threads estimate and read it at once.
    _reports_identical_across_thread_counts(
        tmp_path, "subrepresentation_identity, rough_subrepresentation, "
        "identity_fractional, rough_fractional",
        memos=(verify._a1_constant, operators.frac_derivative_field))


def test_identity_fractional_runs_in_one_dimension(tmp_path):
    out = tmp_path / "out"
    ini = LIGHT_INI.format(check="identity_fractional", out=out)
    cfg = write_config(tmp_path, ini.replace("dimension = 2", "dimension = 1"))
    assert main(["run", cfg, "--threads", "1"]) == 0
    report = json.loads((out / "identity_fractional.json").read_text())
    assert [s["point"] for s in report["samples"]][-2:] == [[1.5], [-1.5]]


def test_annuli_absorption_records_its_input(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, LIGHT_INI.format(check="annuli_absorption", out=out))
    main(["run", cfg])
    report = json.loads((out / "annuli_absorption.json").read_text())
    assert report["config"]["g"] == {
        "field": "gradient_magnitude",
        "of": {"family": "smooth_bump", "center": [0.0, 0.0], "scale": 1.0, "amplitude": 1.0},
    }


def test_registry_matches_checks_list_and_readme(capsys):
    functions = {name[len("check_"):] for name in dir(verify) if name.startswith("check_")}
    assert functions == set(verify.CHECKS)
    assert main(["list-checks"]) == 0
    expected = [f"{cid:28s} {verify.CHECKS[cid].anchor}" for cid in sorted(verify.CHECKS)]
    assert capsys.readouterr().out.splitlines() == expected
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = re.findall(r"^\| `(\w+)` \|", readme, flags=re.MULTILINE)
    assert sorted(table) == sorted(verify.CHECKS)


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "riesz", "--dimension", "4"],
        ["eval", "rough_maximal", "--dimension", "3", "--profile", "cosine_harmonic"],
        ["eval", "riesz", "--rel-tol", "nan"],
        ["eval", "riesz", "--rel-tol", "inf"],
        ["eval", "riesz", "--amplitude", "nan"],
        ["eval", "tw", "--weight-value", "nan"],
        ["eval", "lp_norm", "--p", "nan"],
        ["eval", "lorentz", "--q", "nan", "--samples", "1000"],
        ["eval", "lorentz", "--cube-side", "nan"],
        ["eval", "lp_norm", "--p", "inf"],
        ["eval", "lorentz", "--p", "inf", "--samples", "1000"],
        ["eval", "lorentz", "--cube-side", "inf", "--samples", "1000"],
    ],
)
def test_eval_library_errors_exit_two(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("eval error: ")
    assert "Traceback" not in err


def test_eval_lorentz_takes_the_weak_norm_at_infinite_q(capsys):
    # q = inf is the weak norm L^{p,inf}; only p and the cube side must be finite.
    assert main(["eval", "lorentz", "--q", "inf", "--samples", "1000"]) == 0
    value = _printed_value(capsys)
    assert math.isfinite(value) and value > 0.0


def test_eval_rough_maximal_in_3d_takes_the_3d_profile(capsys):
    # Without --profile the symbol is the config file's 3-d default,
    # odd_polynomial; cosine_harmonic lives on the circle only.
    argv = ["eval", "rough_maximal", "--dimension", "3", "--points-per-dim", "8", "--rel-tol", "1e-2"]
    assert main(argv) == 0
    assert math.isfinite(_printed_value(capsys))


def test_eval_flags_read_by_the_builders_default_to_none(monkeypatch):
    # The _build_* helpers hold each default, shared with the config file;
    # a flag default would shadow it.
    read = set()
    flags = cli._Fields.flags.__func__

    def recording(fields_cls, args, **renames):
        src = flags(fields_cls, args, **renames)

        def get(key):
            read.add(renames.get(key, key))
            return src.get(key)

        return fields_cls(get, src.label)

    monkeypatch.setattr(cli._Fields, "flags", classmethod(recording))
    for op in ("riesz_potential", "frac_derivative", "potential_Tw", "rough_maximal",
               "maximal_Mwc", "lp_norm", "lorentz_norm"):
        monkeypatch.setattr(cli, op, lambda *args, **kwargs: 0.0)
    runs = [[op] for op in cli.EVAL_OPERATORS]
    runs += [["tw", "--weight", kind] for kind in ("radial_power", "power_plus_one")]
    runs += [["rough_maximal", "--profile", p] for p in ("sign_profile", "odd_polynomial")]
    for argv in runs:
        assert main(["eval", *argv]) == 0
    defaults = vars(cli.build_parser().parse_args(["eval", "riesz"]))
    flagged = read & defaults.keys()
    assert {"family", "weight", "beta", "profile", "k", "omega_amplitude", "rel_tol"} <= flagged
    assert {key: defaults[key] for key in flagged} == dict.fromkeys(flagged)

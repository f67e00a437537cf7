from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest

from stablematch.cli import main
from stablematch.instance import fixture_4x4, save


@pytest.fixture()
def fixture_file(tmp_path):
    path = tmp_path / "fixture.json"
    save(fixture_4x4(), path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestHusbands:
    def test_fixture(self, capsys, fixture_file):
        code, doc = run_cli(capsys, "husbands", "--instance", fixture_file, "--girl", "0")
        assert code == 0
        assert doc["husbands"] == [3, 2]
        assert doc["matchings"] == [[3, 0, 1, 2], [2, 0, 1, 3]]
        assert doc["display"]["husbands"] == ["Z", "Y"]
        assert doc["display"]["matchings"] == ["AZ,BW,CX,DY", "AY,BW,CX,DZ"]
        assert "trace" not in doc

    def test_trace(self, capsys, fixture_file):
        code, doc = run_cli(
            capsys, "husbands", "--instance", fixture_file, "--girl", "0", "--trace"
        )
        assert code == 0
        assert len(doc["trace"]) == 16
        assert doc["trace"][0] == {
            "kind": "propose",
            "time": 1,
            "boy": 0,
            "girl": 0,
            "accepted": True,
        }
        assert doc["trace"][-1]["kind"] == "terminate"

    def test_bad_girl(self, capsys, fixture_file):
        code, _ = run_cli(capsys, "husbands", "--instance", fixture_file, "--girl", "9")
        assert code == 2

    def test_missing_file(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "husbands", "--instance", str(tmp_path / "nope.json"), "--girl", "0"
        )
        assert code == 2


class TestCheck:
    def test_stable(self, capsys, fixture_file, tmp_path):
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({"husband_of": [3, 0, 1, 2]}))
        code, doc = run_cli(
            capsys, "check", "--instance", fixture_file, "--matching", str(mpath)
        )
        assert code == 0
        assert doc == []

    def test_unstable_bare_array(self, capsys, fixture_file, tmp_path):
        mpath = tmp_path / "m.json"
        mpath.write_text("[0, 1, 2, 3]")
        code, doc = run_cli(
            capsys, "check", "--instance", fixture_file, "--matching", str(mpath)
        )
        assert code == 0
        assert doc
        assert {"girl": 0, "boy": 3} in doc


def test_enumerate(capsys, fixture_file):
    code, doc = run_cli(capsys, "enumerate", "--instance", fixture_file)
    assert code == 0
    assert doc["count"] == 2
    assert sorted(doc["matchings"]) == [[2, 0, 1, 3], [3, 0, 1, 2]]
    assert doc["husband_sets"][0] == [2, 3]


class TestSimulate:
    def test_natural_n1(self, capsys):
        code, doc = run_cli(capsys, "simulate", "--n", "1", "--seed", "7")
        assert code == 0
        assert doc["husband_count"] == 1
        assert doc["stop"] == "natural"

    def test_audit(self, capsys):
        code, doc = run_cli(
            capsys,
            "simulate", "--n", "16", "--seed", "3", "--delta", "0.3", "--audit",
        )
        assert code == 0
        assert doc["proposals"] == math.floor(16**1.3)
        assert set(doc["audit"]["checks"]) == {
            "girl_proposal_window",
            "boy_run_starts",
            "run_fresh_length",
            "run_total_length",
            "boy_total_proposals",
            "pair_repeat_proposals",
            "girl_fresh_floor",
        }

    def test_audit_cap_mismatch(self, capsys):
        code, _ = run_cli(
            capsys,
            "simulate", "--n", "16", "--seed", "3",
            "--cap", "10", "--delta", "0.3", "--audit",
        )
        assert code == 2

    def test_audit_needs_delta(self, capsys):
        code, _ = run_cli(capsys, "simulate", "--n", "16", "--seed", "3", "--audit")
        assert code == 2

    def test_first_output(self, capsys):
        code, doc = run_cli(
            capsys, "simulate", "--n", "25", "--seed", "5", "--first-output"
        )
        assert code == 0
        assert doc["first_output_time"] == doc["proposals"]


class TestBounds:
    def test_fixed_point(self, capsys):
        code, doc = run_cli(
            capsys,
            "bounds", "--pgf", "binom", "2", "10",
            "--tail", "upper", "--r", "8", "--x", "2",
        )
        assert code == 0
        assert doc["value"] == pytest.approx(2**-8 * (3 / 2) ** 10)

    def test_optimized(self, capsys):
        code, doc = run_cli(
            capsys,
            "bounds", "--pgf", "accept", "10000",
            "--tail", "upper", "--r", "13.8155", "--optimize",
        )
        assert code == 0
        assert 0 < doc["value"] < 0.5

    def test_bad_family(self, capsys):
        code, _ = run_cli(
            capsys, "bounds", "--pgf", "poisson", "3", "--tail", "upper", "--r", "1",
            "--x", "2",
        )
        assert code == 2

    def test_needs_x_or_optimize(self, capsys):
        code, _ = run_cli(
            capsys, "bounds", "--pgf", "accept", "10", "--tail", "upper", "--r", "1"
        )
        assert code == 2


class TestEnvelope:
    def test_values(self, capsys):
        code, doc = run_cli(
            capsys,
            "envelope", "--n", "1024", "--c", "0.4", "--C", "1.5",
            "--delta", "0.45", "--eps", "0.05",
        )
        assert code == 0
        assert doc["lower"] == pytest.approx(2.7725887222397816)
        assert doc["upper"] == pytest.approx(10.39720770839918)

    def test_infeasible(self, capsys):
        code, _ = run_cli(
            capsys,
            "envelope", "--n", "1024", "--c", "0.6", "--C", "1.5",
            "--delta", "0.45", "--eps", "0.05",
        )
        assert code == 2


class TestExperiment:
    def test_flag_form(self, capsys, tmp_path):
        code, doc = run_cli(
            capsys,
            "experiment", "--kind", "coupon", "--n", "25", "--trials", "5",
            "--seed", "11", "--out", str(tmp_path / "out"),
        )
        assert code == 0
        assert doc["blocks"][0]["trials"] == 5
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "trials.csv").exists()

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "kind": "acceptance_dist",
                    "n": 1,
                    "trials": 50,
                    "master_seed": 4,
                    "params": {"m": 50, "eps": 0.5},
                }
            )
        )
        code, doc = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 0
        assert doc["blocks"][0]["m"] == 50

    def test_gate_failure_exit_one(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "kind": "equivalence",
                    "n": 2,
                    "trials": 200,
                    "master_seed": 8,
                    "gate": {"max_tv": -1.0},
                }
            )
        )
        code, doc = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 1
        assert doc["gate_failures"]

    def test_config_error_exit_two(self, capsys):
        code, _ = run_cli(
            capsys,
            "experiment", "--kind", "magic", "--n", "4", "--trials", "1",
            "--seed", "0",
        )
        assert code == 2

    def test_param_parsing(self, capsys):
        code, doc = run_cli(
            capsys,
            "experiment", "--kind", "lemma_audit", "--n", "8", "--trials", "1",
            "--seed", "2", "--param", "delta=0.3",
        )
        assert code == 0
        assert doc["blocks"][0]["delta"] == 0.3

    def test_bad_param(self, capsys):
        code, _ = run_cli(
            capsys,
            "experiment", "--kind", "lemma_audit", "--n", "8", "--trials", "1",
            "--seed", "2", "--param", "delta",
        )
        assert code == 2


BASE_CONFIG = {"kind": "theorem", "n": 8, "trials": 2, "master_seed": 1}


@pytest.mark.parametrize(
    "config,extra",
    [
        (BASE_CONFIG, ["--param", 'c="x"']),
        ({**BASE_CONFIG, "workers": "2"}, []),
        ({**BASE_CONFIG, "girl": "0"}, []),
        ({**BASE_CONFIG, "gate": {"median_range": 5}}, []),
        ({**BASE_CONFIG, "kind": "equivalence", "gate": {"max_tv": "a"}}, []),
        ({**BASE_CONFIG, "params": [1]}, []),
        ({**BASE_CONFIG, "kind": "coupon", "n": [True, 8]}, []),
        ({**BASE_CONFIG, "trials": True}, []),
        ({**BASE_CONFIG, "master_seed": False}, []),
        ({**BASE_CONFIG, "girl": True}, []),
        ({**BASE_CONFIG, "workers": True}, []),
        ({**BASE_CONFIG, "out_dir": 5}, []),
        ({**BASE_CONFIG, "plot_data": "yes"}, []),
        (
            {"kind": "acceptance_dist", "n": 1, "trials": 2, "master_seed": 1,
             "params": {"m": True}},
            [],
        ),
    ],
    ids=[
        "param-c-string",
        "workers-string",
        "girl-string",
        "gate-range-int",
        "gate-max-tv-string",
        "params-list",
        "n-bool",
        "trials-bool",
        "master-seed-bool",
        "girl-bool",
        "workers-bool",
        "out-dir-int",
        "plot-data-string",
        "m-bool",
    ],
)
def test_mistyped_config_is_a_named_error(capsys, tmp_path, config, extra):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    if extra:
        argv = ["experiment", "--kind", config["kind"], "--n", str(config["n"]),
                "--trials", str(config["trials"]), "--seed",
                str(config["master_seed"]), *extra]
    else:
        argv = ["experiment", "--config", str(cfg)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_console_entry_point(fixture_file):
    result = subprocess.run(
        [sys.executable, "-m", "stablematch.cli", "husbands",
         "--instance", fixture_file, "--girl", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["husbands"] == [0]

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from stablematch import harness
from stablematch.cli import main
from stablematch.harness import KINDS
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


def usage_error(capsys, *argv) -> str:
    """stderr of a command line that argparse rejects with exit status 2."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    return captured.err


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

    @pytest.mark.parametrize(
        "doc,named",
        [
            ([[1], 0, 2, 3], "husband_of[0]"),
            ([0.5, 1, 2, 3], "husband_of[0]"),
            ([True, 0, 2, 3], "husband_of[0]"),
            ({"husband_of": [3, 0, "2", 1]}, "husband_of[2]"),
            ({}, "no 'husband_of'"),
            ([3, 0, 1], "exactly 4 husband entries"),
        ],
        ids=["list-entry", "float-entry", "bool-entry", "string-entry", "no-key",
             "short"],
    )
    def test_malformed_matching_is_a_named_error(
        self, capsys, fixture_file, tmp_path, doc, named
    ):
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(doc))
        code = main(["check", "--instance", fixture_file, "--matching", str(mpath)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and named in captured.err


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
            capsys, "simulate", "--n", "16", "--seed", "3", "--audit", "0.3"
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
        # --audit is a stop rule of its own, the cap floor(n^(1+DELTA)).
        err = usage_error(
            capsys, "simulate", "--n", "16", "--seed", "3", "--audit", "0.3",
            "--cap", "10",
        )
        assert "not allowed with argument" in err

    @pytest.mark.parametrize("flag", ["--natural", "--first-output"])
    def test_audit_with_a_stop_flag(self, capsys, flag):
        # An audit always runs the capped window, so an explicit other stop
        # rule is a usage error rather than silently ignored.
        err = usage_error(
            capsys, "simulate", "--n", "16", "--seed", "3", "--audit", "0.3", flag
        )
        assert flag in err

    def test_audit_needs_delta(self, capsys):
        err = usage_error(capsys, "simulate", "--n", "16", "--seed", "3", "--audit")
        assert "--audit" in err

    @pytest.mark.parametrize("delta", ["0.7", "nan"])
    def test_audit_delta_outside_window(self, capsys, delta):
        code = main(["simulate", "--n", "16", "--seed", "3", "--audit", delta])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "delta in (0, 1/2)" in captured.err

    def test_first_output(self, capsys):
        code, doc = run_cli(
            capsys, "simulate", "--n", "25", "--seed", "5", "--first-output"
        )
        assert code == 0
        assert doc["first_output_time"] == doc["proposals"]

    # The SHA-256 of the whole stdout of one run of each stop rule, pinned
    # before RunStats came to derive redundant_proposals, first_output_time
    # and acceptances_by_girl and to keep its pair counts in one (boy, girl)
    # map. The natural run has two husbands and two superseded acceptances,
    # the capped run two and one, the first-output run one of each; the
    # audited run has no output and three pair violations, two by one boy.
    @pytest.mark.parametrize(
        "argv,digest",
        [
            (["--n", "8", "--seed", "10"],
             "06cf22044ab2c1a4491188d8a660ee7d36748503b401ec71842b9720a6866ee2"),
            (["--n", "16", "--seed", "2", "--cap", "200"],
             "762f23b49f8deaa07f97f42b5f88dbae8fabdba83f254fa68e40d96be06ad9c5"),
            (["--n", "25", "--seed", "0", "--first-output"],
             "366585c917f53aa11764d06a8c2ba37328c3a79ebb8ccaa43f104120814b0ccc"),
            (["--n", "16", "--seed", "22", "--audit", "0.3"],
             "4ac0609839252808525d89c32ea7a8f8ebf6dd9a87c7002016d2a29cf06b6f86"),
        ],
        ids=["natural", "cap", "first-output", "audit"],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        assert main(["simulate", *argv]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    def test_flags_override_a_config_file(self, capsys, tmp_path, monkeypatch):
        # Two usable CPUs, so that --workers 2 starts a real pool anywhere.
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"kind": "equivalence", "n": 3, "trials": 100, "master_seed": 6})
        )
        for workers in ("1", "2"):
            code, _ = run_cli(
                capsys, "experiment", "--config", str(cfg), "--workers", workers,
                "--out", str(tmp_path / workers),
            )
            assert code == 0
        one, two = tmp_path / "1", tmp_path / "2"
        assert (two / "report.json").read_bytes() == (one / "report.json").read_bytes()
        assert (one / "histogram.tsv").exists() and (two / "histogram.tsv").exists()

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
# Too large for a float: every use overflows before anything is allocated.
HUGE = 10**400
# Nested past the recursion limit, as a file and as a --param value.
DEEP_FILE = "[" * 100_000 + "]" * 100_000
DEEP_PARAM = "[" * 5_000 + "]" * 5_000


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
        (
            {"kind": "acceptance_dist", "n": 1, "trials": 2, "master_seed": 1,
             "params": {"m": 3}, "gate": {"tail_within_bound": "false"}},
            [],
        ),
        ({**BASE_CONFIG, "n": [8, 8]}, []),
        ({**BASE_CONFIG, "kind": "lemma_audit", "params": {"delta": 0.7}}, []),
        ({**BASE_CONFIG, "n": HUGE}, []),
        ({**BASE_CONFIG, "kind": "lemma_audit", "n": HUGE, "params": {"delta": 0.3}}, []),
        ({**BASE_CONFIG, "kind": "coupon", "n": HUGE}, []),
        (
            {**BASE_CONFIG, "kind": "lemma_audit", "params": {"delta": 0.3},
             "plot_data": True},
            [],
        ),
        ({**BASE_CONFIG, "trials": 1}, ["--param", "c=null"]),
        (
            {"kind": "acceptance_dist", "n": 1, "trials": 1, "master_seed": 1},
            ["--param", "m=5", "--param", "eps=null"],
        ),
        ({**BASE_CONFIG, "trials": 1}, ["--method", "b", "--param", "detla=0.3"]),
        ({**BASE_CONFIG, "method": "c"}, []),
        (
            {"kind": "acceptance_dist", "n": 1, "trials": 1, "master_seed": 1,
             "params": {"m": 3, "eps": 0}},
            [],
        ),
        ([BASE_CONFIG], []),
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
        "gate-flag-string",
        "n-repeated",
        "audit-delta-outside-window",
        "theorem-n-huge",
        "audit-n-huge",
        "coupon-n-huge",
        "audit-plot-data",
        "param-c-null",
        "param-eps-null",
        "param-key-unknown",
        "method-unknown",
        "eps-zero",
        "config-list",
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


@pytest.mark.parametrize(
    "argv",
    [
        ["husbands", "--instance", "@deep.json", "--girl", "0"],
        ["check", "--instance", "@inst.json", "--matching", "@deep.json"],
        ["experiment", "--config", "@deep.json"],
        ["experiment", "--kind", "theorem", "--n", "4", "--trials", "1", "--seed",
         "1", "--param", f"c={DEEP_PARAM}"],
    ],
    ids=["instance", "matching", "config", "param"],
)
def test_deeply_nested_json_is_a_named_error(capsys, tmp_path, argv):
    save(fixture_4x4(), tmp_path / "inst.json")
    (tmp_path / "deep.json").write_text(DEEP_FILE)
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv,doc,named",
    [
        (["bounds", "--pgf", "binom", "1024", "--tail", "upper", "--r", "1", "--x",
          "2"], None, "--pgf binom needs two integers: cells trials"),
        (["bounds", "--pgf", "accept", "10", "--tail", "upper", "--r", "inf", "--x",
          "2"], None, "threshold r must be finite, got inf"),
        (["husbands", "--instance", "@doc.json", "--girl", "0"],
         {"n": 2, "girl_prefs": [[0, 1], [0]], "boy_prefs": [[0, 1], [1, 0]]},
         "girl 1: row has length 1, expected 2"),
        (["husbands", "--instance", "@doc.json", "--girl", "0"],
         {"n": 2, "girl_prefs": [[0, 1], [1, 0]], "boy_prefs": [[0, 1], [1, "0"]]},
         "boy 1: non-integer entry '0'"),
    ],
    ids=["binom-one-integer", "r-infinite", "instance-short-row",
         "instance-string-entry"],
)
def test_bad_input_is_a_named_error(capsys, tmp_path, argv, doc, named):
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {named}\n"


def test_huge_offer_count_is_named_before_any_allocation():
    # acceptance_dist reads its acceptance limits 2,048 at a time, but an m
    # too large for a float must still be named before any work: the block
    # computes bounds.harmonic(m) first, which raises OverflowError. The
    # child process caps its own address space at 1 GiB, so a run that
    # allocates by m ends in a MemoryError rather than filling the host's
    # memory.
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from stablematch.cli import main\n"
        "sys.exit(main())\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", child, "experiment", "--kind", "acceptance_dist",
         "--n", "1", "--trials", "1", "--seed", "1", "--param", f"m={HUGE}"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2
    assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr


def test_console_entry_point(fixture_file):
    result = subprocess.run(
        [sys.executable, "-m", "stablematch.cli", "husbands",
         "--instance", fixture_file, "--girl", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["husbands"] == [0]


# Tokens that are not what an option expects, or are at its edge.
ODD = ["nan", "inf", "-inf", "1e400", "x", "", "-1", "0", "0.5", "[1]", "true"]


def _ints(lo: int, hi: int):
    """An integer option value, odd one time in four."""
    good = st.integers(lo, hi).map(str)
    return st.one_of(good, good, good, st.sampled_from(ODD))


def _floats():
    """A number option value, odd one time in four."""
    good = st.floats(-3, 3).map(repr)
    return st.one_of(good, good, good, st.sampled_from(ODD))


def _opt(flag: str, values):
    """Either nothing or [flag, value]."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.floats(-1e3, 1e3)
    | st.sampled_from([float("nan"), float("inf"), 1e300])
    | st.text("abcx", max_size=2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("abcx", max_size=2), inner, max_size=2),
    max_leaves=4,
)
# Worker counts stay at most 1 so that no example starts a process pool.
CONFIG = st.fixed_dictionaries(
    {
        "kind": st.sampled_from([*KINDS, "nope", "THEOREM"]) | JSON,
        "n": st.integers(0, 4) | st.lists(st.integers(0, 4), max_size=3) | JSON,
        "trials": st.integers(0, 3) | JSON,
        "master_seed": st.integers(-(2**65), 2**65) | JSON,
    },
    optional={
        "girl": st.integers(-1, 4) | JSON,
        "method": st.sampled_from(["a", "b", "c"]) | JSON,
        "params": st.dictionaries(
            st.sampled_from(["c", "C", "delta", "eps", "m", "q"]),
            st.integers(-1, 6) | st.floats(-3, 3) | JSON,
            max_size=4,
        )
        | JSON,
        "gate": st.dictionaries(
            st.sampled_from(
                ["max_tv", "median_range", "min_inside_fraction",
                 "tail_within_bound", "min_all_pass_rate", "q"]
            ),
            st.floats(-1, 2) | st.lists(st.integers(0, 9), max_size=3) | JSON,
            max_size=2,
        )
        | JSON,
        "workers": st.sampled_from([1, 0, -1, "2", True, None, 1.5]),
        "x": JSON,
    },
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Input files for generated command lines: a good instance, a good
    matching, a file that is not JSON, and one JSON value of the wrong
    shape, and one nested past the recursion limit. Command lines name them
    as "@inst.json" and so on."""
    root = tmp_path_factory.mktemp("cli_inputs")
    save(fixture_4x4(), root / "inst.json")
    (root / "match.json").write_text("[3, 0, 1, 2]")
    (root / "garbage.json").write_text("{not json")
    (root / "shape.json").write_text('{"n": 2, "girl_prefs": [[0, 1]]}')
    (root / "deep.json").write_text(DEEP_FILE)
    return root


INPUTS = st.sampled_from(
    ["@inst.json", "@match.json", "@garbage.json", "@shape.json", "@deep.json",
     "@missing.json"]
)


@st.composite
def command_lines(draw):
    """An argv for `main`: a subcommand with some of its options, each
    value either well formed or odd. "@config.json" stands for a file
    holding the generated config, the second item of the result."""
    command = draw(st.sampled_from(
        ["husbands", "check", "enumerate", "simulate", "bounds", "envelope",
         "experiment", "nope"]
    ))
    argv = [command]
    config = None
    if command in ("husbands", "check", "enumerate"):
        argv += draw(_opt("--instance", INPUTS))
    if command == "husbands":
        argv += draw(_opt("--girl", _ints(-1, 4)))
        argv += draw(st.sampled_from([[], ["--trace"]]))
    if command == "check":
        argv += draw(_opt("--matching", INPUTS))
    if command == "simulate":
        argv += draw(_opt("--n", _ints(-1, 4)))
        argv += draw(_opt("--girl", _ints(-1, 4)))
        argv += draw(_opt("--seed", _ints(-5, 5)))
        argv += draw(st.one_of(
            st.just([]),
            st.just(["--natural"]),
            st.just(["--first-output"]),
            _ints(-1, 60).map(lambda v: ["--cap", v]),
            _floats().map(lambda v: ["--audit", v]),
        ))
    if command == "bounds":
        family = draw(st.sampled_from(["binom", "accept", "poisson"]))
        argv += ["--pgf", family, *draw(st.lists(_ints(-1, 40), min_size=1, max_size=3))]
        argv += draw(_opt("--tail", st.sampled_from(["lower", "upper", "x"])))
        argv += draw(_opt("--r", _floats()))
        argv += draw(_opt("--x", _floats()))
        argv += draw(st.sampled_from([[], ["--optimize"]]))
    if command == "envelope":
        for flag in ("--n", "--c", "--C", "--delta", "--eps"):
            argv += draw(_opt(flag, _floats()))
    if command == "experiment":
        if draw(st.booleans()):
            config = draw(CONFIG)
            argv += ["--config", "@config.json"]
        else:
            argv += draw(_opt("--kind", st.sampled_from([*KINDS, "nope"])))
            argv += draw(_opt("--n", _ints(0, 4)))
            argv += draw(_opt("--trials", _ints(0, 3)))
            argv += draw(_opt("--seed", _ints(-5, 5)))
            argv += draw(_opt("--method", st.sampled_from(["a", "b", "c"])))
            for _ in range(draw(st.integers(0, 2))):
                key = draw(st.sampled_from(["c", "C", "delta", "eps", "m", "q="]))
                value = draw(st.sampled_from(
                    ["0.3", "2", "1", "1e400", "x", '"x"', "null", DEEP_PARAM]
                ))
                argv += ["--param", f"{key}={value}"]
        argv += draw(_opt("--workers", st.sampled_from(["1", "0", "-1", "x"])))
        argv += draw(_opt("--out", st.sampled_from(["@out", "@garbage.json/out"])))
    return argv, config


def run_generated(root, argv: list[str], config) -> int:
    """main's exit status for a generated command line, an argparse usage
    error counting as its exit status 2."""
    if config is not None:
        (root / "config.json").write_text(json.dumps(config))
    argv = [str(root / a[1:]) if a.startswith("@") else a for a in argv]
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(command_lines())
# Tracebacks or NaN/Infinity output the generated command lines found.
@example((["simulate", "--n", "4", "--seed", "0", "--audit", "inf"], None))
@example((["simulate", "--n", "0", "--seed", "0", "--audit", "-1.5"], None))
@example((["simulate", "--n", "-1", "--seed", "0", "--audit", "-1.5"], None))
@example((["simulate", "--n", "16", "--seed", "3", "--audit", "0.3",
           "--first-output"], None))
@example((["bounds", "--pgf", "accept", "5", "--tail", "upper", "--r", "nan",
           "--optimize"], None))
@example((["bounds", "--pgf", "accept", "5", "--tail", "upper", "--r", "1",
           "--x", "inf"], None))
@example((["envelope", "--n", "inf", "--c", "0.3", "--C", "2", "--delta", "0.45",
           "--eps", "0.05"], None))
@example((["experiment", "--kind", "acceptance_dist", "--n", "1", "--trials", "2",
           "--seed", "1", "--param", "m=3", "--param", "eps=1e400"], None))
@example((["experiment", "--kind", "acceptance_dist", "--n", "1", "--trials", "3",
           "--seed", "1", "--param", "m=1"], None))
@example((["experiment", "--config", "@config.json"],
          {"kind": "equivalence", "n": 2, "trials": 2, "master_seed": 1,
           "gate": {"max_tv": float("nan")}}))
@example((["experiment", "--kind", "theorem", "--n", "8", "--trials", "1", "--seed",
           "1", "--param", "c=null"], None))
@example((["experiment", "--kind", "acceptance_dist", "--n", "1", "--trials", "1",
           "--seed", "1", "--param", "m=5", "--param", "eps=null"], None))
@example((["experiment", "--kind", "theorem", "--method", "b", "--n", "8", "--trials",
           "1", "--seed", "1", "--param", "detla=0.3"], None))
# JSON nested past the recursion limit at each parse site.
@example((["husbands", "--instance", "@deep.json", "--girl", "0"], None))
@example((["check", "--instance", "@inst.json", "--matching", "@deep.json"], None))
@example((["experiment", "--config", "@deep.json"], None))
@example((["experiment", "--kind", "theorem", "--n", "4", "--trials", "1", "--seed",
           "1", "--param", f"c={DEEP_PARAM}"], None))
# Sizes too large for a float.
@example((["simulate", "--n", str(HUGE), "--seed", "1"], None))
@example((["simulate", "--n", str(HUGE), "--seed", "1", "--audit", "0.3"], None))
@example((["bounds", "--pgf", "binom", str(HUGE), "5", "--tail", "upper", "--r",
           "1", "--optimize"], None))
@example((["bounds", "--pgf", "accept", str(HUGE), "--tail", "upper", "--r", "1",
           "--optimize"], None))
@example((["envelope", "--n", "1e308", "--c", "0.3", "--C", "2", "--delta", "0.45",
           "--eps", "0.05"], None))
def test_cli_never_raises(capsys, files, case):
    # Any command line ends in exit 0 or 1 (a gate failed) with strict JSON
    # on stdout, NaN and Infinity excluded, or in exit 2 with the fault
    # named on stderr; never in an exception.
    code = run_generated(files, *case)
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 2:
        assert captured.err.startswith(("error: ", "usage: "))
    else:
        json.loads(captured.out, parse_constant=_no_constant)


def _no_constant(name: str):
    raise ValueError(f"{name} is not JSON")

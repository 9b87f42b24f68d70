import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sipmink import cli, suites
from sipmink.cli import main
from sipmink.config import RunConfig, config_from_mapping, load_config, parse_config
from sipmink.errors import PathError, UnsupportedError, UsageError
from sipmink.isometry import lorentz_boost
from sipmink.norms import NormSpec
from sipmink.numerics import Tolerances
from sipmink.ortho import birkhoff_margin

PNORM_CFG = """
# pnorm plane over a one-dimensional time block
space.s.norm = "pnorm"
space.s.p = 3
space.s.dim = 2
space.t.norm = "euclidean"
space.t.dim = 1
seed = 42
trials = 50
nodes = 8
"""

# each verb with arguments it runs on -> the override flags it reads
_VERB_OVERRIDES = {
    "classify 0,0,1": ("--out",),
    "product 1,0,0 0,0,1": (),
    "ortho sip 1,0 1,1": (),
    "auerbach": ("--seed",),
    "tangent 0,0": (),
    "distance 0,0 0.5,0": ("--nodes", "--out"),
    "verify cone": ("--seed", "--trials", "--nodes", "--out"),
    "counterexample": ("--seed",),
}


class TestConfigParsing:
    def test_full_roundtrip(self):
        cfg = config_from_mapping(parse_config(PNORM_CFG))
        assert cfg.s_kind == "pnorm" and cfg.s_p == 3.0 and cfg.s_dim == 2
        assert cfg.seed == 42 and cfg.trials == 50 and cfg.nodes == 8
        space = cfg.space()
        assert space.n == 3 and space.is_spacetime_model

    def test_defaults(self):
        cfg = config_from_mapping({})
        assert cfg.s_kind == "euclidean" and cfg.s_dim == 2 and cfg.t_dim == 1
        assert cfg.seed == 42
        assert config_from_mapping({}) == RunConfig()

    def test_unknown_key_reports_position(self):
        with pytest.raises(UsageError) as err:
            parse_config("space.s.norm = max\nspeling = 1\n")
        assert err.value.line == 2
        assert err.value.column == 1

    def test_bad_number_reports_line(self):
        with pytest.raises(UsageError) as err:
            parse_config("seed = forty")
        assert err.value.line == 1

    def test_duplicate_key_rejected(self):
        with pytest.raises(UsageError):
            parse_config("seed = 1\nseed = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(UsageError):
            parse_config("just some words\n")

    def test_comments_and_blanks_ignored(self):
        values = parse_config("\n# comment\nseed = 7  # trailing\n\n")
        assert values == {"seed": 7}

    @pytest.mark.parametrize(
        "line, value",
        [
            ('out = "run#1.csv"  # trailing', "run#1.csv"),
            ("out = 'run#1.csv'", "run#1.csv"),
            ("""out = "it's#1.csv" # a quote of the other kind inside""", "it's#1.csv"),
            ("out = run#1.csv", "run"),  # bare, the # starts a comment
        ],
    )
    def test_a_hash_starts_a_comment_only_outside_quotes(self, line, value):
        assert parse_config(line + "\n") == {"out": value}

    @pytest.mark.parametrize(
        "line, column",
        [
            ('out = "open#x', 7),  # not the value "open, cut at the #
            ("out = 'open", 7),
            ('out =   open"', 13),
            ("out = it's.csv", 9),
            ('out = "a"b"', 11),
            ('seed = 4"', 9),
        ],
    )
    def test_a_quote_that_does_not_pair_up_is_rejected(self, line, column):
        with pytest.raises(UsageError, match=f"^line 1, column {column}: unpaired quote .* of key '{line.split()[0]}'$") as err:
            parse_config(line + "\n")
        assert (err.value.line, err.value.column) == (1, column)

    def test_pnorm_without_p_rejected(self):
        with pytest.raises(UsageError):
            config_from_mapping({"space.s.norm": "pnorm"})

    @pytest.mark.parametrize("block", ["s", "t"])
    @pytest.mark.parametrize("kind", ["euclidean", "max"])
    def test_p_without_pnorm_rejected(self, block, kind):
        # p is read only by a pnorm block, so any other norm rejects it rather than ignore it
        with pytest.raises(UsageError, match=f"key space\\.{block}\\.p is read only with"):
            config_from_mapping({f"space.{block}.norm": kind, f"space.{block}.p": 3.0})

    @pytest.mark.parametrize("value", ["1e-7", ""])
    def test_environment_sets_no_tolerance(self, monkeypatch, value):
        # tol.eq in the config file is the one way to set the equality tolerance
        monkeypatch.setenv("SIPMINK_TOL_EQ", value)
        assert load_config(None).tolerances == Tolerances()

    def test_missing_file(self):
        with pytest.raises(UsageError):
            load_config("/nonexistent/path.cfg")


class TestCliCommands:
    def test_classify(self, capsys):
        assert main(["classify", "0,0,1", "1,0,1", "1,0,0"]) == 0
        out = capsys.readouterr().out
        assert "time-like" in out and "light-like" in out and "space-like" in out
        assert "T+" in out

    def test_classify_remark_space(self, capsys, tmp_path):
        cfg = tmp_path / "r1.cfg"
        cfg.write_text('space.s.norm = "max"\nspace.s.dim = 2\n')
        assert main(["classify", "1,1,0.5", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "space-like" in out
        assert "0.75" in out

    def test_product(self, capsys):
        assert main(["product", "1,0,0", "0,0,1"]) == 0
        out = capsys.readouterr().out
        assert "[u,v]- = 0" in out and "[u,v]+ = 0" in out

    def test_ortho(self, capsys):
        assert main(["ortho", "pythagorean", "3,0", "0,4"]) == 0
        out = capsys.readouterr().out
        assert "true" in out and "residual = 0" in out

    def test_ortho_birkhoff_reports_lambda(self, capsys, tmp_path):
        cfg = tmp_path / "max.cfg"
        cfg.write_text('space.s.norm = "max"\nspace.s.dim = 2\n')
        assert main(["ortho", "birkhoff", "1,0", "0,1", "--config", str(cfg)]) == 0
        assert "lambda*" in capsys.readouterr().out

    def test_ortho_birkhoff_uses_the_configured_opt_tol(self, capsys, tmp_path):
        cfg = tmp_path / "pnorm3.cfg"
        cfg.write_text('space.s.norm = "pnorm"\nspace.s.p = 3\ntol.opt = 0.01\n')
        assert main(["ortho", "birkhoff", "1,0.3", "0.2,1", "--config", str(cfg)]) == 0
        block, x, y = NormSpec.pnorm(3.0, 2), [1.0, 0.3], [0.2, 1.0]
        coarse, fine = birkhoff_margin(block, x, y, 0.01)[1], birkhoff_margin(block, x, y)[1]
        assert coarse != fine
        assert f"lambda* = {'%.17g' % coarse}" in capsys.readouterr().out

    def test_ortho_sip_false_case(self, capsys):
        assert main(["ortho", "sip", "1,0", "1,1"]) == 0
        assert "false" in capsys.readouterr().out

    def test_distance(self, capsys):
        b = f"{np.sinh(1.0)},0"
        assert main(["distance", "0,0", b, "--nodes", "16"]) == 0
        out = capsys.readouterr().out
        assert "distance = 0.99999" in out or "distance = 1" in out
        # neither relaxation checks convergence, so the command claims none
        assert "cosh residual" in out and "converged" not in out

    def test_distance_exploratory_tag_for_max_norm(self, capsys, tmp_path):
        cfg = tmp_path / "max.cfg"
        cfg.write_text('space.s.norm = "max"\nspace.s.dim = 2\nnodes = 8\n')
        assert main(["distance", "0,0", "0.5,0.2", "--config", str(cfg)]) == 0
        assert "exploratory" in capsys.readouterr().out

    def test_auerbach(self, capsys):
        assert main(["auerbach"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 3

    def test_tangent(self, capsys):
        assert main(["tangent", "0,0"]) == 0
        out = capsys.readouterr().out
        assert "space-like" in out

    def test_counterexample(self, capsys):
        assert main(["counterexample"]) == 0
        out = capsys.readouterr().out
        assert "3.3333333333333335" in out
        assert "margin" in out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [["tangent", "--", "1e200,0"], ["distance", "--", "0,0", "0,-1e200"]])
    def test_an_overflowing_lift_is_a_numerical_failure(self, capsys, argv):
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("numerical failure: ")

    # in a 40-dimensional S block neither rejection sampler finds what it draws for: T+ fills
    # too little of the cone check's cube, and no drawn pair falls in the geodesic-cosh window
    @pytest.mark.parametrize("suite, sampler", [("cone", "cone_convexity_check"), ("geodesic-cosh", "sample_pairs")])
    def test_a_sampler_out_of_budget_is_a_numerical_failure(self, capsys, tmp_path, suite, sampler):
        cfg = tmp_path / "dim40.cfg"
        cfg.write_text("space.s.dim = 40\ntrials = 2\n")
        assert main(["verify", suite, "--config", str(cfg), "--out", str(tmp_path / "report.csv")]) == 3
        out, err = capsys.readouterr()
        assert out == "" and not (tmp_path / "report.csv").exists()
        assert err.count("\n") == 1 and err.startswith(f"numerical failure: {sampler}: ") and "budget of" in err

    def test_p_on_a_euclidean_block_is_a_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "euclidean_p.cfg"
        cfg.write_text('space.s.norm = "euclidean"\nspace.s.p = 3\n')
        assert main(["product", "--config", str(cfg), "--", "1,2,0.5", "0.3,-1,2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "space.s.p" in err

    def test_bad_vector_is_usage_error(self, capsys):
        assert main(["classify", "1,banana"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "nan,0,1"],
            ["classify", "inf,0,1"],
            ["product", "nan,0,1", "1,0,0"],
            ["product", "1,0,0", "0,-inf,1"],
            ["ortho", "sip", "nan,0", "1,0"],
            ["ortho", "birkhoff", "1,0", "0,inf"],
            ["tangent", "inf,0"],
            ["distance", "0,0", "nan,1"],
        ],
    )
    def test_non_finite_coordinates_are_usage_errors(self, capsys, argv):
        assert main(argv) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan,0,1", "1,banana", "1,0"], ids=["non-finite", "unparsable", "wrong-dimension"])
    def test_classify_rejects_a_later_bad_vector_before_any_output(self, capsys, bad):
        assert main(["classify", "1,0,1", bad]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err

    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_unknown_suite_exits_2(self):
        assert main(["verify", "nonsense"]) == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (argv, flag)
            for argv, reads in _VERB_OVERRIDES.items()
            for flag in ("--seed", "--trials", "--nodes", "--out")
            if flag not in reads
        ],
    )
    def test_an_override_the_verb_does_not_read_exits_2(self, capsys, argv, flag):
        assert main([*argv.split(), flag, "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments" in err

    def test_an_unread_override_is_named_under_the_verbs_usage(self, capsys):
        assert main(["product", "--seed", "1", "--", "1,2,0.5", "0.3,-1,2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: sipmink product ")
        assert err.rstrip().endswith("sipmink product: error: unrecognized arguments: --seed")

    @pytest.mark.parametrize(
        "argv, named",
        [
            ("product --frob 1 -- 1,2,0.5 0.3,-1,2", "--frob 0.3,-1,2"),  # argparse takes the 1 as u
            ("product --frob=1 -- 1,2,0.5 0.3,-1,2", "--frob=1"),
            ("product -- 1,2,0.5 0.3,-1,2 1,1,1", "1,1,1"),
            ("distance --nodes 8 --frob -- 0,0 0.5,0", "--frob"),
            ("verify cone --frob", "--frob"),
        ],
    )
    def test_an_unknown_argument_is_named_under_the_verbs_usage(self, capsys, argv, named):
        verb = argv.split()[0]
        assert main(argv.split()) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: sipmink {verb} ")
        assert err.rstrip().endswith(f"sipmink {verb}: error: unrecognized arguments: {named}")

    @pytest.mark.parametrize("argv", sorted(_VERB_OVERRIDES))
    def test_help_lists_config_and_the_overrides_the_verb_reads(self, capsys, argv):
        verb = argv.split()[0]
        assert main([verb, "--help"]) == 0
        listed = re.findall(r"^  (--[a-z]+)", capsys.readouterr().out, re.M)
        extra = ("--matrix",) if verb == "verify" else ()
        assert listed == ["--config", *_VERB_OVERRIDES[argv], *extra]


class TestOutFromConfig:
    # verb and arguments -> the header line of the CSV it writes
    WRITERS = {"classify 0,0,1 1,0,1": "vector,square,class,cone", "distance 0,0 0.5,0": "t,s1,s2,tau"}

    @pytest.mark.parametrize("argv", sorted(WRITERS))
    def test_the_config_out_key_is_written(self, capsys, tmp_path, argv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f'out = "{tmp_path / "from_config.csv"}"\nnodes = 8\n')
        assert main([*argv.split(), "--config", str(cfg)]) == 0
        assert (tmp_path / "from_config.csv").read_text().splitlines()[0] == self.WRITERS[argv]

    @pytest.mark.parametrize("argv", sorted(WRITERS))
    def test_the_out_flag_overrides_the_config(self, capsys, tmp_path, argv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f'out = "{tmp_path / "from_config.csv"}"\nnodes = 8\n')
        assert main([*argv.split(), "--config", str(cfg), "--out", str(tmp_path / "from_flag.csv")]) == 0
        assert (tmp_path / "from_flag.csv").read_text().splitlines()[0] == self.WRITERS[argv]
        assert not (tmp_path / "from_config.csv").exists()

    @pytest.mark.parametrize("argv", sorted(WRITERS))
    def test_no_out_writes_no_file(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main([*argv.split(), "--nodes", "8"] if argv.startswith("distance") else argv.split()) == 0
        assert list(tmp_path.iterdir()) == []

    def test_a_hash_in_the_config_out_is_kept(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f'out = "{tmp_path / "run#1.csv"}"  # the first run\n')
        assert main(["classify", "0,0,1", "--config", str(cfg)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run#1.csv", "run.cfg"]

    def test_an_unpaired_quote_in_the_config_out_writes_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text('out = "open#x\n')
        assert main(["classify", "0,0,1", "--config", "run.cfg"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("error: ") and "'out'" in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_verify_defaults_to_verify_report_csv(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "counterexamples"]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["verify_report.csv"]
        assert "report: verify_report.csv" in capsys.readouterr().out


class TestUnwritableOutput:
    # each verb that writes a CSV, with the other arguments of one run
    ARGV = {"classify": ["0,0,1"], "distance": ["--nodes", "8", "--", "0,0", "0.5,0"], "verify": ["sip-axioms"]}

    @pytest.mark.parametrize("verb", sorted(ARGV))
    @pytest.mark.parametrize("where", ["missing/x.csv", "a_directory"])
    def test_is_a_usage_error_before_any_work(self, capsys, tmp_path, verb, where):
        (tmp_path / "a_directory").mkdir()
        target = str(tmp_path / where)
        assert main([verb, "--out", target, *self.ARGV[verb]]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # no suite line, table or distance was printed
        assert err.count("\n") == 1 and err.startswith(f"error: cannot write {target!r}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a_directory"]
        assert not any((tmp_path / "a_directory").iterdir())

    def test_a_write_that_fails_after_the_check_is_a_usage_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_output", lambda path: path)  # as if the directory went away after the check
        target = str(tmp_path / "missing" / "x.csv")
        assert main(["classify", "0,0,1", "--out", target]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {target!r}: ")


class TestVerifyCommand:
    def test_single_suite_writes_csv(self, capsys, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["verify", "counterexamples", "--out", str(out), "--trials", "50"])
        assert code == 0
        text = out.read_text()
        assert text.startswith("suite,check,passed,residual,witness")
        assert "plane_witness_found" in text
        assert "PASS counterexamples" in capsys.readouterr().out

    def test_inverted_expectation_suite(self, tmp_path):
        out = tmp_path / "cx.csv"
        assert main(["verify", "counterexamples", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        by_check = {r[1]: r[2] for r in rows}
        # PASS here means the violations WERE found
        assert by_check["plane_witness_found"] == "true"
        assert by_check["max_plane_witness_found"] == "true"

    def test_theorem2_suite_on_pnorm(self, capsys, tmp_path):
        cfg = tmp_path / "p3.cfg"
        cfg.write_text(PNORM_CFG)
        out = tmp_path / "t2.csv"
        assert main(["verify", "theorem2", "--config", str(cfg), "--out", str(out)]) == 0
        assert "identity_residual" in out.read_text()

    @pytest.mark.parametrize("suite", ["cone", "siip-axioms", "isometry"])
    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_no_trials_is_a_usage_error(self, capsys, tmp_path, suite, trials):
        out = tmp_path / "none.csv"
        assert main(["verify", suite, f"--trials={trials}", "--out", str(out)]) == 2
        assert "trials must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_class_band_of_one_is_a_config_error(self, capsys, tmp_path):
        # with tol.class = 1 every vector is light-like and T+ sampling never ends
        cfg = tmp_path / "band.cfg"
        cfg.write_text("tol.class = 1.0\n")
        out = tmp_path / "cone.csv"
        assert main(["verify", "cone", "--config", str(cfg), "--out", str(out)]) == 2
        assert "class_tol must be below 1" in capsys.readouterr().err
        assert main(["classify", "0,0,1", "--config", str(cfg)]) == 2

    def test_a_numerical_failure_keeps_the_lines_of_the_finished_suites(self, capsys, tmp_path, monkeypatch):
        # verify all runs cone, counterexamples, then geodesic-cosh: the first two print
        # their lines as they finish, the third raises, and nothing after it runs
        def fails(cfg):
            raise PathError("curve velocity left the space-like regime")

        monkeypatch.setitem(suites.SUITES, "geodesic-cosh", fails)
        for name in sorted(suites.SUITES)[3:]:
            monkeypatch.setitem(suites.SUITES, name, lambda cfg: pytest.fail("a suite ran after the failure"))
        out = tmp_path / "all.csv"
        assert main(["verify", "all", "--trials", "50", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert [line.split(":")[0] for line in captured.out.splitlines()] == ["PASS cone", "PASS counterexamples"]
        assert captured.err == "numerical failure: curve velocity left the space-like regime\n"
        assert not out.exists()

    def test_seed_flag_overrides(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        main(["verify", "sip-axioms", "--seed", "1", "--out", str(out1)])
        main(["verify", "sip-axioms", "--seed", "1", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    @staticmethod
    def _verify_matrix(tmp_path, F):
        path = tmp_path / "F.csv"
        np.savetxt(path, F, delimiter=",", fmt="%.17g")
        out = tmp_path / "iso.csv"
        code = main(["verify", "isometry", "--matrix", str(path), "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        return code, {r[1]: r[2] for r in rows if r[1].startswith("user_matrix.")}

    def test_matrix_boost_passes(self, capsys, tmp_path):
        F = lorentz_boost(RunConfig().space(), 0, 0.5)
        code, flags = self._verify_matrix(tmp_path, F)
        assert code == 0
        checks = ("product", "adjoint", "pole")
        assert flags == {f"user_matrix.{c}": "true" for c in checks}
        assert "PASS user matrix:" in capsys.readouterr().out

    def test_matrix_pole_off_the_hyperboloid_fails(self, capsys, tmp_path):
        # diag(1, 1, 2) sends the pole to (0, 0, 2): on the upper sheet,
        # but with [Fe_n, Fe_n]^+ = -4
        code, flags = self._verify_matrix(tmp_path, np.diag([1.0, 1.0, 2.0]))
        assert code == 1
        assert flags["user_matrix.pole"] == "false"
        assert "FAIL user matrix:" in capsys.readouterr().out

    def test_a_ragged_matrix_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,0,0\n0,1\n0,0,1\n")
        out = tmp_path / "iso.csv"
        assert main(["verify", "isometry", "--matrix", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: matrix in {str(path)!r} has rows of unequal length\n"
        assert not out.exists()

    def test_a_matrix_of_the_wrong_size_exits_before_any_suite_runs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "iter_suites", lambda *a: pytest.fail("a suite ran before the matrix was checked"))
        path = tmp_path / "F.csv"
        path.write_text("1,0\n0,1\n")  # the stock space is 2+1
        out = tmp_path / "iso.csv"
        assert main(["verify", "all", "--matrix", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: matrix dimension does not match the space\n"
        assert not out.exists()

    @staticmethod
    def _verify_all(tmp_path, cfg_text):
        """``sipmink verify all`` run as a program on a config: the exit code and the CSV lines."""
        cfg = tmp_path / "space.cfg"
        cfg.write_text(cfg_text)
        out = tmp_path / "all.csv"
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "sipmink.cli", "verify", "all", "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert "Traceback" not in done.stdout + done.stderr
        return done.returncode, out.read_text().splitlines()

    def test_verify_all_on_a_one_dimensional_s_block(self, tmp_path):
        # the s.i.p. companion of a vector of a one-dimensional block is {0}, so
        # the Birkhoff check has no vector to test and reports itself not applicable
        code, lines = self._verify_all(tmp_path, "space.s.dim = 1\ntrials = 50\n")
        assert code == 0
        assert "orthogonality,sip_implies_birkhoff,true,0,needs an S block of dimension 2 or more" in lines

    @pytest.mark.parametrize("name", sorted(suites.SPACETIME_SUITES))
    def test_a_spacetime_suite_called_off_a_spacetime_model_raises(self, name):
        # run_suites writes their not-applicable rows without calling them
        with pytest.raises(UnsupportedError):
            suites.SUITES[name](config_from_mapping({"space.t.dim": 2}))

    def test_verify_all_on_a_two_dimensional_t_block(self, tmp_path):
        # a 2+2 space is no space-time model: the suites that need H+ or a boost
        # each write one not-applicable row, and only those
        code, lines = self._verify_all(tmp_path, "space.t.dim = 2\n")
        assert code == 0
        assert [line for line in lines if "not_applicable" in line] == [
            "cone,not_applicable,true,0,needs a space-time model",
            "geodesic-cosh,not_applicable,true,0,needs a space-time model",
            "isometry,boosts_not_applicable,true,0,needs a pseudo-Euclidean space-time model",
            "lemma3,not_applicable,true,0,needs a space-time model",
            "lemma4,not_applicable,true,0,needs a space-time model",
            "tangent,not_applicable,true,0,needs a space-time model",
            "theorem10,not_applicable,true,0,needs a space-time model",
        ]

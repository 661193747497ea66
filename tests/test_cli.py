"""Tests for the command-line front end.

All commands run in-process through ``main(argv)`` so exit codes and
outputs are asserted directly; file outputs go to per-test temp dirs.
"""

import csv
import json

import numpy as np
import pytest

from actrate.binary import make_binary_example, rate_causal_binary
from actrate.cli import _parse_budgets, main
from actrate.errors import UsageError
from actrate.kernel import binary_entropy
from actrate.model import ProblemSpec, spec_to_json


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "binary.json"
    path.write_text(spec_to_json(make_binary_example(0.1)))
    return str(path)


@pytest.fixture
def lossy_spec_file(tmp_path):
    path = tmp_path / "binary_lossy.json"
    path.write_text(spec_to_json(make_binary_example(0.1, with_distortion=True)))
    return str(path)


@pytest.fixture
def aux_file(tmp_path):
    path = tmp_path / "aux.json"
    path.write_text(json.dumps({
        "policy": [[0, 1], [1, 0]],
        "v_given_s": [[0.5, 0.5], [0.5, 0.5]],
    }))
    return str(path)


def read_csv(path):
    """(comment lines, header, data rows) of one emitted CSV file."""
    comments, rows = [], []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line[1:].strip())
            else:
                rows.append(line)
    parsed = list(csv.reader(rows))
    return comments, parsed[0], parsed[1:]


class TestBudgetParsing:
    def test_colon_form_includes_endpoint(self):
        np.testing.assert_allclose(_parse_budgets("0:0.5:0.25"), [0, 0.25, 0.5])
        np.testing.assert_allclose(_parse_budgets("0:0.5:0.2"), [0, 0.2, 0.4])

    def test_comma_form(self):
        np.testing.assert_allclose(_parse_budgets("0.1, 0.2,0.35"), [0.1, 0.2, 0.35])

    def test_rejections(self):
        for bad in ("0.3,0.2", "0.1,0.1", "a,b", "0.5:0.1:0.1", "", "0:1:-1"):
            with pytest.raises(UsageError):
                _parse_budgets(bad)

    def test_non_finite_budgets_exit_2(self, capsys, spec_file):
        for bad in ("nan", "0.1,inf", "0:inf:0.1", "0:1:nan"):
            with pytest.raises(UsageError):
                _parse_budgets(bad)
        code = main(["curve", "--spec", spec_file, "--budgets", "nan"])
        assert code == 2
        assert "nan" in capsys.readouterr().err

    def test_out_of_order_budgets_exit_2(self, capsys, spec_file):
        code = main(["closed-form", "--p", "0.1", "--budgets", "0.4,0.2"])
        assert code == 2
        assert "strictly increasing" in capsys.readouterr().err


class TestClosedFormCommand:
    def test_causal_rows_match_closed_form(self, tmp_path):
        out = tmp_path / "cf.csv"
        code = main(["closed-form", "--p", "0.1", "--variant", "causal",
                     "--budgets", "0:0.5:0.1", "--out", str(out)])
        assert code == 0
        comments, header, rows = read_csv(out)
        assert header == ["B", "D", "R", "mode", "exact", "argmin"]
        assert len(rows) == 6
        for row in rows:
            b, r = float(row[0]), float(row[2])
            np.testing.assert_allclose(r, rate_causal_binary(b, 0.1), atol=1e-9)
            assert row[3] == "causal"
            assert row[4] == "True"
            assert "theta" in json.loads(row[5])

    def test_header_reports_the_kink_location(self, tmp_path):
        out = tmp_path / "cf.csv"
        main(["closed-form", "--p", "0.1", "--out", str(out)])
        comments, _, _ = read_csv(out)
        bstar_lines = [c for c in comments if c.startswith("bstar=")]
        assert len(bstar_lines) == 1
        np.testing.assert_allclose(
            float(bstar_lines[0].split("=")[1]), 0.277532594415719, atol=1e-12
        )

    def test_noiseless_channel_omits_the_kink(self, tmp_path):
        out = tmp_path / "cf.csv"
        assert main(["closed-form", "--p", "0", "--out", str(out)]) == 0
        comments, _, _ = read_csv(out)
        assert not any(c.startswith("bstar=") for c in comments)

    def test_perfect_side_info_rows_are_flat(self, tmp_path):
        out = tmp_path / "cf.csv"
        main(["closed-form", "--p", "0.1", "--pe", "0", "--budgets",
              "0:0.5:0.25", "--out", str(out)])
        _, _, rows = read_csv(out)
        for row in rows:
            np.testing.assert_allclose(float(row[2]), binary_entropy(0.1),
                                       atol=1e-12)

    def test_bad_noise_level_exit_2(self, capsys):
        assert main(["closed-form", "--p", "0.6"]) == 2
        assert "noise level" in capsys.readouterr().err


class TestCurveCommand:
    def test_causal_curve_matches_closed_form_on_grid(self, tmp_path, spec_file):
        """Budgets whose optimal mixing weights sit exactly on the search
        grid solve to closed-form accuracy even at a coarse grid."""
        out = tmp_path / "curve.csv"
        code = main(["curve", "--spec", spec_file, "--mode", "causal",
                     "--budgets", "0.25,0.375", "--grid", "8", "--refine", "1",
                     "--vmax", "2", "--out", str(out)])
        assert code == 0
        comments, _, rows = read_csv(out)
        for row in rows:
            b, r = float(row[0]), float(row[2])
            np.testing.assert_allclose(r, rate_causal_binary(b, 0.1), atol=1e-3)
            assert row[3] == "causal"
            assert row[5]  # argmin summary travels with the row
        assert any("envelope" in c for c in comments)

    def test_header_echoes_effective_config(self, tmp_path, spec_file):
        out = tmp_path / "curve.csv"
        main(["curve", "--spec", spec_file, "--mode", "causal",
              "--budgets", "0.2,0.3", "--grid", "6", "--refine", "0",
              "--vmax", "2", "--out", str(out)])
        comments, _, _ = read_csv(out)
        blob = " ".join(comments)
        for fragment in ("grid_steps=6", "refine_rounds=0", "v_size_max=2",
                         "u_size_max=4", "fingerprint="):
            assert fragment in blob

    def test_infeasible_budgets_print_inf(self, tmp_path):
        base = make_binary_example(0.1)
        expensive = ProblemSpec(state_joint=base.state_joint,
                                channel=base.channel,
                                cost=np.ones((2, 2, 2)))
        spec_path = tmp_path / "expensive.json"
        spec_path.write_text(spec_to_json(expensive))
        out = tmp_path / "curve.csv"
        code = main(["curve", "--spec", str(spec_path), "--mode", "causal",
                     "--budgets", "0.2,1.5", "--grid", "4", "--refine", "0",
                     "--vmax", "2", "--out", str(out)])
        assert code == 0
        _, _, rows = read_csv(out)
        assert rows[0][2] == "inf"
        assert rows[0][5] == ""
        assert float(rows[1][2]) < np.inf

    def test_bounds_mode_emits_one_row_per_scheme(self, tmp_path,
                                                  lossy_spec_file):
        out = tmp_path / "bounds.csv"
        code = main(["curve", "--spec", lossy_spec_file, "--mode", "bounds",
                     "--budgets", "0.25", "--distortion", "0.05",
                     "--grid", "6", "--vmax", "2", "--umax", "2",
                     "--out", str(out)])
        assert code == 0
        _, _, rows = read_csv(out)
        assert [row[3] for row in rows] == ["si-both", "si-decoder",
                                            "si-decoder-v"]
        for row in rows:
            assert float(row[1]) == 0.05
            if row[2] != "inf":
                assert float(row[2]) >= 0.0

    def test_bounds_mode_requires_distortion(self, capsys, lossy_spec_file):
        code = main(["curve", "--spec", lossy_spec_file, "--mode", "bounds",
                     "--budgets", "0.25", "--grid", "6", "--vmax", "2",
                     "--umax", "2"])
        assert code == 2
        assert "--distortion" in capsys.readouterr().err

    def test_lossy_mode_requires_distortion(self, capsys, lossy_spec_file):
        code = main(["curve", "--spec", lossy_spec_file, "--mode",
                     "lossy-causal", "--budgets", "0.25", "--grid", "6",
                     "--vmax", "2"])
        assert code == 2

    def test_malformed_spec_names_the_json_path(self, tmp_path, capsys):
        doc = json.loads(spec_to_json(make_binary_example(0.1)))
        doc["channel"][0][0] = [0.9, 0.2]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["curve", "--spec", str(bad), "--budgets", "0.1,0.2"])
        assert code == 2
        assert "channel[0][0]" in capsys.readouterr().err

    def test_non_finite_cost_names_the_json_path(self, tmp_path, capsys):
        doc = json.loads(spec_to_json(make_binary_example(0.1)))
        doc["cost"][0][0][0] = float("inf")  # json writes it as Infinity
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["curve", "--spec", str(bad), "--budgets", "0.1,0.2"])
        assert code == 2
        assert "cost[0][0]" in capsys.readouterr().err

    def test_missing_spec_file_exit_2(self, capsys, tmp_path):
        code = main(["curve", "--spec", str(tmp_path / "nope.json"),
                     "--budgets", "0.1,0.2"])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_oversized_search_refused_exit_2(self, capsys, lossy_spec_file):
        code = main(["curve", "--spec", lossy_spec_file, "--mode", "bounds",
                     "--budgets", "0.25", "--distortion", "0.05"])
        assert code == 2
        assert "above the configured limit" in capsys.readouterr().err


class TestSimulateCommand:
    ARGS = ["--mode", "binning", "--n", "12", "--trials", "30", "--seed", "4",
            "--rate", "0.8", "--vrate", "0.25", "--epsilon", "0.5"]

    def test_output_is_byte_identical_across_runs(self, tmp_path, spec_file,
                                                  aux_file):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(["simulate", "--spec", spec_file, "--aux", aux_file,
                         *self.ARGS, "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_exit_2(self, capsys, spec_file, aux_file, epsilon):
        args = [a if a != "0.5" else epsilon for a in self.ARGS]
        code = main(["simulate", "--spec", spec_file, "--aux", aux_file, *args])
        assert code == 2
        assert "epsilon" in capsys.readouterr().err

    def test_report_echoes_config(self, tmp_path, spec_file, aux_file):
        out = tmp_path / "r.json"
        main(["simulate", "--spec", spec_file, "--aux", aux_file, *self.ARGS,
              "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["seed"] == 4
        assert doc["n"] == 12
        assert doc["trials"] == 30
        assert doc["mode"] == "binning"
        assert 0.0 <= doc["error_rate"] <= 1.0
        assert sorted(doc) == list(doc)

    def test_rate_sweep_emits_a_list_with_falling_error(self, tmp_path,
                                                        spec_file, aux_file):
        out = tmp_path / "sweep.json"
        code = main(["simulate", "--spec", spec_file, "--aux", aux_file,
                     "--mode", "binning", "--n", "14", "--trials", "300",
                     "--seed", "31", "--rate", "0.3,0.9", "--vrate", "0.25",
                     "--epsilon", "0.5", "--out", str(out)])
        assert code == 0
        docs = json.loads(out.read_text())
        assert isinstance(docs, list) and len(docs) == 2
        np.testing.assert_allclose(
            [d["error_rate"] for d in docs], [1.0, 0.8433333333333334],
            atol=1e-12)

    def test_missing_aux_file_names_the_path(self, capsys, spec_file,
                                             tmp_path):
        missing = str(tmp_path / "ghost.json")
        code = main(["simulate", "--spec", spec_file, "--aux", missing,
                     *self.ARGS])
        assert code == 2
        assert "ghost.json" in capsys.readouterr().err

    def test_invalid_aux_document_names_the_json_path(self, capsys, spec_file,
                                                      tmp_path):
        bad = tmp_path / "bad_aux.json"
        bad.write_text(json.dumps({"policy": [[0, 2], [1, 0]],
                                   "v_marginal": [0.5, 0.5]}))
        code = main(["simulate", "--spec", spec_file, "--aux", str(bad),
                     *self.ARGS])
        assert code == 2
        assert "policy[0][1]" in capsys.readouterr().err

    def test_block_length_over_ceiling_exit_2(self, capsys, spec_file,
                                              aux_file):
        code = main(["simulate", "--spec", spec_file, "--aux", aux_file,
                     "--mode", "binning", "--n", "25", "--trials", "5",
                     "--rate", "0.8", "--vrate", "0.1"])
        assert code == 2


class TestVerifyCommand:
    def test_quick_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "level=quick" in out
        assert "8/8 checks passed" in out
        assert "FAIL" not in out

    def test_full_passes(self, capsys):
        assert main(["verify", "full", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "level=full" in out
        assert "seed=3" in out
        assert "14/14 checks passed" in out

    def test_degraded_grid_fails_the_solver_check_only(self, capsys):
        """grid_steps=2 cannot represent the optimal mixtures; the solver
        comparison must fail and name itself while everything else passes."""
        assert main(["verify", "full", "--grid", "2"]) == 1
        out = capsys.readouterr().out
        assert "FAIL solver-vs-closed-form" in out
        assert "13/14 checks passed" in out
        assert "grid_steps=2" in out

    def test_unknown_level_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "thorough"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

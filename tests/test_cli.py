"""End-to-end checks of the command-line front end.

Everything runs in process through cli.main so the tests can assert on
exit codes, stdout and written files without spawning interpreters.
"""

import dataclasses
import re

import pytest

from pulsepair import cli, pauli
from pulsepair.cli import main
from pulsepair.config import format_config
from pulsepair.scenarios import paper_figure_presets
from pulsepair.validation import CheckResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(err):
    # main returned instead of raising, so no traceback reached stderr
    assert err.count("error:") == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


class TestNegativity:
    def test_singlet_output_verbatim(self, capsys):
        code, out, _ = run(capsys, "negativity", "--", "-1", "-1", "-1")
        assert code == 0
        assert out.splitlines() == [
            "mu_1 = -0.500000000000",
            "mu_2 = 0.500000000000",
            "mu_3 = 0.500000000000",
            "mu_4 = 0.500000000000",
            "E = 1.000000000000",
        ]

    def test_product_state_is_separable(self, capsys):
        code, out, _ = run(capsys, "negativity", "0", "0", "0")
        assert code == 0
        assert out.splitlines()[-1] == "E = 0.000000000000"

    def test_partially_entangled_value(self, capsys):
        code, out, _ = run(capsys, "negativity", "--", "-0.9", "-0.8", "-0.7")
        assert code == 0
        assert out.splitlines()[-1] == "E = 0.700000000000"

    def test_unphysical_input_exits_4(self, capsys):
        code, out, err = run(capsys, "negativity", "--", "-0.9", "-0.8", "-0.6")
        assert code == 4
        assert out == ""
        assert "error:" in err

    def test_non_finite_input_exits_4(self, capsys):
        code, out, err = run(capsys, "negativity", "--", "nan", "-0.5", "-0.5")
        assert code == 4
        assert out == ""
        assert_one_error_line(err)

    def test_wrong_arity_is_a_parse_failure(self, capsys):
        code, _, _ = run(capsys, "negativity", "0.1", "0.2")
        assert code == 1

    def test_non_numeric_argument(self, capsys):
        code, _, _ = run(capsys, "negativity", "a", "b", "c")
        assert code == 1


class TestPreset:
    def test_writes_801_rows(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, "preset", "fig3a", "--out", "fig3a.csv")
        assert code == 0
        lines = (tmp_path / "fig3a.csv").read_text("ascii").splitlines()
        assert len(lines) == 802
        assert lines[0] == "param,E_bell,E_werner,E_genwerner,imag_residue"

    def test_default_output_name(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, "preset", "fig1a")
        assert code == 0
        assert (tmp_path / "fig1a.csv").exists()

    def test_unknown_preset_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "preset", "fig9")
        assert code == 2
        assert "fig9" in err
        assert "fig5d" in err  # the message lists what is available

    def test_mode_override_is_literal(self, capsys, tmp_path, monkeypatch):
        # verbatim closed forms freeze the resonant exponential sweep at a
        # constant, unlike the oscillating unitary curve
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, "preset", "fig3b", "--mode", "literal", "--out", "lit.csv")
        assert code == 0
        rows = (tmp_path / "lit.csv").read_text("ascii").splitlines()[1:]
        e_bell = {row.split(",")[1] for row in rows}
        assert e_bell == {"0.5"}

    def test_reruns_are_byte_identical(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "preset", "fig1b", "--out", "a.csv")[0] == 0
        assert run(capsys, "preset", "fig1b", "--out", "b.csv")[0] == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_unwritable_output_exits_3(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "preset", "fig1a", "--out", str(tmp_path / "missing" / "f.csv")
        )
        assert code == 3
        assert "cannot write" in err


    def test_jacobi_non_convergence_exits_1(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(pauli, "_MAX_SWEEPS", 0)
        out = tmp_path / "fig1a.csv"
        code, _, err = run(capsys, "preset", "fig1a", "--out", str(out))
        assert code == 1
        assert_one_error_line(err)
        assert "failed to converge" in err
        assert not out.exists()


class TestSweep:
    def test_config_to_csv(self, capsys, tmp_path):
        cfg = paper_figure_presets()["fig4a"]
        cfg = dataclasses.replace(
            cfg, grid=dataclasses.replace(cfg.grid, points=11)
        )
        path = tmp_path / "sweep.cfg"
        path.write_text(format_config(cfg), "ascii")
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--config", str(path), "--out", str(out))
        assert code == 0
        assert len(out.read_text("ascii").splitlines()) == 12

    def test_missing_config_exits_3(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "sweep",
            "--config",
            str(tmp_path / "nope.cfg"),
            "--out",
            str(tmp_path / "x.csv"),
        )
        assert code == 3
        assert "cannot read" in err

    def test_defective_config_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("family = rect_vs_area\n", "ascii")
        code, _, err = run(
            capsys, "sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")
        )
        assert code == 1
        assert "bad config" in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("detuning_prime_a", "nan"),
            ("grid_stop", "inf"),
            # finite, but the literal combined map overflows into NaN rows
            ("detuning_prime_a", "1e200"),
            # finite, but rect_omega**2 underflows to a zero divisor
            ("rect_omega", "1e-200"),
            # an integer, but far too many grid points to allocate
            ("grid_points", "100000000000000000000"),
        ],
    )
    def test_unusable_number_exits_1_without_csv(self, capsys, tmp_path, key, value):
        cfg = paper_figure_presets()["fig5a"]
        cfg = dataclasses.replace(cfg, grid=dataclasses.replace(cfg.grid, points=11))
        text = format_config(cfg).replace("mode = unitary", "mode = literal")
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        assert count == 1
        path = tmp_path / "sweep.cfg"
        path.write_text(text, "ascii")
        out = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "sweep", "--config", str(path), "--out", str(out))
        assert code == 1
        assert_one_error_line(err)
        assert "bad config" in err
        assert not out.exists()

    def test_non_ascii_config_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes("family = rect_vs_area  # \u00e9\n".encode("utf-8"))
        out = tmp_path / "x.csv"
        code, _, err = run(capsys, "sweep", "--config", str(path), "--out", str(out))
        assert code == 1
        assert_one_error_line(err)
        assert "bad config" in err
        assert not out.exists()

    def test_mode_flag_overrides_config(self, capsys, tmp_path):
        cfg = paper_figure_presets()["fig1b"]
        cfg = dataclasses.replace(cfg, grid=dataclasses.replace(cfg.grid, points=21))
        path = tmp_path / "cfg"
        path.write_text(format_config(cfg), "ascii")
        out = tmp_path / "out.csv"
        code, _, _ = run(
            capsys, "sweep", "--config", str(path), "--mode", "literal", "--out", str(out)
        )
        assert code == 0
        residues = [
            float(line.split(",")[-1])
            for line in out.read_text("ascii").splitlines()[1:]
        ]
        assert max(residues) > 1e-6

    def test_mode_must_be_known(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "sweep",
            "--config",
            "whatever",
            "--mode",
            "exact",
            "--out",
            str(tmp_path / "x.csv"),
        )
        assert code == 1


class TestValidate:
    @pytest.fixture()
    def stub_results(self, monkeypatch):
        def fake(seed=0):
            return (
                CheckResult("alpha", 1.0e-12, 1.0e-9, True),
                CheckResult("beta", 2.0e-3, 1.0e-6, False),
            )

        monkeypatch.setattr(cli, "run_validation", fake)

    def test_failure_reporting_and_exit_5(self, capsys, stub_results):
        code, out, err = run(capsys, "validate")
        assert code == 5
        lines = out.splitlines()
        assert lines[0] == "check alpha max_error=1.000e-12 tolerance=1.000e-09 status=PASS"
        assert lines[1] == "check beta max_error=2.000e-03 tolerance=1.000e-06 status=FAIL"
        assert lines[-1] == "validation: 1/2 checks passed (seed=0)"
        assert "beta" in err

    def test_notes_are_printed(self, capsys, stub_results):
        _, out, _ = run(capsys, "validate")
        notes = [line for line in out.splitlines() if line.startswith("note: ")]
        assert len(notes) == 2
        assert any("constant" in n for n in notes)

    def test_seed_is_threaded_through(self, capsys, monkeypatch):
        seen = {}

        def fake(seed=0):
            seen["seed"] = seed
            return (CheckResult("alpha", 0.0, 1.0, True),)

        monkeypatch.setattr(cli, "run_validation", fake)
        code, out, _ = run(capsys, "validate", "--seed", "7")
        assert code == 0
        assert seen["seed"] == 7
        assert out.splitlines()[-1].endswith("(seed=7)")


class TestParsing:
    def test_no_subcommand(self, capsys):
        assert run(capsys, )[0] == 1

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "resonate")[0] == 1

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "negativity" in out

    def test_diag_honors_no_color(self, capsys, monkeypatch):
        monkeypatch.setenv("NO_COLOR", "1")
        _, _, err = run(capsys, "preset", "fig9")
        assert "\x1b[" not in err


@pytest.mark.slow
class TestValidateForReal:
    def test_seed_42_passes(self, capsys):
        code, out, _ = run(capsys, "validate", "--seed", "42")
        assert code == 0
        assert out.splitlines()[-1].startswith("validation: ")
        assert "status=FAIL" not in out

    def test_seed_43_passes(self, capsys):
        code, out, _ = run(capsys, "validate", "--seed", "43")
        assert code == 0
        assert "status=FAIL" not in out

"""End-to-end checks of the command-line front end.

Most checks run in process through cli.main so the tests can assert on
exit codes, stdout and written files without spawning interpreters; the
process's own streams and its exit run in child interpreters.
"""

import dataclasses
import errno
import gc
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pulsepair
from pulsepair import cli, pauli
from pulsepair.cli import main
from pulsepair.config import format_config
from pulsepair.entanglement import _clamp, zero_bloch_negativity_batch
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

    def test_never_reaches_the_jacobi_solver(self, capsys, monkeypatch):
        # the one-shot command takes the closed form, so a solver that cannot
        # converge does not matter to it
        monkeypatch.setattr(pauli, "_MAX_SWEEPS", 0)
        code, out, _ = run(capsys, "negativity", "--", "-0.9", "-0.8", "-0.7")
        assert code == 0
        assert out.splitlines()[-1] == "E = 0.700000000000"

    def test_closed_form_value_is_correctly_rounded(self, capsys):
        # exact rational arithmetic on these floats gives E = 0.3582571949905004...;
        # the Jacobi solve of the density printed 0.358257194990
        c = (-0.4852517337247251, 0.3780353789266515, 0.8532272773296243)
        code, out, _ = run(capsys, "negativity", "--", *map(repr, c))
        assert code == 0
        assert out.splitlines()[-1] == "E = 0.358257194991"
        assert out.splitlines()[-1] == f"E = {_clamp(zero_bloch_negativity_batch(np.diag(c))):.12f}"


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

    def test_jacobi_non_convergence_exits_1(self, capsys, tmp_path, monkeypatch):
        # fig1b/literal sends its two cells with the 12th digit in doubt to Jacobi
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(pauli, "_MAX_SWEEPS", 0)
        code, out, err = run(capsys, "preset", "fig1b", "--mode", "literal")
        assert code == 1
        assert out == ""
        assert_one_error_line(err)
        assert "failed to converge" in err
        assert not (tmp_path / "fig1b.csv").exists()

    def test_unwritable_output_exits_3(self, capsys, tmp_path):
        # the line names the path given, not the temporary file written beside it
        out = tmp_path / "missing" / "f.csv"
        code, _, err = run(capsys, "preset", "fig1a", "--out", str(out))
        assert code == 3
        assert err == f"error: cannot write output to {str(out)!r}: No such file or directory\n"

    @pytest.mark.parametrize("existing", [None, "file", "dir"])
    def test_output_path_ending_in_a_separator_exits_3_and_writes_nothing(self, capsys, tmp_path, existing):
        # a trailing separator names a directory; the write fails as a plain open(path, "w") does
        if existing == "file":
            (tmp_path / "newname").write_text("earlier\n", "ascii")
        elif existing == "dir":
            (tmp_path / "newname").mkdir()
        out = str(tmp_path / "newname") + os.sep
        with pytest.raises(OSError) as plain:
            open(out, "w")
        code, stdout, err = run(capsys, "preset", "fig1a", "--out", out)
        assert (code, stdout) == (3, "")
        assert_one_error_line(err)
        assert err == f"error: cannot write output to {out!r}: {plain.value.strerror}\n"
        assert [p.name for p in tmp_path.iterdir()] == ([] if existing is None else ["newname"])
        if existing == "file":
            assert (tmp_path / "newname").read_text("ascii") == "earlier\n"
        elif existing == "dir":
            assert not any((tmp_path / "newname").iterdir())


    @pytest.mark.parametrize("through", ["missing", "file"])
    def test_output_path_through_a_missing_or_non_directory_component_exits_3_and_writes_nothing(
        self, capsys, tmp_path, through
    ):
        # x/.. fails as a plain open(path, "w") does when x is missing or a file, though realpath would collapse it
        if through == "file":
            (tmp_path / "afile").write_text("earlier\n", "ascii")
        out = os.path.join(str(tmp_path / ("afile" if through == "file" else "nonexist")), os.pardir, "o.csv")
        with pytest.raises((FileNotFoundError, NotADirectoryError)[through == "file"]) as plain:
            open(out, "w")
        code, stdout, err = run(capsys, "preset", "fig1a", "--out", out)
        assert (code, stdout) == (3, "")
        assert_one_error_line(err)
        assert err == f"error: cannot write output to {out!r}: {plain.value.strerror}\n"
        assert [p.name for p in tmp_path.iterdir()] == ([] if through == "missing" else ["afile"])
        if through == "file":
            assert (tmp_path / "afile").read_text("ascii") == "earlier\n"


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

    def test_mode_must_be_known(self, capsys, tmp_path, monkeypatch):
        # a config file's mode key sets a sweep's mode; only preset takes --mode
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "preset", "fig1a", "--mode", "exact")
        assert code == 1
        assert "invalid choice: 'exact'" in err
        assert not list(tmp_path.iterdir())


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

    def test_negative_seed_is_one_error_line(self, capsys):
        code, out, err = run(capsys, "validate", "--seed", "-1")
        assert code == 1
        assert out == ""
        assert_one_error_line(err)
        assert "seed" in err


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


class FullStdout(io.StringIO):
    """A stdout on a full disk: the named method fails with ENOSPC."""

    def __init__(self, failing):
        super().__init__()
        self.failing = failing

    def write(self, text):
        self._fail("write")
        return super().write(text)

    def flush(self):
        self._fail("flush")

    def _fail(self, method):
        if method == self.failing:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestStdout:
    @pytest.mark.parametrize("failing", ["write", "flush"])
    @pytest.mark.parametrize("argv", [["negativity", "--", "-1", "-1", "-1"], ["validate"]])
    def test_a_failed_write_to_stdout_exits_3(self, capsys, monkeypatch, argv, failing):
        monkeypatch.setattr(cli, "run_validation", lambda seed=0: (CheckResult("alpha", 0.0, 1.0, True),))
        monkeypatch.setattr(sys, "stdout", FullStdout(failing))
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert_one_error_line(err)
        assert os.strerror(errno.ENOSPC) in err

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_a_closed_pipe_on_the_process_stdout_exits_3_without_a_second_error(self, unbuffered):
        # a buffered stdout is flushed once more at exit; main points it at
        # devnull so that flush cannot fail a second time (exit 120)
        child = run_on_closed_pipe(["negativity", "--", "-1", "-1", "-1"], "stdout", unbuffered)
        assert child.returncode == 3
        assert_one_error_line(child.stderr)
        assert child.stderr.count("\n") == 1

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_help_to_a_closed_pipe_exits_3_without_a_second_error(self, unbuffered):
        # argparse drops an OSError of its own writes: unbuffered, the help is lost with exit 0
        child = run_on_closed_pipe(["--help"], "stdout", unbuffered)
        assert child.returncode == 3
        assert_one_error_line(child.stderr)
        assert child.stderr.count("\n") == 1

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize(
        "argv, code", [(["preset", "fig9"], 2), (["preset"], 1), (["validate", "--seed", "-1"], 1)]
    )
    def test_a_closed_pipe_on_the_process_stderr_keeps_the_exit_code(self, argv, code, unbuffered):
        # the error line is lost, not the code; buffered, the exit flush of stderr fails too
        child = run_on_closed_pipe(argv, "stderr", unbuffered)
        assert child.returncode == code
        assert child.stdout == ""

    @pytest.mark.parametrize("argv", [["negativity", "--", "-1", "-1", "-1"], ["validate"], ["--help"]])
    def test_a_closed_stdout_exits_3_as_a_full_one_does(self, argv, tmp_path):
        # with fd 1 closed the interpreter sets sys.stdout to None, and print drops its text
        child = run_with_closed_fds(argv, tmp_path, [1])
        assert child.returncode == 3
        assert child.stderr == f"error: [Errno {errno.EBADF}] {os.strerror(errno.EBADF)}\n"

    @pytest.mark.parametrize("fds, unbuffered", [([1], ""), ([1, 2], ""), ([1, 2], "1")])
    @pytest.mark.parametrize("command", [["preset", "fig3a"], ["sweep", "--config", "fig3a.cfg"]])
    def test_a_closed_stdout_leaves_a_csv_run_at_exit_0(self, command, fds, unbuffered, tmp_path):
        (tmp_path / "fig3a.cfg").write_text(format_config(paper_figure_presets()["fig3a"]), "ascii")
        child = run_with_closed_fds([*command, "--out", "out.csv"], tmp_path, fds, unbuffered)
        assert (child.returncode, child.stderr) == (0, None if 2 in fds else "")
        assert main(["preset", "fig3a", "--out", str(tmp_path / "ref.csv")]) == 0
        assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["preset", "fig9"], 2),
            (["sweep", "--config", "missing.cfg", "--out", "x.csv"], 3),
            (["negativity", "--", "2", "2", "2"], 4),
            (["validate", "--seed", "-1"], 1),
        ],
    )
    def test_a_closed_stderr_keeps_the_exit_code(self, argv, code, unbuffered, tmp_path):
        # with fd 2 closed the interpreter sets sys.stderr to None: the error line is lost, not the code
        child = run_with_closed_fds(argv, tmp_path, [2], unbuffered)
        assert (child.returncode, child.stdout) == (code, "")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("argv", [["negativity", "--", "-1", "-1", "-1"], ["validate"], ["--help"]])
    def test_closed_stdout_and_stderr_exit_3_without_a_second_error(self, argv, unbuffered, tmp_path):
        # neither stream takes a byte; the exit flushes cannot fail a second time (exit 120)
        assert run_with_closed_fds(argv, tmp_path, [1, 2], unbuffered).returncode == 3


class TestExit:
    # `python -c` leaves sys.argv[1:] to the arguments, as the console script does
    ENTRY = (
        "import gc, sys\n"
        "from pulsepair import cli\n"
        "def exit(code):\n"
        "    print('frozen', gc.get_freeze_count(), 'code', code, file=sys.stderr)\n"
        "    raise SystemExit(code)\n"
        "sys.exit = exit\n"
        "cli.entry()\n"
    )

    @pytest.mark.parametrize("argv, code", [(["negativity", "--", "-1", "-1", "-1"], 0), (["preset", "fig9"], 2)])
    def test_entry_freezes_the_heap_and_exits_with_the_code_of_main(self, argv, code):
        # the collections at shutdown skip a frozen heap
        child = subprocess.run(
            [sys.executable, "-c", self.ENTRY, *argv], env=child_env(), capture_output=True, text=True
        )
        frozen, count, said, exit_code = child.stderr.splitlines()[-1].split()
        assert (frozen, said) == ("frozen", "code")
        assert int(count) > 0
        assert int(exit_code) == child.returncode == code

    def test_main_leaves_the_heap_collectable(self, capsys):
        before = gc.get_freeze_count()
        assert run(capsys, "negativity", "--", "-1", "-1", "-1")[0] == 0
        assert gc.get_freeze_count() == before


def child_env(unbuffered=""):
    """The environment of a child interpreter that imports this package."""
    path = [str(Path(pulsepair.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), "PYTHONUNBUFFERED": unbuffered}


def run_on_closed_pipe(argv, stream, unbuffered):
    """Run ``python -m pulsepair.cli`` with ``stream`` on a pipe whose read end is closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: write_end}
    try:
        return subprocess.run(
            [sys.executable, "-m", "pulsepair.cli", *argv], env=child_env(unbuffered), text=True, **pipes
        )
    finally:
        os.close(write_end)


def run_with_closed_fds(argv, cwd, fds, unbuffered=""):
    """Run ``python -m pulsepair.cli`` in ``cwd`` with ``fds`` closed, as ``>&-`` and ``2>&-`` leave them in a shell.

    The child closes them itself, so the test does not depend on whether a shell's ``2>&-`` reaches the interpreter.
    """
    return subprocess.run(
        [sys.executable, "-m", "pulsepair.cli", *argv],
        cwd=cwd,
        env=child_env(unbuffered),
        stdout=None if 1 in fds else subprocess.PIPE,
        stderr=None if 2 in fds else subprocess.PIPE,
        text=True,
        preexec_fn=lambda: [os.close(fd) for fd in fds],
    )


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

"""Seeded inputs, timed jobs and output checks of the three workloads.

Every workload is a closed loop with one client: the next job starts only
after the previous one has finished and been checked.

* ``figures``: one job is one preset sweep (12 presets x unitary/literal)
  through ``run_sweep`` to CSV bytes, in the package's own process.  Each
  pass runs all 24 sweeps in a seeded order.
* ``validate``: one job is ``run_validation`` with a seeded seed.
* ``cli``: one job is one fresh ``python -m pulsepair.cli`` process, from
  process start to its exit with the CSV on disk.  Jobs come in seeded
  blocks of six presets (three unitary, three literal), two generated sweep
  configs (one grid below 801 points, one above, three random states each)
  and one ``negativity`` call.  Every four blocks run each of the 24
  preset/mode pairs once, so every seed carries the same mix of work.

Each runner's ``block`` is the workload's unit of work: a pass, one
validation, or one block of nine CLI jobs.  A timed run measures at least
``min_blocks`` blocks and ends on a block boundary, so every seed runs the
same mix; ``job_tail_s`` is read over those first ``min_blocks`` blocks,
and a traced run traces the first block.  Only the generated inputs reach
the program; the seed stays here.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import threading
import time

import pulsepair
from pulsepair import cli, config, evolution, pulses, scenarios, validation

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference_digests.json")
LAUNCHER = os.path.join(BENCH_DIR, "launch_cli.py")

# A child that runs longer than this is killed and its job counts as failed.
CHILD_TIMEOUT_S = 150.0

# Plans are longer than any run can use; a run stops at its deadline.
FIGURES_PASSES = 40
VALIDATE_JOBS = 20
CLI_BLOCKS = 40

# Grid sizes of generated sweeps: one draw below the presets' 801 points
# and one above, per block.  Like the presets, each sweep has three initial
# states; keeping the cells per block within a narrow range keeps the work
# per block, and so cells_per_s, the same from seed to seed.
SMALL_GRID = (401, 800)
LARGE_GRID = (802, 1201)
SWEEP_STATES = 3
# Presets of each mode in one CLI block.
BLOCK_PRESETS = 3


@dataclasses.dataclass(frozen=True)
class Job:
    kind: str
    key: str
    cells: int
    argv: tuple = ()
    seed: int = 0


@dataclasses.dataclass
class Outcome:
    seconds: float
    cells: int
    error: str | None = None
    rss_kb: int = 0
    trace: dict | None = None
    start: float = 0.0
    calibration: float | None = None


def load_references(path=REFERENCE_PATH):
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def preset_configs():
    """All 24 preset sweeps keyed '<preset>/<mode>'."""
    configs = {}
    for name, cfg in pulsepair.paper_figure_presets().items():
        for mode in pulses.CoefficientMode:
            configs[f"{name}/{mode.value}"] = dataclasses.replace(cfg, mode=mode)
    return configs


def _cells(cfg) -> int:
    return cfg.grid.points * len(cfg.initial_states)


def _random_state(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return evolution.InitialState.bell_singlet()
    if kind == 1:
        return evolution.InitialState.werner(round(rng.uniform(-1.0, 1.0 / 3.0), 6))
    return evolution.InitialState.generalized_werner(*_physical_correlations(rng))


def _physical_correlations(rng):
    """Diagonal correlations whose density matrix is positive with margin."""
    while True:
        c = tuple(round(rng.uniform(-1.0, 1.0), 6) for _ in range(3))
        c1, c2, c3 = c
        spectrum = (1 + c1 - c2 + c3, 1 - c1 + c2 + c3, 1 + c1 + c2 - c3, 1 - c1 - c2 - c3)
        if min(spectrum) > 0.01:
            return c


def _grid_ends_inside(stop: float, points: int) -> bool:
    # GridSpec.values() computes start + step * i; the last node must not
    # round past stop, or the combined family's rectangle window (which
    # ends at stop) would reject it.
    step = stop / (points - 1)
    return 0.0 + step * (points - 1) <= stop


def random_sweep_config(rng, points: int):
    """A valid SweepConfig of random family, drive, mode, detunings and states."""
    family = rng.choice(list(scenarios.SweepFamily))
    mode = rng.choice(list(pulses.CoefficientMode))
    if family is scenarios.SweepFamily.COMBINED_VS_TIME:
        drive = scenarios.DriveMode.BOTH_QUBITS
    else:
        drive = rng.choice(list(scenarios.DriveMode))
    both = drive is scenarios.DriveMode.BOTH_QUBITS
    detuning = (0.0, 0.0)
    ratio = (0.0, 0.0)
    rect_omega = 1.0
    if family is scenarios.SweepFamily.RECT_VS_AREA:
        detuning = (round(rng.uniform(-5.0, 5.0), 3), round(rng.uniform(-5.0, 5.0), 3) if both else 0.0)
        stop_range = (2.0, 20.0)
    elif family is scenarios.SweepFamily.EXP_VS_TIME:
        ratio = (round(rng.uniform(0.5, 10.0), 3), round(rng.uniform(0.5, 10.0), 3) if both else 0.0)
        stop_range = (1.0, 8.0)
    else:
        detuning = (round(rng.uniform(-5.0, 5.0), 3), 0.0)
        ratio = (0.0, round(rng.uniform(0.5, 10.0), 3))
        rect_omega = round(rng.uniform(0.5, 3.0), 3)
        stop_range = (1.0, 8.0)
    stop = round(rng.uniform(*stop_range), 3)
    while not _grid_ends_inside(stop, points):
        stop = round(rng.uniform(*stop_range), 3)
    states = tuple(_random_state(rng) for _ in range(SWEEP_STATES))
    return scenarios.SweepConfig(
        family=family,
        initial_states=states,
        drive=drive,
        grid=scenarios.GridSpec(0.0, stop, points),
        mode=mode,
        detuning_prime=detuning,
        rabi_ratio=ratio,
        rect_omega=rect_omega,
    )


def plan_figures(seed: int):
    rng = random.Random(seed)
    configs = preset_configs()
    keys = sorted(configs)
    jobs = []
    for _ in range(FIGURES_PASSES):
        order = keys[:]
        rng.shuffle(order)
        jobs.extend(Job("figure", key, _cells(configs[key])) for key in order)
    return jobs


def plan_validate(seed: int):
    rng = random.Random(seed)
    return [Job("validate", f"seed={s}", 0, seed=s) for s in (rng.randrange(2**31) for _ in range(VALIDATE_JOBS))]


def plan_cli(seed: int, work_dir: str):
    """The CLI job list; writes each generated sweep config into work_dir."""
    rng = random.Random(seed)
    names = sorted(pulsepair.paper_figure_presets())
    cycle = len(names) // BLOCK_PRESETS  # blocks that take every preset once per mode
    jobs = []
    for block in range(CLI_BLOCKS):
        if block % cycle == 0:
            unitary, literal = rng.sample(names, len(names)), rng.sample(names, len(names))
        first = BLOCK_PRESETS * (block % cycle)
        picked = slice(first, first + BLOCK_PRESETS)
        batch = [Job("preset", f"{name}/unitary", 2403, ("preset", name)) for name in unitary[picked]]
        batch += [Job("preset", f"{name}/literal", 2403, ("preset", name, "--mode", "literal")) for name in literal[picked]]
        for low, high in (SMALL_GRID, LARGE_GRID):
            cfg = random_sweep_config(rng, rng.randint(low, high))
            path = os.path.join(work_dir, f"sweep{block:03d}_{len(batch)}.cfg")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(config.format_config(cfg))
            batch.append(Job("sweep", path, _cells(cfg), ("sweep", "--config", path)))
        c = _physical_correlations(rng)
        batch.append(Job("negativity", "negativity", 1, ("negativity", "--") + tuple(f"{v:.6f}" for v in c)))
        rng.shuffle(batch)
        jobs.extend(batch)
    return jobs


class FiguresRunner:
    in_process = True
    block = 24
    # 96 sweeps put the tail at p89.6, at least ten sweeps from the top
    min_blocks = 4

    def __init__(self, work_dir, references):
        self.configs = preset_configs()
        self.references = references

    def plan(self, seed):
        return plan_figures(seed)

    def execute(self, job, index, tracer):
        cfg = self.configs[job.key]
        start = time.perf_counter()
        data = scenarios.run_sweep(cfg).csv_text().encode("ascii")
        seconds = time.perf_counter() - start
        expected = self.references.get(job.key)
        error = None if digest(data) == expected else f"{job.key}: CSV digest differs from the reference"
        return Outcome(seconds, job.cells, error, start=start)


class ValidateRunner:
    in_process = True
    block = 1
    min_blocks = 2

    def __init__(self, work_dir, references):
        # run_validation sweeps every preset in both modes; those are its cells
        self.cells = sum(_cells(cfg) for cfg in preset_configs().values())

    def plan(self, seed):
        return plan_validate(seed)

    def execute(self, job, index, tracer):
        start = time.perf_counter()
        results = validation.run_validation(job.seed)
        seconds = time.perf_counter() - start
        failed = [r.name for r in results if not r.passed]
        error = f"{job.key}: checks failed: {', '.join(failed)}" if failed else None
        return Outcome(seconds, self.cells, error, start=start)


class CliRunner:
    in_process = False
    block = 2 * BLOCK_PRESETS + 3
    # four blocks run every preset/mode pair once; their 36 jobs put the
    # tail at p72.2, ten jobs from the top
    min_blocks = 4

    def __init__(self, work_dir, references):
        self.work_dir = work_dir
        self.references = references
        self.env = child_env()

    def plan(self, seed):
        return plan_cli(seed, self.work_dir)

    def execute(self, job, index, tracer):
        out_csv = os.path.join(self.work_dir, f"job{index}.csv")
        stdout_path = os.path.join(self.work_dir, f"job{index}.stdout")
        stderr_path = os.path.join(self.work_dir, f"job{index}.stderr")
        spans_path = os.path.join(self.work_dir, f"job{index}.trace.json")
        argv = list(job.argv)
        if job.kind != "negativity":
            argv += ["--out", out_csv]
        if tracer is None:
            command = [sys.executable, "-m", "pulsepair.cli", *argv]
        else:
            command = [sys.executable, LAUNCHER, spans_path, *argv]
        code, seconds, rss_kb = run_child(command, self.env, stdout_path, stderr_path)
        outcome = Outcome(seconds, job.cells, rss_kb=rss_kb)
        try:
            if code != 0:
                with open(stderr_path, encoding="utf-8", errors="replace") as fh:
                    outcome.error = f"{' '.join(job.argv)}: exit {code}: {fh.read().strip()[-300:]}"
            else:
                outcome.error = self.check(job, out_csv, stdout_path)
                if tracer is not None:
                    with open(spans_path, encoding="ascii") as fh:
                        outcome.trace = json.load(fh)
        finally:
            for path in (out_csv, stdout_path, stderr_path, spans_path):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
        return outcome

    def check(self, job, out_csv, stdout_path):
        """Compare the child's output with the reference digest or an in-process run."""
        if job.kind == "preset":
            with open(out_csv, "rb") as fh:
                ok = digest(fh.read()) == self.references.get(job.key)
            return None if ok else f"{job.key}: CSV digest differs from the reference"
        if job.kind == "sweep":
            reference = out_csv + ".ref"
            try:
                code = cli.main(["sweep", "--config", job.key, "--out", reference])
                with open(reference, "rb") as fh, open(out_csv, "rb") as got:
                    ok = code == 0 and fh.read() == got.read()
            finally:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(reference)
            return None if ok else f"sweep {job.key}: CSV differs from the in-process run"
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(list(job.argv))
        with open(stdout_path, encoding="ascii") as fh:
            ok = code == 0 and fh.read() == buffer.getvalue()
        return None if ok else f"{' '.join(job.argv)}: output differs from the in-process run"


RUNNERS = {"figures": FiguresRunner, "validate": ValidateRunner, "cli": CliRunner}


def child_env():
    """Environment of every child: the checkout's src first, one BLAS thread."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(pulsepair.__file__)))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(command, env, stdout_path, stderr_path):
    """Run one child to completion: (exit code, wall seconds, peak RSS in KiB).

    The child is reaped with wait4 so that its own peak RSS is known; a
    timer kills it if it outlives CHILD_TIMEOUT_S.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss

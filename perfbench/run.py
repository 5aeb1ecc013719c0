"""End-to-end benchmark of the `histolim` command line, with a traced
per-layer run.

    python3 perfbench/run.py --workload {verdicts,montecarlo,export} \\
        --seed N --seconds S --trace {0,1}

Closed loop, one client: this process starts one CLI command at a time,
each in a fresh interpreter (perfbench/child.py), and starts the next only
after the previous one has exited.  A pass runs every command of the
workload once; passes repeat until ``--seconds`` have gone by, so the last
pass may end up to one pass later.  The seed is passed to every stochastic
command as ``--seed``; the sampling-free `verdicts` commands ignore it.

Every output is checked byte for byte: against the sha256 recorded in
`digests.json` for this seed when there is one, and always against the
first pass of the run (rerun equality).  `montecarlo` commands are also
rerun once, untimed, with ``--jobs 1`` and must give the same bytes.  A
command fails if it exits non-zero, writes to stderr, or its output
differs; failures are counted in ``failed``.

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
times are scaled to a reference host speed by a calibration task timed
before every command (see `host_speed`).
``--trace 1`` alternates untraced and traced passes, runs the layer probes
(probes.py) once, and prints the per-layer metrics.  The last line of
standard output is the result object; a full record with an environment
block goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
RESULTS = BENCH / "results"
DIGESTS = BENCH / "digests.json"
REL = BENCH.relative_to(ROOT).as_posix()
COMMAND_TIMEOUT_S = 90  # a hung command is killed and fails the run
# Typical time of `calibrate()` on the 2-vCPU machine the benchmark was
# written on; end-to-end times are scaled to a host running it this fast.
CALIBRATION_REF_S = 0.06
SEED = "{seed}"

# (name, unit, better); bounds live in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
SUBCOMMANDS = ("check", "mean", "diagnose", "sample", "path")


@dataclass(frozen=True)
class Sizes:
    gaussian_check_depth: int
    mean_depth: int
    mc_replicates: int
    mc_depths: str
    export_depth: int
    export_replicates: int
    probes: dict                 # probe kind -> ((metric, size), ...)


FULL = Sizes(
    gaussian_check_depth=14, mean_depth=11,
    mc_replicates=10_000, mc_depths="2,3,4,5,6,7,8",
    export_depth=10, export_replicates=500,
    probes={
        "refinement": (("partitions.refinement14_s", 14),
                       ("partitions.refinement16_s", 16)),
        "tv_curve": (("diagnostics.tv_curve10_s", 10),),
        "sigma_kernel": tuple((f"systems.sigma_kernel{d}_s", d) for d in (5, 6, 7)),
        "stack": (("sampling.stack12_dirichlet_s", ("dirichlet_lebesgue.json", 12, 10_000)),
                  ("sampling.stack12_polya_m2_s", ("polya_m2.json", 12, 10_000)),
                  ("sampling.stack12_gaussian_diagonal_s",
                   ("gaussian_diagonal.json", 12, 10_000))),
    },
)

# Smallest sizes that still run every code path (selfcheck.py).  Metric
# names keep the full-size labels.
TINY = Sizes(
    gaussian_check_depth=6, mean_depth=5,
    mc_replicates=1000, mc_depths="2,3,4",
    export_depth=4, export_replicates=20,
    probes={
        "refinement": (("partitions.refinement14_s", 5),
                       ("partitions.refinement16_s", 6)),
        "tv_curve": (("diagnostics.tv_curve10_s", 4),),
        "sigma_kernel": tuple((f"systems.sigma_kernel{d}_s", d - 3) for d in (5, 6, 7)),
        "stack": (("sampling.stack12_dirichlet_s", ("dirichlet_lebesgue.json", 5, 200)),
                  ("sampling.stack12_polya_m2_s", ("polya_m2.json", 5, 200)),
                  ("sampling.stack12_gaussian_diagonal_s",
                   ("gaussian_diagonal.json", 5, 200))),
    },
)


@dataclass(frozen=True)
class Command:
    name: str
    args: tuple[str, ...]        # CLI arguments; SEED marks the seed

    @property
    def subcommand(self) -> str:
        return self.args[0]

    @property
    def seeded(self) -> bool:
        return SEED in self.args

    @property
    def key(self) -> str:
        """Digest key: the command line without the seed and output path."""
        return " ".join(self.args)

    def argv(self, seed: int, out: Path) -> list[str]:
        args = [str(seed) if a == SEED else a for a in self.args]
        return args + ["--out", str(out.relative_to(ROOT))]

    def with_jobs(self, jobs: int) -> "Command":
        args = list(self.args)
        args[args.index("--jobs") + 1] = str(jobs)
        return Command(self.name, tuple(args))


def _system(name: str) -> str:
    return f"{REL}/systems/{name}.json"


VERDICT_SYSTEMS = ("polya_m2", "polya_cantor_trig", "polya_dirichlet_match",
                   "dirichlet_lebesgue", "dirichlet_atoms", "gaussian_diagonal",
                   "gaussian_kernel", "gaussian_point_mass")


def workloads(s: Sizes) -> dict[str, tuple[Command, ...]]:
    verdicts = tuple(
        Command(f"check-{n}", ("check", "--system", _system(n))
                + (("--depth", str(s.gaussian_check_depth)) if n.startswith("gaussian") else ()))
        for n in VERDICT_SYSTEMS
    ) + tuple(
        Command(f"mean-{n}", ("mean", "--system", _system(n), "--depth", str(s.mean_depth)))
        for n in ("polya_cantor_trig", "polya_dirichlet_match")
    )
    montecarlo = tuple(
        Command(f"diagnose-{n}", ("diagnose", "--system", _system(n),
                                  "--N", str(s.mc_replicates), "--depths", s.mc_depths,
                                  # two threads: the cores of the reference machine
                                  "--seed", SEED, "--jobs", "2"))
        for n in ("dirichlet_lebesgue", "polya_m2", "gaussian_diagonal")
    )
    draws = ("--depth", str(s.export_depth), "--replicates", str(s.export_replicates),
             "--seed", SEED, "--jobs", "1")
    export = (
        Command("sample-csv", ("sample", "--system", _system("dirichlet_lebesgue"),
                               *draws, "--format", "csv")),
        Command("sample-json", ("sample", "--system", _system("dirichlet_lebesgue"),
                                *draws, "--format", "json")),
        Command("path", ("path", "--system", _system("gaussian_diagonal"), *draws)),
    )
    return {"verdicts": verdicts, "montecarlo": montecarlo, "export": export}


# ---------------------------------------------------------------------------
# one command in a fresh interpreter

@dataclass
class CommandRun:
    name: str
    subcommand: str
    rc: int
    stderr: str
    wall_s: float
    setup_s: float
    main_s: float
    cpu_s: float
    maxrss_kb: int
    digest: str | None
    out_bytes: int
    env: dict
    spans: list


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _spawn_and_wait(argv: list[str], stdout: Path, stderr: Path):
    """posix_spawn one child, wait for it (killing it after the timeout),
    and return (exit code, rusage, CLOCK_MONOTONIC spawn time, wall time)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644)]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    reaped = False
    try:
        if not select.select([pidfd], [], [], COMMAND_TIMEOUT_S)[0]:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        if not reaped:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.wait4(pid, 0)
        os.close(pidfd)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), usage, spawned, wall


def run_command(cmd: Command, seed: int, traced: bool, out: Path) -> CommandRun:
    sidecar, stdout, stderr = (WORK / f"{cmd.name}.{k}" for k in ("side", "stdout", "stderr"))
    sidecar.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "child.py"), str(sidecar),
            "1" if traced else "0", *cmd.argv(seed, out)]
    rc, usage, spawned, wall = _spawn_and_wait(argv, stdout, stderr)
    report = json.loads(sidecar.read_text()) if sidecar.exists() else None
    exists = out.exists()
    return CommandRun(
        name=cmd.name, subcommand=cmd.subcommand, rc=rc,
        stderr=stderr.read_text(errors="replace")[:2000],
        wall_s=wall,
        setup_s=report["imported"] - spawned if report else float("nan"),
        main_s=report["main_s"] if report else float("nan"),
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
        digest=_sha256(out) if exists else None,
        out_bytes=out.stat().st_size if exists else 0,
        env=report["env"] if report else {},
        spans=report["spans"] if report else [],
    )


# ---------------------------------------------------------------------------
# passes, the output gate, metrics

@dataclass
class Pass:
    traced: bool
    wall_s: float
    runs: list[CommandRun]
    calibration: list[tuple[float, float]] = field(default_factory=list)


def calibrate() -> tuple[float, float]:
    """Time a fixed task in this process: (wall s, cpu s).

    The task is the benchmark's own and does not touch histolim, so its
    time tracks only how fast the shared host runs this process at that
    moment.  One sample is taken before every command of a pass."""
    wall, cpu = time.perf_counter(), time.process_time()
    acc, table = Fraction(0), {}
    for i in range(1, 6000):                  # interpreter-bound, like the CLI
        acc += Fraction(i % 7 + 1, i)
        table[i % 97] = table.get(i % 97, 0) + i * i % 13
    rng = numpy.random.default_rng(0)         # array-bound, like the draws
    numpy.sort(rng.gamma(2.5, 1.0, size=300_000)).cumsum()
    return time.perf_counter() - wall, time.process_time() - cpu


def run_pass(cmds, seed: int, traced: bool) -> Pass:
    """Run every command once into a freshly cleared output directory.
    Wall time covers spawn to reap of each command; hashing is outside it."""
    out_dir = WORK / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    runs, wall, calibration = [], 0.0, []
    for cmd in cmds:
        calibration.append(calibrate())
        run = run_command(cmd, seed, traced, out_dir / f"{cmd.name}.out")
        wall += run.wall_s
        runs.append(run)
    return Pass(traced, wall, runs, calibration)


class Gate:
    """Byte-for-byte output check: recorded digests for this seed when
    there are any, else (and always) equality with the first pass."""

    def __init__(self, cmds, seed: int, recorded: dict):
        self.expected = {}
        for cmd in cmds:
            by_seed = recorded.get(cmd.key, {})
            self.expected[cmd.name] = by_seed.get(str(seed) if cmd.seeded else "-")
        self.recorded = all(v is not None for v in self.expected.values())
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, run: CommandRun, label: str) -> None:
        self.attempted += 1
        problem = None
        if run.rc != 0:
            problem = f"exit code {run.rc}"
        elif run.stderr:
            problem = f"stderr: {run.stderr.strip()[:300]}"
        elif run.digest is None:
            problem = "no output file"
        elif self.expected[run.name] is None:
            self.expected[run.name] = run.digest
        elif run.digest != self.expected[run.name]:
            problem = f"output sha256 {run.digest} != {self.expected[run.name]}"
        if problem is not None:
            self.failures.append(f"{label} {run.name}: {problem}")


def check_jobs_invariance(cmds, seed: int, gate: Gate) -> None:
    """Rerun each multi-threaded command once, untimed, with --jobs 1; the
    gate requires the same bytes."""
    for cmd in cmds:
        if "--jobs" in cmd.args and cmd.with_jobs(1) != cmd:
            out = WORK / "out" / f"{cmd.name}.jobs1.out"
            gate.check(run_command(cmd.with_jobs(1), seed, False, out), "--jobs 1")


def run_probes(seed: int, sizes: Sizes, gate: Gate) -> dict[str, float]:
    stdout, stderr = WORK / "probes.stdout", WORK / "probes.stderr"
    argv = [sys.executable, str(BENCH / "probes.py"), str(seed), json.dumps(sizes.probes)]
    rc, _, _, _ = _spawn_and_wait(argv, stdout, stderr)
    gate.attempted += 1
    lines = stdout.read_text().splitlines()
    err = stderr.read_text(errors="replace").strip()
    if rc != 0 or err or not lines:
        gate.failures.append(f"probes: exit code {rc}, stderr {err[:300]!r}")
        return {}
    result = json.loads(lines[-1])
    gate.failures.extend(f"probes: {p}" for p in result["problems"])
    return result["metrics"]


def _typical_pass(passes: list[Pass], value) -> float:
    """One pass's total of ``value(run)``, taken as the sum over commands
    of each command's median across passes (steadier on a shared machine
    than the median of pass totals)."""
    per_command = zip(*(p.runs for p in passes))
    return sum(statistics.median(value(r) for r in runs) for runs in per_command)


def raw_metrics(passes: list[Pass]) -> dict[str, float]:
    """End-to-end metrics as measured, in seconds of this run's host."""
    per_command = list(zip(*(p.runs for p in passes)))
    return {
        "setup_s": statistics.median(r.setup_s for p in passes for r in p.runs),
        "wall_s": _typical_pass(passes, lambda r: r.wall_s),
        "cpu_s": _typical_pass(passes, lambda r: r.cpu_s),
        "peak_rss_mb": max(statistics.median(r.maxrss_kb for r in runs)
                           for runs in per_command) / 1024,
    }


def host_speed(passes: list[Pass]) -> tuple[float, float]:
    """(wall, cpu) factors that scale this run's times to the reference
    host: CALIBRATION_REF_S over the median calibration time of the run.

    The shared host's speed drifts by up to ~15% over minutes, which moves
    every time the same way; the calibration taken between commands moves
    with it, so the scaled times keep only what the program changed."""
    samples = [c for p in passes for c in p.calibration]
    return tuple(CALIBRATION_REF_S / statistics.median(c[i] for c in samples)
                 for i in (0, 1))


def e2e_metrics(passes: list[Pass]) -> dict[str, float]:
    """End-to-end metrics with times scaled to the reference host."""
    raw = raw_metrics(passes)
    wall_factor, cpu_factor = host_speed(passes)
    return {"setup_s": raw["setup_s"] * wall_factor,
            "wall_s": raw["wall_s"] * wall_factor,
            "cpu_s": raw["cpu_s"] * cpu_factor,
            "peak_rss_mb": raw["peak_rss_mb"]}


def subcommand_times(passes: list[Pass]) -> dict[str, float]:
    """Typical time inside `histolim.cli.main` per pass, per subcommand
    (0 for subcommands the workload does not run)."""
    return {f"cli.{sub}_s": _typical_pass(
        passes, lambda r: r.main_s if r.subcommand == sub else 0.0)
        for sub in SUBCOMMANDS}


def layer_metrics(plain: list[Pass], traced: list[Pass], probes: dict) -> dict[str, float]:
    per_pass = [spans.pass_layers([spans.command_layers(r.spans) for r in p.runs],
                                  sum(r.out_bytes for r in p.runs))
                for p in traced]
    out = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    out.update(subcommand_times(plain))
    out["trace.overhead_s"] = (_typical_pass(traced, lambda r: r.wall_s)
                               - _typical_pass(plain, lambda r: r.wall_s))
    out.update(probes)
    return out


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git (the
    benchmark checkout need not be a repository)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(runs: list[CommandRun]) -> dict:
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)), "git_sha": git_sha()}
    env.update(next((r.env for r in runs if r.env), {}))
    return env


def bench(workload: str, seed: int, seconds: float, trace: bool,
          sizes: Sizes = FULL) -> dict:
    """Run one workload and return the full record (see module docstring)."""
    cmds = workloads(sizes)[workload]
    WORK.mkdir(parents=True, exist_ok=True)
    use_digests = sizes == FULL and DIGESTS.is_file()
    recorded = json.loads(DIGESTS.read_text()) if use_digests else {}
    gate = Gate(cmds, seed, recorded)
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for is_traced in ((False, True) if trace else (False,)):
            p = run_pass(cmds, seed, is_traced)
            (traced if is_traced else plain).append(p)
            for run in p.runs:
                gate.check(run, f"pass {rounds}{' traced' if is_traced else ''}")
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break

    check_jobs_invariance(cmds, seed, gate)

    if trace:
        metrics = layer_metrics(plain, traced, run_probes(seed, sizes, gate))
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
    else:
        metrics = e2e_metrics(plain)
        units = {name: unit for name, unit, _ in END_TO_END}
    runs = [r for p in plain + traced for r in p.runs]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(runs),
        "sizes": asdict(sizes),
        "digests_recorded": gate.recorded,
        "passes": [{"traced": p.traced, "wall_s": p.wall_s,
                    "commands": [{k: v for k, v in asdict(r).items()
                                  if k not in ("env", "spans")} for r in p.runs]}
                   for p in plain + traced],
        "subcommand_s": subcommand_times(plain),
        "calibration_s": [c for p in plain for c in p.calibration],
        "host_speed": host_speed(plain),
        "raw_metrics": raw_metrics(plain),
        "failures": gate.failures,
        "result": {
            "correct": not gate.failures,
            "attempted": gate.attempted,
            "failed": len(gate.failures),
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        },
        "spans": [{"pass": i, "command": r.name, "spans": r.spans}
                  for i, p in enumerate(traced) for r in p.runs],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads(FULL)))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "histolim" / "cli.py").is_file():
        print(f"error: no histolim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.chdir(ROOT)  # commands name their files relative to the checkout root

    record = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_spans = record.pop("spans")
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (RESULTS / f"{stem}.spans.json").write_text(json.dumps(trace_spans))

    result = record["result"]
    for failure in record["failures"]:
        print(f"FAIL {failure}")
    if not args.trace:
        for sub, value in record["subcommand_s"].items():
            if value:
                print(f"{sub:40s} {value:12.6f} s")
        for name, value in record["raw_metrics"].items():
            print(f"{'unscaled ' + name:40s} {value:12.6f}")
        print(f"{'host speed (wall, cpu)':40s} {record['host_speed'][0]:12.6f} "
              f"{record['host_speed'][1]:.6f}")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:12.6f} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

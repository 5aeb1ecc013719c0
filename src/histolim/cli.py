"""Batch command line: seeded sampling, closed-form means, path export,
condition checks, phase diagnosis, and the escaping-mass table.

Every run is reproducible: stochastic subcommands require an explicit
--seed (there is no wall-clock default), output files are never silently
overwritten (pass --force) and are replaced only by complete text (written
to a temporary file first), and results are byte-identical for a fixed
configuration regardless of --jobs.  Errors print one machine-parsable
line ``error[code] detail`` and map to exit code 1 (validation) or 2
(numeric failure).
"""

from __future__ import annotations

import itertools
import json
import operator
import os
import sys
import tempfile
from functools import partial
from pathlib import Path
from typing import Optional

# OpenBLAS reads this once, when numpy loads it: an idle worker then spins
# 2^20 cycles before it sleeps, not the default 2^28 (about 0.1 s of CPU
# per worker after start-up and after each BLAS call).  The thread count,
# and with it every result, stays the same; a value set by the user wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

import click
import numpy as np

from .errors import NumericError, ValidationError
from .histograms import (
    dump_json,
    float_rows,
    histogram_to_csv,
    histogram_to_json,
    stack_to_csv,
)
from .partitions import (
    PartitionChain,
    chain_from_json_text,
    dyadic_chain,
)
from .sampling import path_from_histogram, sample_stack
from .streams import RandomStream
from .systems import system_from_json

# `conditions` and `diagnostics` load only in the subcommands that run them.
# These names still resolve here, on first access: perfbench/spans.py wraps
# them by name on this module, and `diagnose` calls `phase_report` through
# the module attribute so that an installed wrapper sees the call.
_ON_DEMAND = ("dirichlet_condition", "dirichlet_weak_condition", "gaussian_conditions",
              "polya_leakage_condition", "polya_tight_condition", "polya_weak_condition",
              "phase_report")
_module = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _ON_DEMAND:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


class _ConditionsHelp:
    """Fills the ``{fields}`` of a command's epilog and option help from
    `conditions` when the help is printed, the one time it is needed."""

    def format_help(self, ctx, formatter):
        from . import conditions

        fields = {"PRODUCT_DEPTH": conditions.PRODUCT_DEPTH,
                  "MATRIX_DEPTH": conditions.MATRIX_DEPTH,
                  "CHECK_DEPTH_CAP": conditions.CHECK_DEPTH_CAP,
                  "evaluators": "\n".join(f"  {name}  [{tag}]" for name, tag
                                          in sorted(conditions.EVALUATOR_TAGS.items()))}
        self.epilog = self.epilog and self.epilog.format(**fields)
        for param in self.params:
            param.help = param.help and param.help.format(**fields)
        super().format_help(ctx, formatter)


class _Group(_ConditionsHelp, click.Group):
    pass


class _Command(_ConditionsHelp, click.Command):
    pass


#: "\b" keeps click from re-wrapping the evaluator table into one paragraph
EPILOG = "Condition evaluators and their condition tags:\n\n\b\n{evaluators}"


def _load_system(path: str):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ValidationError("cli/system-file", f"cannot read {path}: {e}")
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ValidationError("cli/system-json", f"{path}: {e}")
    return system_from_json(obj)


def _check_depth(depth: Optional[int]) -> None:
    if depth is not None and depth < 0:
        raise ValidationError("cli/depth", f"--depth must be >= 0, got {depth}")


def _resolve_chain(system, chain_path: Optional[str], depth: int) -> PartitionChain:
    if chain_path is not None:
        try:
            text = Path(chain_path).read_text()
        except OSError as e:
            raise ValidationError("cli/chain-file", f"cannot read {chain_path}: {e}")
        chain = chain_from_json_text(text)
    else:  # a chain is never empty, so None means the family has no chain of its own
        chain = system.chain(depth) or dyadic_chain(depth=depth)
    if depth > chain.depth:
        raise ValidationError("cli/depth",
                              f"depth {depth} exceeds the chain depth {chain.depth}")
    return chain


def _pieces(put, export, args) -> None:
    """Pass each piece ``export(*args, write)`` writes to `put` as it comes,
    then a newline unless the last piece ends in one."""
    last = ""

    def write(piece: str) -> None:
        nonlocal last
        if piece:
            put(piece)
            last = piece
    export(*args, write)
    if not last.endswith("\n"):
        put("\n")


def _refuse_existing(force: bool, *outs: Optional[str]) -> None:
    """Refuse an existing output file unless `force`: called once the options and
    the system file are read, before any chain, draw or condition is evaluated."""
    for out in outs:
        if out is not None and not force and Path(out).exists():
            raise ValidationError("cli/exists", f"{out} exists; pass --force to overwrite")


def _export(out: Optional[str], export, *args) -> None:
    """`_pieces` to standard output, or to the file `out`."""
    if out is None:
        _pieces(partial(click.echo, nl=False), export, args)
        return
    target = Path(out)
    # write a temporary file next to the target and move it into place
    # only when complete, so an error never leaves a partial output
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                _pieces(f.write, export, args)
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)  # the mode a plain open would give
            os.replace(tmp, target)
        finally:
            Path(tmp).unlink(missing_ok=True)  # already gone after the replace
    except OSError as e:
        raise ValidationError("cli/write", f"cannot write {out}: {e}") from None


def _parse_number_list(raw: str, what: str, number=float) -> tuple:
    try:
        values = tuple(number(v) for v in raw.split(",") if v.strip())
    except ValueError:
        raise ValidationError("cli/number-list", f"cannot parse {what} {raw!r}")
    if not values:
        raise ValidationError("cli/number-list", f"empty {what}")
    return values


system_option = click.option("--system", "system_path", required=True,
                             help="System descriptor JSON file.")
chain_option = click.option("--chain", "chain_path", default=None,
                            help="Partition chain JSON file (default: the "
                                 "system's own chain, or a dyadic unit chain).")
out_option = click.option("--out", default=None,
                          help="Output file (default: stdout).")
force_option = click.option("--force", is_flag=True,
                            help="Overwrite an existing output file.")
jobs_option = click.option("--jobs", default=None, type=int,
                           help="Worker threads (default: available "
                                "parallelism); results do not depend on it.")


def _jobs(jobs: Optional[int]) -> int:
    if jobs is None:
        return max(1, os.cpu_count() or 1)
    if jobs < 1:
        raise ValidationError("cli/jobs", f"--jobs must be >= 1, got {jobs}")
    return jobs


@click.group(cls=_Group, epilog=EPILOG, no_args_is_help=False)
def cli():
    """Coherent systems of random histograms: sample them, check the
    existence and domination conditions, and diagnose the phase."""


@cli.command()
@system_option
@chain_option
@click.option("--depth", required=True, type=int, help="Chain level to sample.")
@click.option("--replicates", default=1, type=int, show_default=True)
@click.option("--seed", required=True, type=int,
              help="Stream seed (required; no wall-clock default).")
@jobs_option
@out_option
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@force_option
def sample(system_path, chain_path, depth, replicates, seed, jobs, out, fmt, force):
    """Draw seeded histogram samples at one chain level."""
    _check_depth(depth)
    system = _load_system(system_path)
    jobs = _jobs(jobs)
    _refuse_existing(force, out)
    chain = _resolve_chain(system, chain_path, depth)
    stack = sample_stack(system, chain, depth, RandomStream(seed), replicates, jobs=jobs)
    if fmt == "csv":
        _export(out, stack_to_csv, stack)
    else:
        payload = {"system": system.to_json(), "depth": depth, "seed": seed,
                   "kind": stack.kind,
                   "cells": stack.partition.labels(),
                   "values": stack.values}
        _export(out, dump_json, payload)


@cli.command()
@system_option
@chain_option
@click.option("--depth", required=True, type=int, help="Chain level.")
@out_option
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@force_option
def mean(system_path, chain_path, depth, out, fmt, force):
    """Closed-form mean histogram at one chain level (no sampling)."""
    _check_depth(depth)
    system = _load_system(system_path)
    _refuse_existing(force, out)
    chain = _resolve_chain(system, chain_path, depth)
    h = system.mean(chain[depth])
    if fmt == "csv":
        _export(out, histogram_to_csv, h)
    else:
        _export(out, dump_json, histogram_to_json(h))


@cli.command()
@system_option
@chain_option
@click.option("--depth", required=True, type=int, help="Chain level to sample.")
@click.option("--replicates", default=1, type=int, show_default=True)
@click.option("--seed", required=True, type=int,
              help="Stream seed (required; no wall-clock default).")
@jobs_option
@out_option
@force_option
def path(system_path, chain_path, depth, replicates, seed, jobs, out, force):
    """Sampled cumulative-mass paths as CSV (replicate, t, value)."""
    _check_depth(depth)
    system = _load_system(system_path)
    jobs = _jobs(jobs)
    _refuse_existing(force, out)
    chain = _resolve_chain(system, chain_path, depth)
    stack = sample_stack(system, chain, depth, RandomStream(seed), replicates, jobs=jobs)
    origin = float(chain.domain.left)
    t, values = path_from_histogram(stack)
    # each row's points as "t," heads, the t column formatted once, paired
    # with the values of that row's `float_rows` text
    heads = [f"{x!r}," for x in t.tolist()]
    first = []
    if np.isfinite(origin):
        heads.insert(0, f"{origin!r},")
        first = ["0.0"]

    def rows(write):  # one replicate at a time
        write("replicate,t,value\n")
        for r, text in enumerate(float_rows(values) if heads else ()):
            tails = map(operator.add, heads, itertools.chain(first, text.split(",")))
            write(f"{r}," + f"\n{r},".join(tails) + "\n")
    _export(out, rows)


@cli.command(cls=_Command)
@system_option
@chain_option
@click.option("--depth", default=None, type=int,
              help="Evaluation depth (default {PRODUCT_DEPTH} for product "
                   "conditions, {MATRIX_DEPTH} for covariance conditions). "
                   "At most {CHECK_DEPTH_CAP}.")
@out_option
@force_option
def check(system_path, chain_path, depth, out, force):
    """Evaluate every condition for the family; JSON verdicts."""
    from .conditions import CHECK_DEPTH_CAP
    from .diagnostics import family_verdicts

    _check_depth(depth)
    if depth is not None and depth > CHECK_DEPTH_CAP:
        raise ValidationError("cli/depth", f"--depth must be <= {CHECK_DEPTH_CAP}, got {depth}")
    system = _load_system(system_path)
    _refuse_existing(force, out)
    verdicts = family_verdicts(system, partial(_resolve_chain, system, chain_path), depth)[0]
    payload = {"conditions": {v.condition: v.to_json() for v in verdicts.values()}}
    _export(out, dump_json, payload)


@cli.command()
@system_option
@chain_option
@click.option("--depths", "depths_raw", default=None,
              help="Comma-separated, strictly increasing Monte-Carlo "
                   "depths (default 2..8).")
@click.option("--depth", "depth_max", default=None, type=int,
              help="Shorthand for --depths 2..DEPTH.")
@click.option("--N", "n", default=10_000, type=int, show_default=True,
              help="Replicates per depth (>= 1000).")
@click.option("--seed", required=True, type=int,
              help="Stream seed (required; no wall-clock default).")
@click.option("--L-grid", "l_grid_raw", default="1,2,5,20", show_default=True)
@click.option("--delta", default=0.1, type=float, show_default=True)
@jobs_option
@out_option
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True,
              help="csv additionally writes the curves next to --out.")
@force_option
def diagnose(system_path, chain_path, depths_raw, depth_max, n, seed,
             l_grid_raw, delta, jobs, out, fmt, force):
    """Aggregate phase report: condition verdicts plus Monte-Carlo curves."""
    from .diagnostics import MIN_STATISTICAL_SAMPLES, check_depths, check_domination_args

    if n < MIN_STATISTICAL_SAMPLES:
        raise ValidationError("cli/samples",
                              f"--N must be >= {MIN_STATISTICAL_SAMPLES}, got {n}")
    if depths_raw is not None and depth_max is not None:
        raise click.UsageError("--depths and --depth cannot be given together")
    if depths_raw is not None:
        depths = _parse_number_list(depths_raw, "--depths", int)
    elif depth_max is not None:
        if depth_max < 2:
            raise ValidationError("cli/depth", f"--depth must be >= 2, got {depth_max}")
        depths = tuple(range(2, depth_max + 1))
    else:
        depths = None
    l_grid = _parse_number_list(l_grid_raw, "--L-grid")
    check_domination_args(l_grid, delta)
    if fmt == "csv" and out is None:
        raise ValidationError("cli/out", "--format csv needs --out for the curve files")
    system = _load_system(system_path)
    jobs = _jobs(jobs)
    curves = ("atomicity", "domination-mean", "domination-tail") if fmt == "csv" else ()
    _refuse_existing(force, out, *(f"{out}.{name}.csv" for name in curves))
    chain = _resolve_chain(system, chain_path, 8 if depths is None else max(0, *depths))
    check_depths(depths or (), chain, "cli/depth")
    report = _module.phase_report(system, chain, depths=depths, replicates=n,
                                  seed=seed, L_grid=l_grid, delta=delta, jobs=jobs)
    if fmt == "csv":
        for curve in (report.atomicity_curve, report.domination_curve,
                      report.domination_tail_curve):
            if curve is not None:
                _export(f"{out}.{curve.name}.csv", lambda write: write(curve.to_csv()))
    _export(out, dump_json, report.to_json())


@cli.command()
@click.option("--delta", required=True, type=float,
              help="Escaping mass fraction in [0, 1).")
@click.option("--depth", default=12, type=int, show_default=True)
@click.option("--interior", is_flag=True,
              help="Leak toward the endpoints of (0, 1) instead of infinity.")
@out_option
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@force_option
def counterexample(delta, depth, interior, out, fmt, force):
    """Outside-mass table of the escaping-mass construction."""
    from .conditions import leakage_counterexample

    _refuse_existing(force, out)
    report = leakage_counterexample(delta, depth, interior=interior)
    if fmt == "json":
        _export(out, dump_json, report.to_json())
        return
    lines = ["depth,window,outside_mass"]
    lines.extend(f"{d},{k!r},{v!r}" for d, k, v in report.rows)
    _export(out, lambda write: write("\n".join(lines) + "\n"))


def main(argv=None) -> int:
    """Console entry point; returns the exit code instead of raising."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except ValidationError as e:
        click.echo(f"error[{e.code}] {e}", err=True)
        return 1
    except NumericError as e:
        click.echo(f"error[{e.code}] {e}", err=True)
        return 2
    except click.UsageError as e:
        click.echo(f"error[cli/usage] {e.format_message()}", err=True)
        return 1
    except click.exceptions.Abort:  # an interrupt, or end of input, in a command
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

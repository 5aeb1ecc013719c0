"""Harness self-check.

    python3 perfbench/selfcheck.py

Runs every workload once at tiny sizes (`run.TINY`), untraced and traced,
and checks that:

- BENCHMARK.json names the workloads and metrics this harness emits;
- each run emits every end-to-end (untraced) or per-layer (traced) metric
  with its unit, and no command fails (exit code, stderr, rerun and
  ``--jobs`` equality);
- digests.json holds a digest for every full-size command at seed 0;
- in a directory holding only BENCHMARK.json and the benchmark's files,
  run.py exits non-zero without printing a result.

Exits 0 when every check holds.
"""

import json
import shutil
import subprocess
import sys

import run
import spans

problems: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        problems.append(what)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(run.workloads(run.FULL)),
          "BENCHMARK.json lists the workloads")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", spans.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        check(listed == list(table), f"BENCHMARK.json {key} matches the harness")
    units = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             True: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for workload in run.workloads(run.TINY):
        for trace in (False, True):
            result = run.bench(workload, seed=0, seconds=0, trace=trace,
                               sizes=run.TINY)["result"]
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            label = f"{workload} trace={int(trace)}"
            check(emitted == units[trace], f"{label}: every metric emitted with its unit")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] > 0,
                  f"{label}: {result['failed']} of {result['attempted']} failed")

    recorded = json.loads(run.DIGESTS.read_text())
    missing = [cmd.key for cmds in run.workloads(run.FULL).values() for cmd in cmds
               if ("0" if cmd.seeded else "-") not in recorded.get(cmd.key, {})]
    check(not missing, f"digests recorded for every full-size command {missing or ''}")

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / run.REL,
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(spec["command"] + ["--workload", "verdicts", "--seed", "0",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          f"without the sources run.py exits {proc.returncode} and prints no result")

    print("selfcheck:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

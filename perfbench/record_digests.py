"""Record the sha256 of every full-size workload output into digests.json.

    python3 perfbench/record_digests.py [--seeds N]

Runs each workload's commands once per seed 0..N-1 (once in all for the
seed-free `verdicts`), checks them as a benchmark run would (exit code,
stderr, and ``--jobs 1`` equality for `montecarlo`), and writes the
digests.  Run it only on the commit whose outputs are the reference:
every later commit must reproduce these bytes.
"""

import argparse
import json
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20)
    args = parser.parse_args()
    run.WORK.mkdir(parents=True, exist_ok=True)
    recorded: dict[str, dict[str, str]] = {}
    for workload, cmds in run.workloads(run.FULL).items():
        seeded = any(cmd.seeded for cmd in cmds)
        for seed in range(args.seeds if seeded else 1):
            gate = run.Gate(cmds, seed, {})
            p = run.run_pass(cmds, seed, traced=False)
            for r in p.runs:
                gate.check(r, "record")
            run.check_jobs_invariance(cmds, seed, gate)
            if gate.failures:
                print("\n".join(gate.failures), file=sys.stderr)
                return 1
            for cmd, r in zip(cmds, p.runs):
                recorded.setdefault(cmd.key, {})[str(seed) if cmd.seeded else "-"] = r.digest
            print(f"{workload} seed {seed}: {len(cmds)} digests", flush=True)
    run.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

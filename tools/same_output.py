"""Check that a checkout's CLI prints what another checkout's prints.

    python3 tools/same_output.py --parent DIR

Runs, in this checkout and in DIR (another checkout of the repository,
such as a `git clone` of the parent commit), each `rllbec` command line
of README.md's sh blocks, fed the stdin its `printf '...' |` prefix
gives, and the argv of every step of the perfbench workloads at seeds
0-9, as perfbench/workloads.py builds them. README.md and the workloads
are read from this checkout. Each command runs as `python -m rllbec.cli`
with PYTHONPATH set to the side's src directory.

Compares the exit codes and the stdout bytes of the two sides, prints
each argv that differs, and exits 1 if any does, 0 otherwise. Uses the
stdlib only.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import re
import shlex
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(10)
RUN_TIMEOUT_S = 300.0


def readme_commands():
    """Each `rllbec ...` line of README.md's sh blocks as (argv, stdin bytes)."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    out = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M):
        for line in block.splitlines():
            feed, _, command = line.rpartition("| ")
            if command.startswith("rllbec "):
                stdin = shlex.split(feed)[1].encode().decode("unicode_escape") if feed else ""
                out.append((shlex.split(command)[1:], stdin.encode()))
    return out


def workload_commands():
    """The argv of every workload step at each seed, as (argv, empty stdin)."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses looks the module up by name
    spec.loader.exec_module(workloads)
    return [(step.argv, b"") for name in workloads.NAMES for seed in SEEDS
            for step in workloads.steps(name, seed)]


def run(tree, argv, stdin):
    """(exit code, stdout bytes) of one CLI call in a checkout."""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(tree), "src")}
    proc = subprocess.run([sys.executable, "-m", "rllbec.cli", *argv], input=stdin, env=env,
                          cwd=tree, capture_output=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout to compare this one against")
    args = ap.parse_args(argv)
    commands = readme_commands() + workload_commands()
    differ = 0
    for cmd, stdin in commands:
        if run(ROOT, cmd, stdin) != run(args.parent, cmd, stdin):
            differ += 1
            print("differs: rllbec " + shlex.join(cmd))
    print(f"{len(commands)} commands, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

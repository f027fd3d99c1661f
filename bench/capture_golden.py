"""Record the golden exit code and stdout digest of every benchmarked command.

Usage: python3 bench/capture_golden.py

Runs each workload command, the set-up command and every README command
in all three formats once, and rewrites bench/golden.json.  Run it only
when a change to skeincalc's output is intended; the benchmark fails any
command whose output differs from these digests.
"""

import json

import benchlib


def main() -> None:
    commands = [benchlib.SETUP_COMMAND, *benchlib.gate_commands()]
    for workload in benchlib.WORKLOADS.values():
        commands.extend(workload)
    golden = {}
    for command in commands:
        p = benchlib.run_process(benchlib.cli_argv(command))
        if p.timed_out:
            raise SystemExit(f"timed out: {command}")
        golden[command] = {"exit": p.exit_code, "sha256": benchlib.digest(p.stdout)}
        print(f"{p.exit_code}  {benchlib.digest(p.stdout)[:16]}  {command}")
    with open(benchlib.GOLDEN_FILE, "w") as fh:
        json.dump({"commands": golden}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

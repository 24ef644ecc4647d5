#!/usr/bin/env python3
"""Build the campaign benchmark from source and run it.

Run from the repository root:

    python3 campaignbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 campaignbench/run.py --smoke

The build tree goes to $CARGO_TARGET_DIR/campaignbench (default
.bench_build/campaignbench) under the current directory, and scratch
repositories to $CARGO_TARGET_DIR/work.  Build output is sent to standard
error, so the benchmark's JSON result stays the last line of standard output.
The exit code is the benchmark's, or 2 when the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path


def build(source_dir: Path, build_dir: Path) -> bool:
    """Configure (first time only) and build the benchmark binary."""
    steps = []
    if not (build_dir / "Makefile").exists():
        steps.append(["cmake", "-S", str(source_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "campaign_bench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main() -> int:
    source_dir = Path(__file__).resolve().parent
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (build_root / "campaignbench").resolve()
    if not build(source_dir, build_dir):
        print("campaign benchmark: build failed", file=sys.stderr)
        return 2
    command = [str(build_dir / "campaign_bench"), *sys.argv[1:],
               "--work-dir", str((build_root / "work").resolve())]
    return subprocess.call(command)


if __name__ == "__main__":
    sys.exit(main())

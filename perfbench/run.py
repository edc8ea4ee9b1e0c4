#!/usr/bin/env python3
"""Build and run the PARDA benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <file-large|file-small|daemon-mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (its own Cargo workspace, depending on the
repository's crates by path) into $CARGO_TARGET_DIR, default `.bench_build`,
then runs it. The benchmark writes its trace file and span log under
`<target dir>/perfbench-work` and prints one JSON result as the last line of
standard output. Build output goes to standard error; a failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    work = os.path.join(target, "perfbench-work")
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe, *sys.argv[1:], "--work-dir", work], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

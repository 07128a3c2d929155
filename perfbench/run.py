#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds `brc` (the root package) and the
`perfbench` package with `cargo --offline --locked` into
`$CARGO_TARGET_DIR` (default `perfbench/target`), then runs the
benchmark binary, whose last line of standard output is the result.
Build output goes to standard error. See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(args, env):
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet"] + args,
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    return done.returncode == 0


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env["CARGO_TARGET_DIR"] = target
    if not build(["--bin", "brc"], env) or not build(
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")], env
    ):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    release = os.path.join(target, "release")
    command = [os.path.join(release, "perfbench")] + sys.argv[1:]
    command += ["--brc", os.path.join(release, "brc")]
    child = subprocess.Popen(command, cwd=ROOT, env=env)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())

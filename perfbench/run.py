#!/usr/bin/env python3
"""Build and run the CopyCat benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <integrate|hot_read> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py compare <results-dir-a> <results-dir-b>

Builds `copycat-serve` (the repository's workspace) and the benchmark
(its own workspace under perfbench/) in release mode, offline, into
$CARGO_TARGET_DIR (default: .bench_build), then runs the benchmark. Build
output goes to stderr, so the last line of stdout is the result.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(env):
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "copycat-serve", "--bin", "copycat-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build(env)
    bench = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:]
    if args[:1] != ["compare"]:
        args += ["--serve-bin", os.path.join(target, "release", "copycat-serve")]
    sys.exit(subprocess.run([bench] + args, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()

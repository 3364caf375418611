#!/usr/bin/env python3
"""Build the perfbench program from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload tenant-mix-4k --seed 1 --seconds 20 --trace 0

Everything the Go toolchain writes (build cache, temporary files, the
binary) and the traced run's spans and CPU profile go under the build
directory: $CARGO_TARGET_DIR if set, else .bench_build, relative to the
repository root. The program's exit code is passed through; its last line
of stdout is the JSON result.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    for key, sub in [("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("HOME", "home"), ("XDG_CONFIG_HOME", "home/.config"),
                     ("XDG_CACHE_HOME", "home/.cache")]:
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOENV=os.path.join(build, "goenv"), GOFLAGS="", GOTOOLCHAIN="local",
               GOPROXY="off", GOSUMDB="off")
    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:] + ["--out", os.path.join(build, "perfbench")]
    return subprocess.run([binary] + args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

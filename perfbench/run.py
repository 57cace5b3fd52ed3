#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 10 --trace 0

The Go package in this directory is compiled against the repository's
sources (go.mod replaces the `repro` module with the parent directory),
with the Go build cache, module cache and temporary files kept under
.bench_build/ in the current directory. The benchmark process then
replaces this one, so each run is one fresh process and its peak RSS is
the run's own. Arguments are passed through unchanged; a failed build
exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("TMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOFLAGS"] = ""
    env["GOPROXY"] = "off"
    env["CGO_ENABLED"] = "0"

    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 1
    binary = os.path.join(build, "perfbench")
    src = os.path.dirname(os.path.abspath(__file__))
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())

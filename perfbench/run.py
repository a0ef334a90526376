#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper-3site --seed 1 --seconds 20 --trace 0

The Go benchmark (a module of its own in this directory, importing the
repository's packages through a local replace) is compiled into
.bench_build/perfbench/ with every Go cache and temporary directory kept
under .bench_build, so the run reads and writes nothing outside the
checkout. All arguments pass through to the benchmark binary; its standard
output, whose last line is the JSON result, and its exit code are passed
back unchanged.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 900


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    out = os.path.join(build, "perfbench")
    binary = os.path.join(out, "perfbench")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOWORK="off",
        GOFLAGS="-mod=mod -buildvcs=false",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    for d in (out, env["GOTMPDIR"], env["XDG_CONFIG_HOME"]):
        os.makedirs(d, exist_ok=True)
    # go build is incremental: with a warm cache it only relinks when a
    # source file changed.
    try:
        built = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=here, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

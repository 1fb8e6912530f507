#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload pkt-mix --seed 1 --seconds 10 --trace 0

Everything the build and the run write stays under the build directory
($CARGO_TARGET_DIR, default .bench_build): the Go build and module caches,
temporary files, the binary, the journals and the span files. The last line
of standard output is the benchmark's JSON result; the exit code is the
benchmark's, or 1 when the build fails.
"""
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    out = os.path.join(build, "perfbench")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOFLAGS": "-mod=mod",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
    })
    for d in (out, env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    binary = os.path.join(out, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        ran = subprocess.run([binary, *sys.argv[1:], "--workdir", out], cwd=root, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the perfbench program from source and run one benchmark run.

Run from the repository root:

    python3 perfbench/run.py --workload social-read --seed 1 --seconds 48 --trace 0

All build state (Go build cache, module cache, binary) stays under
.bench_build/ in the current directory. The build needs the repository's
own go.mod one directory above this file; without it the build fails and
this script exits non-zero without printing a result.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(os.getcwd(), ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        # The go command keeps its settings and telemetry under the user
        # config directory; point it inside the build directory.
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["XDG_CONFIG_HOME"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        ran = subprocess.run([binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())

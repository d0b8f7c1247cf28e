#!/usr/bin/env python3
"""Build the Horse benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload ixp-day --seed 1 --seconds 15 --trace 0

The Go build cache, temporary files and the binary stay under
.bench_build/ in the current directory. The benchmark's own arguments are
passed through; its last line of output is the JSON result.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
SRC = os.path.join(ROOT, "perfbench")


def main():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
    })
    binary = os.path.join(BUILD, "perfbench")
    go = shutil.which("go") or os.path.join(os.environ.get("GOROOT", ""), "bin", "go")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=SRC, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

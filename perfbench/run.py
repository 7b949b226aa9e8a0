#!/usr/bin/env python3
"""Build the zodiac benchmark from source and run one workload.

    python3 perfbench/run.py --workload validate-600 --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --manifest      # print BENCHMARK.json

Run from the root of a checkout. The library (lib/), the CLI (bin/) and
the benchmark's OCaml sources (perfbench/src, perfbench/test) are copied
into .bench_build/ws and built there with dune, so the benchmark never
touches the repository's own build. Build output goes to stderr; the
benchmark binary's stdout is passed through unchanged, and its last line
is the JSON result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WS = os.path.join(BUILD, "ws")

# (source under the checkout, destination under the workspace)
TREES = [
    ("dune-project", "dune-project"),
    ("lib", "lib"),
    ("bin", "bin"),
    ("perfbench/src", "perfbench/src"),
    ("perfbench/test", "perfbench/test"),
]


def same_file(a, b):
    if not os.path.isfile(b) or os.path.getsize(a) != os.path.getsize(b):
        return False
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def sync(src, dst):
    """Mirror src into dst, rewriting only files whose bytes changed so
    dune's incremental build stays incremental."""
    if os.path.isfile(src):
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        if not same_file(src, dst):
            shutil.copyfile(src, dst)
        return
    os.makedirs(dst, exist_ok=True)
    wanted = set(os.listdir(src))
    for name in os.listdir(dst):
        if name not in wanted and name != "_build":
            path = os.path.join(dst, name)
            if os.path.isdir(path):
                shutil.rmtree(path)
            else:
                os.remove(path)
    for name in sorted(wanted):
        sync(os.path.join(src, name), os.path.join(dst, name))


def build():
    missing = [s for s, _ in TREES if not os.path.exists(os.path.join(ROOT, s))]
    if missing:
        sys.stderr.write("perfbench: not a zodiac checkout (missing %s)\n"
                         % ", ".join(missing))
        sys.exit(2)
    for src, dst in TREES:
        sync(os.path.join(ROOT, src), os.path.join(WS, dst))
    cmd = ["dune", "build", "--root", WS, "--profile", "release",
           "--cache", "disabled", "--display", "quiet",
           "./perfbench/src/main.exe", "./perfbench/test/selftest.exe",
           "./bin/zodiac_cli.exe"]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(proc.returncode or 2)


def exe(path):
    return os.path.join(WS, "_build", "default", path)


def main(argv):
    build()
    # Relative paths from the checkout root keep the daemon's Unix
    # socket path short.
    os.chdir(ROOT)
    common = ["--zodiac", exe("bin/zodiac_cli.exe"),
              "--expected", os.path.join("perfbench", "expected.txt"),
              "--work", os.path.join(".bench_build", "work")]
    if argv[:1] == ["--selftest"]:
        cmd = [exe("perfbench/test/selftest.exe"),
               "--manifest-file", os.path.join(ROOT, "BENCHMARK.json")]
        cmd += common + argv[1:]
    elif argv[:1] == ["--manifest"]:
        cmd = [exe("perfbench/src/main.exe"), "manifest"]
    elif argv[:1] == ["--record"]:
        cmd = [exe("perfbench/src/main.exe"), "record"]
    else:
        cmd = [exe("perfbench/src/main.exe"), "run"] + common + argv
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

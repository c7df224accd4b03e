#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload cold_prove|zipf_light \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It mirrors the checkout's sources
and the benchmark's OCaml sources (perfbench/_src/) into a private dune
workspace under .perfbench_build/, builds bin/certd.exe,
bin/certd_server.exe and the benchmark there, and replaces itself with
the benchmark executable, which prints the result line. Build output goes to standard error. Everything it writes stays
inside the checkout: the workspace, dune's cache (disabled) and the
benchmark's scratch files.
"""

import filecmp
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".perfbench_build")
WS = os.path.join(BUILD, "ws")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def remove(path):
    if os.path.isdir(path) and not os.path.islink(path):
        shutil.rmtree(path)
    else:
        os.remove(path)


def mirror(src, dst):
    """Make dst a copy of src, rewriting only files whose bytes differ so
    that dune's incremental build sees unchanged sources as unchanged."""
    if os.path.isdir(src):
        os.makedirs(dst, exist_ok=True)
        names = set(os.listdir(src))
        for name in os.listdir(dst):
            if name not in names:
                remove(os.path.join(dst, name))
        for name in sorted(names):
            mirror(os.path.join(src, name), os.path.join(dst, name))
    elif not (os.path.isfile(dst) and filecmp.cmp(src, dst, shallow=False)):
        shutil.copyfile(src, dst)


def main():
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s in %s: run from the root of a checkout" % (need, ROOT))
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        fail("neither dune nor opam is on PATH")
    os.makedirs(WS, exist_ok=True)
    # every source of the checkout, so the program builds as it would
    # in place; dot and underscore entries are what dune skips anyway.
    # Whatever else is in WS, bar dune's _build and the benchmark's own
    # sources, is gone from the checkout and goes here too.
    names = [n for n in sorted(os.listdir(ROOT))
             if n[0] not in "._" and n != os.path.basename(HERE)]
    for name in os.listdir(WS):
        if name not in names and name not in ("_build", "perfbench"):
            remove(os.path.join(WS, name))
    for name in names:
        mirror(os.path.join(ROOT, name), os.path.join(WS, name))
    mirror(os.path.join(HERE, "_src"), os.path.join(WS, "perfbench"))
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(BUILD, "cache"))
    targets = ["./bin/certd.exe", "./bin/certd_server.exe",
               "./perfbench/perfbench.exe"]
    built = subprocess.run(dune + ["build", "--root", WS] + targets,
                           stdout=sys.stderr, env=env)
    if built.returncode != 0:
        fail("build failed")
    exe = os.path.join(WS, "_build", "default", "perfbench", "perfbench.exe")
    bindir = os.path.join(WS, "_build", "default", "bin")
    os.execv(exe, [exe, "--bin", bindir] + sys.argv[1:])


if __name__ == "__main__":
    main()

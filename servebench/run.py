#!/usr/bin/env python3
"""Build the NETMARK server and the serving benchmark from source, then run one workload.

Usage (from the repository root):

    python3 servebench/run.py --workload query_fit --seed 1 --seconds 10 --trace 0

Builds the `netmark` CLI binary from the repository's workspace and the
`servebench` binary from this directory's own workspace (both into
`$CARGO_TARGET_DIR`, default `.bench_build`), then runs `servebench` with
the given arguments. The last line of stdout is the JSON result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_rev():
    """The git revision when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "servebench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-" + digest.hexdigest()[:16]


def build(target):
    """Builds both binaries; cargo's output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "netmark-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("servebench: build failed: " + " ".join(cmd))


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target)
    cmd = [
        os.path.join(target, "release", "servebench"),
        *sys.argv[1:],
        "--server-bin", os.path.join(target, "release", "netmark"),
        "--work", os.path.join(ROOT, ".bench_work"),
        "--rev", source_rev(),
    ]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()

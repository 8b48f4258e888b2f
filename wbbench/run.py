#!/usr/bin/env python3
"""Build and run the wbstream benchmark.

    python3 wbbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the release `wbd` from the repository's workspace and the
`wbbench` package beside this file into $CARGO_TARGET_DIR (default
`.bench_build` at the repository root), then runs `wbbench`. The
`wbbench` package is a workspace of its own, so the root workspace's
`[profile.release]` settings are handed to its build as `--config` flags:
every workload then runs code built the way the shipped `wbd` is. Build output
goes to stderr; stdout carries only the benchmark's report, whose last line
is the JSON result. Exits non-zero, without a result, when the repository
sources are missing, a build fails, or the run fails or overruns.
"""

import json
import os
import re
import signal
import subprocess
import sys
import tomllib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("offline_registry", "tournament", "daemon_mixed")
# One run must end within 180 s; keep a margin for start-up and teardown.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"wbbench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def parse(argv):
    args = {}
    it = iter(argv)
    for flag in it:
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            fail(f"unknown flag {flag!r}")
        value = next(it, None)
        if value is None:
            fail(f"{flag} needs a value")
        args[flag[2:]] = value
    for key in ("workload", "seed", "seconds", "trace"):
        if key not in args:
            fail(f"--{key} is required")
    if args["workload"] not in WORKLOADS:
        fail(f"unknown workload {args['workload']!r} (known: {', '.join(WORKLOADS)})")
    if args["trace"] not in ("0", "1"):
        fail("--trace must be 0 or 1")
    for key in ("seed", "seconds"):
        if not args[key].isdigit():
            fail(f"--{key} must be a non-negative integer")
    return args


def toml_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, list):
        return "[" + ", ".join(toml_value(v) for v in value) + "]"
    fail(f"cannot pass profile value {value!r} to the benchmark build")


def profile_flags():
    """`--config` flags carrying the root's `[profile.release]` table."""
    try:
        with open(os.path.join(ROOT, "Cargo.toml"), "rb") as f:
            manifest = tomllib.load(f)
    except (OSError, tomllib.TOMLDecodeError) as e:
        fail(f"cannot read the root Cargo.toml: {e}")
    flags = []

    def walk(path, table):
        for key, value in table.items():
            if isinstance(value, dict):
                walk(path + [key], value)
                continue
            keys = ".".join(k if re.fullmatch(r"[A-Za-z0-9_-]+", k) else json.dumps(k)
                            for k in path + [key])
            flags.extend(["--config", f"{keys}={toml_value(value)}"])

    walk(["profile", "release"], manifest.get("profile", {}).get("release", {}))
    return flags


def build(cmd, env):
    try:
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        fail(f"build failed: {e}")


def main():
    args = parse(sys.argv[1:])
    for needed in ("Cargo.toml", os.path.join("crates", "daemon", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"repository sources not found ({needed} is missing)")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(["cargo", "build", "--release", "--offline", "-p", "wb-daemon", "--bin", "wbd"], env)
    build(["cargo", "build", "--release", "--offline", *profile_flags(),
           "--manifest-path", os.path.join(HERE, "Cargo.toml")], env)

    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "wbbench"),
           "--workload", args["workload"], "--seed", args["seed"],
           "--seconds", args["seconds"], "--trace", args["trace"],
           "--wbd", os.path.join(release, "wbd"),
           "--out", os.path.join(target, "wbbench")]
    # A session of its own, so an overrun kills the benchmark and the wbd
    # it spawned together.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()

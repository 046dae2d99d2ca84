#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload learn|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from anywhere inside a checkout; everything is read and written under
the checkout's root. The first run configures and builds the jitml
libraries from src/ plus the driver (perfbench_driver) into the build
directory ($CARGO_TARGET_DIR when it names a directory inside the
checkout, else .bench_build). Every run then:

  * removes every JITML_* variable from the environment and pins
    JITML_JOBS to the number of usable processors, so the library's knobs
    (thread count, optimizer memo, serve daemon, tracing, metric dumps,
    model cache) take their defaults; the values used are printed;
  * gives the driver a private temporary directory (archives, socket,
    model cache) inside the build directory, removed afterwards;
  * prints provenance (git commit when there is one, a digest of the
    sources, processors, build type, compiler);
  * runs the driver, whose last line of output is the JSON result.

Exit status is 0 only when the driver produced a result; the result's
"correct" field says whether every oracle passed. See README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = "perfbench"
SOURCES = ("src", BENCH_DIR)
RUN_LIMIT_S = 170.0  # a run must end within 180 s, the build excluded


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_dir():
    """The build directory, relative to the root and inside it."""
    wanted = os.environ.get("CARGO_TARGET_DIR", "")
    if wanted:
        full = os.path.realpath(os.path.join(ROOT, wanted))
        if full.startswith(os.path.realpath(ROOT) + os.sep):
            return os.path.relpath(full, ROOT)
    return ".bench_build"


def run_quiet(cmd, env, what):
    """Runs a build step; its output goes to stderr only if it fails."""
    p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-20000:])
        fail(what + " failed (exit %d)" % p.returncode)


def build(bdir, env):
    cmake_dir = os.path.join(bdir, "cmake")
    if not os.path.exists(os.path.join(ROOT, cmake_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], env, "configure")
    run_quiet(["cmake", "--build", cmake_dir, "--target", "perfbench_driver",
               "-j", str(usable_cpus())], env, "build")
    cache = {}
    with open(os.path.join(ROOT, cmake_dir, "CMakeCache.txt")) as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, _, value = line.partition("=")
                cache[key.split(":")[0]] = value.strip()
    flags = " ".join(v for k, v in cache.items()
                     if k.startswith(("CMAKE_CXX_FLAGS", "CMAKE_EXE_LINKER")))
    if "-fsanitize" in flags:
        fail("refusing to measure a sanitizer build (%s)" % flags)
    return os.path.join(cmake_dir, "perfbench_driver"), cache


def source_digest():
    """SHA-256 over every file under src/ and perfbench/, path and bytes."""
    h = hashlib.sha256()
    for top in SOURCES:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit(env):
    # Never look above the checkout for a repository.
    env = dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return p.stdout.strip() if p.returncode == 0 else "none"


def pinned_env(tmpdir):
    env = {k: v for k, v in os.environ.items() if not k.startswith("JITML_")}
    env["JITML_JOBS"] = str(usable_cpus())
    # ModelStore is never used; should anything reach it, it stays private.
    env["JITML_CACHE_DIR"] = os.path.join(tmpdir, "model_cache")
    env["TMPDIR"] = tmpdir
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=("learn", "serve"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="oracle self-test at tiny sizes")
    args = ap.parse_args()
    # Let a termination request unwind, so the driver and temp dir go too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not args.smoke and not args.workload:
        ap.error("--workload is required")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the jitml sources (src/) are not in this checkout")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")

    os.chdir(ROOT)
    bdir = build_dir()
    os.makedirs(os.path.join(bdir, "tmp"), exist_ok=True)
    tmpdir = os.path.relpath(
        tempfile.mkdtemp(prefix="run-", dir=os.path.join(bdir, "tmp")), ROOT)
    env = pinned_env(tmpdir)
    try:
        driver, cache = build(bdir, env)
        knobs = {k: v for k, v in env.items() if k.startswith("JITML_")}
        print("provenance: " + json.dumps({
            "git": git_commit(env),
            "sources": source_digest(),
            "nproc": usable_cpus(),
            "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
            "compiler": cache.get("CMAKE_CXX_COMPILER", "?"),
            "env": knobs,
        }, sort_keys=True))
        sys.stdout.flush()

        cmd = ["./" + driver, "--tmpdir", tmpdir]
        if args.smoke:
            cmd.append("--smoke")
        else:
            cmd += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", repr(args.seconds),
                    "--trace", str(args.trace)]
            if args.trace:
                cmd += ["--trace-out", os.path.join(
                    bdir, "trace-%s-%d.jsonl" % (args.workload, args.seed))]
        code, last = run_driver(cmd, env)
    finally:
        shutil.rmtree(os.path.join(ROOT, tmpdir), ignore_errors=True)
    if code != 0:
        fail("driver exited with %d" % code)
    if not args.smoke:
        try:
            result = json.loads(last)
        except ValueError:
            fail("driver printed no JSON result")
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            fail("driver result has unexpected keys")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
        if set(result["metrics"]) != {m["name"] for m in spec}:
            fail("driver metrics differ from BENCHMARK.json")
    return 0


def run_driver(cmd, env):
    """Runs the driver, echoing its output; returns (exit code, last line).

    The driver runs in its own process group, killed after RUN_LIMIT_S and
    whenever this script exits early.
    """
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(RUN_LIMIT_S, kill)
    timer.start()
    last = ""
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            if line.strip():
                last = line.strip()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            kill()
        proc.wait()
    sys.stdout.flush()
    if proc.returncode == -signal.SIGKILL:
        print("perfbench: driver killed after %.0f s" % RUN_LIMIT_S,
              file=sys.stderr)
    return proc.returncode, last


if __name__ == "__main__":
    sys.exit(main())

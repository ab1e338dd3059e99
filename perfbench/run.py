#!/usr/bin/env python3
"""The serving benchmark: one command, run from the root of the repository.

    python3 perfbench/run.py --workload churn_durable --seed 7 --seconds 40 --trace 0

Builds toprr_serve and the benchmark driver (perfbench/CMakeLists.txt, an
optimized build in .bench_build, or in $CARGO_TARGET_DIR when set), records
the build and host provenance, refuses to measure a sanitized or unoptimized
build, and runs perfbench_driver. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
perfbench/README.md describes the workloads and every metric.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("uniform_solve", "zipf_repeat", "churn_durable")
TARGETS = ("toprr_serve", "perfbench_driver")
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo")
DRIVER_TIMEOUT_S = 170
# Files whose contents identify the code under test when git cannot.
DIGEST_ROOTS = ("CMakeLists.txt", "src", "examples/toprr_serve.cpp", "perfbench")


def stop_group(process):
    """Kills what is left of the process group led by `process` and waits
    until every member has exited."""
    for _ in range(100):
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        if process.poll() is None:
            process.wait()
        time.sleep(0.05)
    process.wait()


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(repo, build_dir):
    """Configures (once) and builds the two targets; False on failure."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(repo, "perfbench"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    command = ["cmake", "--build", build_dir, "-j", "4", "--target", *TARGETS]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def cmake_cache(build_dir):
    cache = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as lines:
        for line in lines:
            if line.startswith(("#", "//")) or "=" not in line or ":" not in line:
                continue
            key, value = line.rstrip("\n").split("=", 1)
            cache[key.split(":", 1)[0]] = value
    return cache


def first_line(command):
    try:
        out = subprocess.run(command, capture_output=True, text=True, timeout=30)
        return out.stdout.splitlines()[0].strip() if out.returncode == 0 else ""
    except (OSError, IndexError, subprocess.TimeoutExpired):
        return ""


def source_digest(repo):
    digest = hashlib.sha256()
    for root in DIGEST_ROOTS:
        path = os.path.join(repo, root)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, names in os.walk(path) for f in names)
        for name in files:
            digest.update(os.path.relpath(name, repo).encode())
            with open(name, "rb") as data:
                digest.update(data.read())
    return digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def provenance(repo, cache):
    sha = first_line(["git", "-C", repo, "rev-parse", "HEAD"])
    dirty = None
    if sha:
        status = subprocess.run(["git", "-C", repo, "status", "--porcelain"],
                                capture_output=True, text=True)
        dirty = bool(status.stdout.strip())
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(filter(None, (
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", ""))))
    sanitizers = [name for name in ("TOPRR_SANITIZE_THREAD", "TOPRR_SANITIZE_ADDRESS")
                  if cache.get(name, "OFF").upper() in ("ON", "TRUE", "1")]
    if "-fsanitize" in flags:
        sanitizers.append("flags")
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    return {
        "git_sha": sha or "unavailable (not a git checkout)",
        "git_dirty": dirty,
        "source_digest": source_digest(repo),
        "compiler": first_line([compiler, "--version"]) or compiler,
        "build_type": build_type,
        "cxx_flags": flags,
        "sanitizers": sanitizers,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(repo, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(repo, build_dir):
        log("build failed")
        return 1
    cache = cmake_cache(build_dir)
    record = provenance(repo, cache)
    if record["build_type"] not in OPTIMIZED_BUILD_TYPES or record["sanitizers"] \
            or "-O0" in record["cxx_flags"].split():
        log(f"refusing to measure a {record['build_type'] or 'unset'} build "
            f"(sanitizers: {record['sanitizers']}); reconfigure {build_dir} as Release")
        return 3
    print("perfbench provenance " + json.dumps(record), flush=True)

    work_dir = os.path.join(repo, ".bench_work")
    os.makedirs(work_dir, exist_ok=True)
    # The driver leads its own process group, so whatever it leaves behind
    # (a toprr_serve it spawned, should it crash) is stopped and waited for.
    driver = subprocess.Popen(
        [os.path.join(build_dir, "perfbench_driver"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--server", os.path.join(build_dir, "toprr", "toprr_serve"),
         "--work_dir", work_dir],
        cwd=repo, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = driver.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {DRIVER_TIMEOUT_S} s")
        stdout = ""
    stop_group(driver)
    lines = stdout.splitlines()
    if driver.returncode != 0 or not lines:
        log(f"driver failed with exit code {driver.returncode}")
        return driver.returncode or 1
    with open(os.path.join(work_dir, "provenance.json"), "w") as out:
        json.dump(record, out)
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

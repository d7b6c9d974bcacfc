#!/usr/bin/env python3
"""Build and run the router benchmark.

    python3 routerbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures and builds routerbench/ (the
router's src/ plus the benchmark program) into .bench_build/routerbench with
CMake, then runs the binary with the given arguments. Build output goes to
stderr, so the last line on stdout is the benchmark's JSON result. Exits
non-zero without a result when the sources are missing or the build fails.
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_id():
    """Git commit when available, plus a digest of the sources built."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "none"
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for d, dirs, files in os.walk(top):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return f"git={sha} src_sha256={h.hexdigest()[:16]}"


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    run = lambda cmd: subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
    if run(configure):
        # A cache left by a build of another source tree: start afresh once.
        shutil.rmtree(build_dir, ignore_errors=True)
        if run(configure):
            return False
    return run(["cmake", "--build", build_dir, "-j", jobs]) == 0


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: router sources (src/) not found next to routerbench/",
              file=sys.stderr)
        return 2
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(base), "routerbench")
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(build_dir, "routerbench"), *sys.argv[1:],
           "--source-id", source_id(),
           "--spans-dir", os.path.join(os.path.abspath(base), "spans")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

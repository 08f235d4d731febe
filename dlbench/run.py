#!/usr/bin/env python3
"""Run one workload of the DLearn benchmark.

    python3 dlbench/run.py --workload movies-sim --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the harness from source on first use
(see ``build.py``), runs the workload in one JVM, and prints the JVM's report
line followed, as the last line, by the result object
``{"correct", "attempted", "failed", "metrics"}``. Reports and span dumps go
to ``$CARGO_TARGET_DIR/dlbench`` (default ``.bench_build/dlbench``).
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

WORKLOADS = ("movies-sim", "papers-repaired")
JVM_TIMEOUT_S = 175
HEAP = "3g"

# Spark on JDK 17 needs the module system opened up (as in the root build).
JAVA_OPTS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "-XX:-UsePerfData",  # no hsperfdata file outside the checkout
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandleAccessor=false",
    "-Dspark.driver.host=127.0.0.1",
]


def git_commit() -> str:
    if not (build.ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=build.ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()

    out = build.ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "dlbench"
    out.mkdir(parents=True, exist_ok=True)
    classes = build.build(out)
    tmp = out / "tmp"
    tmp.mkdir(exist_ok=True)
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}"] + JAVA_OPTS + [
        f"-Djava.io.tmpdir={tmp}",
        f"-Dlog4j2.configurationFile={build.HERE / 'log4j2.properties'}",
        f"-Ddlbench.commit={git_commit()}",
        f"-Ddlbench.sources={build.stamp(build.sources())}",
        "-cp", os.pathsep.join([str(classes), str(build.spark_jars() / "*")]),
        "dlbench.Main",
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", a.trace, "--out", str(out),
    ])
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=JVM_TIMEOUT_S, cwd=out)
    except subprocess.TimeoutExpired:
        print(f"dlbench: workload did not finish within {JVM_TIMEOUT_S} s", file=sys.stderr)
        return 3
    result = None
    for line in done.stdout.splitlines():
        if line.startswith("DLBENCH_RESULT "):
            result = line[len("DLBENCH_RESULT "):]
        elif line.startswith("DLBENCH_REPORT "):
            print(line[len("DLBENCH_REPORT "):])
        else:
            print(line)
    if done.returncode != 0 or result is None:
        print(f"dlbench: harness exited with {done.returncode} and no result", file=sys.stderr)
        return done.returncode or 4
    print(result, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

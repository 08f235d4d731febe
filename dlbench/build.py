"""Build file of the DLearn benchmark harness.

Compiles the program's main sources (``src/main/scala``) together with the
harness sources (``dlbench/src``) with the Scala compiler shipped in the
Spark distribution's jars, into ``<build dir>/classes``. A stamp over the
source paths and contents skips the compile when nothing changed.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM_SOURCES = ROOT / "src" / "main" / "scala"
HARNESS_SOURCES = HERE / "src"


def spark_jars() -> Path:
    return Path(os.environ.get("SPARK_HOME", "/opt/spark")) / "jars"


def sources() -> list:
    found = sorted(PROGRAM_SOURCES.rglob("*.scala")) + sorted(HARNESS_SOURCES.rglob("*.scala"))
    return [p for p in found if p.is_file()]


def stamp(files: list) -> str:
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(p.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def build(out: Path) -> Path:
    """Compile into ``out/classes`` unless the stamp is current; return it."""
    files = sources()
    if not PROGRAM_SOURCES.is_dir() or not files:
        raise SystemExit(f"dlbench: program sources not found under {PROGRAM_SOURCES}")
    jars = spark_jars()
    if not jars.is_dir():
        raise SystemExit(f"dlbench: Spark jars not found at {jars} (set SPARK_HOME)")
    classes = out / "classes"
    stamp_file = out / "classes.stamp"
    digest = stamp(files)
    if classes.is_dir() and stamp_file.is_file() and stamp_file.read_text() == digest:
        return classes
    shutil.rmtree(classes, ignore_errors=True)
    classes.mkdir(parents=True)
    cmd = ["java", "-XX:-UsePerfData", "-Xss8m", "-Xmx2g", "-cp", str(jars / "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", str(classes)] + [str(p) for p in files]
    print(f"dlbench: compiling {len(files)} sources", file=sys.stderr, flush=True)
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=800)
    if done.returncode != 0:
        shutil.rmtree(classes, ignore_errors=True)
        raise SystemExit(f"dlbench: compile failed ({done.returncode})")
    stamp_file.write_text(digest)
    return classes


if __name__ == "__main__":
    print(build(ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "dlbench"))

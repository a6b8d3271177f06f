"""Build file of the benchmark: compiles the program's main sources together
with the benchmark's own sources, with the Scala compiler that ships in the
Spark distribution (no sbt, no network). The classes are reused while no
source file changes.
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
BENCH_SOURCES = os.path.join(HERE, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
CLASSES = os.path.join(WORK, "classes")
STAMP = os.path.join(WORK, "classes.sha256")


class BuildError(Exception):
    pass


def spark_jars():
    home = os.environ.get("SPARK_HOME", "")
    jars = os.path.join(home, "jars")
    if not home or not os.path.isdir(jars):
        raise BuildError("SPARK_HOME must name a Spark distribution with a jars/ directory")
    return jars


def java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        raise BuildError("no java executable (set JAVA_HOME or put java on PATH)")
    return exe


def sources():
    if not os.path.isdir(PROGRAM_SOURCES):
        raise BuildError("no program sources at src/main/scala: run from a checkout of the repository")
    found = []
    for base in (PROGRAM_SOURCES, BENCH_SOURCES):
        for d, _, files in os.walk(base):
            found += [os.path.join(d, f) for f in files if f.endswith(".scala")]
    return sorted(found)


def digest(files, jars):
    h = hashlib.sha256()
    h.update("\n".join(sorted(os.listdir(jars))).encode())
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def ensure_built():
    """Compile if any source changed; return the class directory."""
    jars = spark_jars()
    files = sources()
    want = digest(files, jars)
    if os.path.exists(STAMP) and open(STAMP).read().strip() == want:
        return CLASSES
    staging = CLASSES + ".tmp"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    cmd = [java(), "-Xmx2g", "-Xss8m", "-XX:-UsePerfData", "-cp", os.path.join(jars, "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", staging] + files
    print("perfbench: compiling %d source files" % len(files), file=sys.stderr)
    res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if res.returncode != 0:
        raise BuildError("compilation failed")
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.rename(staging, CLASSES)
    with open(STAMP, "w") as fh:
        fh.write(want + "\n")
    return CLASSES

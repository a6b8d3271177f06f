#!/usr/bin/env python3
"""Benchmark of the golden-record pipeline (Algorithm 1).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the program and the benchmark (see build.py), then runs one workload
in its own JVM with a fixed heap. The last line of stdout is a JSON object
with the keys correct, attempted, failed and metrics. See README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # the checkout stays as git would have it
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

HEAP = "3g"
RUN_TIMEOUT_S = 170

# Spark on Java 17 needs these, as its own launcher passes them.
JAVA_OPTS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]

# The run sets master, partitions and heap itself; none of these may leak in.
DROPPED_ENV = ["SPARK_MASTER", "SPARK_SHUFFLE_PARTITIONS", "SPARK_DRIVER_MEM",
               "SPARK_LOCAL_DIRS", "SPARK_CONF_DIR", "JAVA_TOOL_OPTIONS", "_JAVA_OPTIONS",
               "JDK_JAVA_OPTIONS"]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        classes = build.ensure_built()
        java, jars = build.java(), build.spark_jars()
    except (build.BuildError, subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    work = os.path.join(build.WORK, "run")
    scratch = [os.path.join(work, "tmp"), os.path.join(work, "spark")]
    for d in scratch:
        shutil.rmtree(d, ignore_errors=True)
    os.makedirs(scratch[0])
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    cmd = [java, "-Xms" + HEAP, "-Xmx" + HEAP, "-XX:+UseParallelGC", "-XX:-UsePerfData", "-Xss8m",
           "-Djava.io.tmpdir=" + os.path.join(work, "tmp"),
           "-Dlog4j2.configurationFile=" + os.path.join(build.HERE, "log4j2.properties"),
           *JAVA_OPTS,
           "-cp", classes + os.pathsep + os.path.join(jars, "*"),
           "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", work]
    try:
        res = subprocess.run(cmd, cwd=build.ROOT, env=env, timeout=RUN_TIMEOUT_S)
        code = res.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 3
    finally:
        for d in scratch:
            shutil.rmtree(d, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of Slim.link: builds the program from source, runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cab-bf15 --seed 1 --seconds 5 --trace 0

  --workload  cab-bf15 | cab-bf360 | sm-lsh (see perfbench/src/perfbench/Workloads.scala)
  --seed      input seed; the same seed gives the same input
  --seconds   how long warm links are timed
  --trace     0: end-to-end metrics; 1: per-layer metrics from a traced run

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics".

Other modes:
  --self-test              run the benchmark's own tests
  --record FROM-TO         print expected.tsv lines for seeds FROM..TO of --workload

It compiles with the Scala compiler and jars of the Spark distribution at
$SPARK_HOME (or the one whose spark-submit is on the PATH). The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), and Spark's
working files to a directory beside it; nothing is written outside the
checkout.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run ends within 180 s, or 900 s when it has to build first.
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 890

# A fixed, pre-touched heap and the throughput collector: in one trial on a
# 4-vCPU VM they gave steadier link times from run to run than the default
# G1 with a growing heap.
JAVA_OPTS = [
    "-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:+AlwaysPreTouch",
    "-XX:-UsePerfData",  # no hsperfdata files outside the checkout
    "-XX:+IgnoreUnrecognizedVMOptions",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
] + ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar")]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def find_spark_home():
    """$SPARK_HOME, else the Spark distribution whose bin/ on the PATH holds
    spark-submit next to a jars/ directory."""
    homes = [os.environ.get("SPARK_HOME", "")] + [
        os.path.dirname(os.path.abspath(d))
        for d in os.environ.get("PATH", "").split(os.pathsep)
        if d and os.path.isfile(os.path.join(d, "spark-submit"))]
    return next((h for h in homes if h and os.path.isdir(os.path.join(h, "jars"))), None)


def run(cmd, limit, **kw):
    """Run cmd in its own process group; kill the group if it overruns."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s did not finish within %d s" % (cmd[0], limit))
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record")
    a = ap.parse_args()
    if not a.self_test and not a.workload:
        fail("--workload is required")
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        fail("no program sources at src/main/scala; run from a checkout of the repo")

    spark_home = find_spark_home()
    if not spark_home:
        fail("no Spark distribution; set SPARK_HOME")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, target, "perfbench")
    work = os.path.join(ROOT, target, "perfbench-work")
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)

    t0 = time.monotonic()
    make = ["make", "-s", "-C", HERE, "BUILD=" + build, "SPARK_HOME=" + spark_home]
    stale, _ = run(make + ["-q"], 60, stdout=subprocess.DEVNULL)
    budget = BUILD_LIMIT_S if stale else RUN_LIMIT_S
    rc, _ = run(make, budget, stdout=sys.stderr)
    if rc != 0:
        fail("build failed")
    rc, cp = run(make + ["classpath"], 60, stdout=subprocess.PIPE, text=True)
    if rc != 0:
        fail("could not get the classpath")

    java = ["java"] + JAVA_OPTS + [
        "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
        "-Djava.io.tmpdir=" + os.path.join(work, "tmp"),
        "-cp", cp.strip()]
    if a.self_test:
        cmd = java + ["perfbench.SelfTest", "--work", work]
    else:
        cmd = java + ["perfbench.Main", "--workload", a.workload, "--seed", str(a.seed),
                      "--seconds", str(a.seconds), "--trace", str(a.trace),
                      "--work", work, "--expected", os.path.join(HERE, "expected.tsv")]
        if a.record:
            cmd += ["--record", a.record]
    limit = 3600 if a.record else budget - (time.monotonic() - t0)
    rc, _ = run(cmd, limit, cwd=ROOT)
    sys.exit(rc)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""PairwiseHist benchmark: one workload, one seed, one fresh JVM.

Usage (from the repository root):

    python3 perfbench/run.py --workload power-dist --seed 1 --seconds 12 --trace 0

Builds the benchmark together with the system's sources (src/main/scala)
with sbt when they changed since the last build, then runs the workload on
its committed inputs (perfbench/workloads/<name>). The seed orders the timed
query stream; --seconds caps it. See perfbench/METRICS.md for what is
measured.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`, each metric with its unit from BENCHMARK.json. With
--trace 0 it has the end-to-end metrics, with --trace 1 the per-layer ones.
The exit code is 1 after a result with a failed correctness check. It is 2,
with no result, when the system's sources are missing or the build or run
fails.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
TARGET = os.path.join(HERE, "target")
CLASSPATH = os.path.join(TARGET, "classpath.txt")
STAMP = os.path.join(TARGET, "build.stamp")
WORK = os.path.join(TARGET, "work")

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170

# Options the Spark launcher passes to a Java 17 JVM.
JAVA_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
              "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
              "sun.util.calendar")
] + ["-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true"]

# A fixed heap, so that collections happen at the same occupancy in every run.
JAVA_HEAP = ["-Xms3g", "-Xmx3g"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def sources(root):
    """Every file the build reads, in a fixed order."""
    dirs = [os.path.join(root, "src", "main", "scala"), os.path.join(HERE, "src")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for d in dirs:
        for base, _, names in os.walk(d):
            files += [os.path.join(base, n) for n in names]
    return sorted(files)


def stamp(root):
    h = hashlib.sha256()
    for f in sources(root):
        h.update(os.path.relpath(f, root).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_group(cmd, cwd, timeout, stdout=None):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=stdout, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out


def build(root):
    want = stamp(root)
    if os.path.exists(CLASSPATH) and os.path.exists(STAMP):
        with open(STAMP) as fh:
            if fh.read() == want:
                return
    cmd = ["sbt", "--batch", "-Dsbt.server.autostart=false", "-Dsbt.supershell=false", "writeClasspath"]
    # sbt's log goes to stderr, so stdout carries only the result line.
    code, _ = run_group(cmd, HERE, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0 or not os.path.exists(CLASSPATH):
        fail("build failed (sbt exit %d)" % code)
    with open(STAMP, "w") as fh:
        fh.write(want)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(HERE)
    if not os.path.isdir(os.path.join(root, "src", "main", "scala", "repro")):
        fail("the system's sources (src/main/scala/repro) are not in %s" % root)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    build(root)
    with open(CLASSPATH) as fh:
        cp = fh.read().strip()
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [java] + JAVA_HEAP + JAVA_OPENS + [
        "-Djava.io.tmpdir=" + tmp,
        "-Dspark.driver.host=127.0.0.1",
        "-cp", cp, "repro.perfbench.Main",
        args.workload, str(args.seed), str(args.seconds), str(args.trace), WORK,
    ]
    # Spark's scratch files stay in the work directory even when the
    # environment points Spark elsewhere.
    os.environ["SPARK_LOCAL_DIRS"] = os.path.join(WORK, "spark")
    t0 = time.time()
    code, out = run_group(cmd, root, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    lines = [l for l in out.decode().splitlines() if l.startswith("PERFBENCH_RESULT ")]
    if not lines:
        fail("run failed (java exit %d) after %.0f s" % (code, time.time() - t0))
    result = json.loads(lines[-1][len("PERFBENCH_RESULT "):])

    got = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in got]
    extra = sorted(set(got) - {m["name"] for m in declared})
    if missing or extra:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (missing, extra))
    bad = [k for k, v in got.items() if not isinstance(v, (int, float)) or v != v or abs(v) == float("inf")]
    if bad:
        fail("non-finite metrics: %s" % bad)
    result["metrics"] = {m["name"]: {"value": got[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and code == 0 else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run one workload of the MSTM benchmark and print its result.

    python3 mstmbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 mstmbench/run.py --self-test

Run it from the root of a checkout of the repository. The first run builds
the program from the checkout's sources together with the benchmark driver
(sbt, offline; see build.sbt) into .bench_build/mstmbench, and later runs
reuse that build until a source file changes. Each run is one fresh JVM with
a fixed heap. Standard output ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}; the
exit code is 0 only when every output check passed. Per-run records (the
environment and the result) and traces land in .bench_build/mstmbench/runs.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "mstmbench"
PROGRAM_SOURCES = ROOT / "src" / "main" / "scala"
CLASSPATH_FILE = BUILD_DIR / "target" / "runtime-classpath.txt"
CLASS_ARCHIVE = BUILD_DIR / "classes.jsa"
STAMP_FILE = BUILD_DIR / "build.stamp"

WORKLOADS = ("online-m2", "batch-m4-masked")
BUILD_TIMEOUT_S = 700
ARCHIVE_TIMEOUT_S = 150
RUN_TIMEOUT_S = 170
HEAP = "2g"

# Spark on JDK 17 needs these modules opened (the flags spark-submit passes).
JVM_OPENS = [
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
    "-Djdk.reflect.useDirectMethodHandle=false",
]


def fail(msg, code=2):
    print(f"mstmbench: {msg}", file=sys.stderr)
    sys.exit(code)


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    if not home or not (Path(home) / "jars").is_dir():
        fail("no Spark distribution found: set SPARK_HOME")
    return home


def source_stamp():
    """Hash of every file the build reads, so an edit triggers a rebuild."""
    files = sorted(p for d in (PROGRAM_SOURCES, BENCH_DIR / "src") for p in d.rglob("*") if p.is_file())
    files += [BENCH_DIR / "build.sbt", BENCH_DIR / "project" / "build.properties"]
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def java_cmd(*flags):
    java = str(Path(os.environ["JAVA_HOME"]) / "bin" / "java") if os.environ.get("JAVA_HOME") else "java"
    return [java, f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={BUILD_DIR / 'tmp'}", *JVM_OPENS, *flags,
            "-cp", CLASSPATH_FILE.read_text().strip(), "repro.mstmbench.Main"]


def build(env):
    stamp = source_stamp()
    if (CLASSPATH_FILE.is_file() and CLASS_ARCHIVE.is_file() and STAMP_FILE.is_file()
            and STAMP_FILE.read_text() == stamp):
        return
    print("mstmbench: building the program and the benchmark (sbt)", file=sys.stderr)
    (BUILD_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    sbt = shutil.which("sbt") or fail("sbt is not on PATH")
    try:
        proc = subprocess.run(
            [sbt, "--batch", "-Dsbt.log.noformat=true", "-Dsbt.boot.lock=false",
             f"-Djna.tmpdir={BUILD_DIR / 'tmp'}", "writeClasspath"],
            cwd=BENCH_DIR, env=env, stdin=subprocess.DEVNULL, stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build took longer than {BUILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not CLASSPATH_FILE.is_file():
        fail(f"build failed (sbt exit {proc.returncode})")
    # Class-data archive of the classes a run loads before set-up: JVM and
    # Spark start and input generation, none of which a metric times. Every
    # run maps it, which saves several seconds of start-up per run. Set-up,
    # search and verification load their own classes from the jars.
    CLASS_ARCHIVE.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            java_cmd(f"-XX:ArchiveClassesAtExit={CLASS_ARCHIVE}", "-Xlog:cds=off", "-Xlog:cds+dynamic=off")
            + ["--archive-pass", str(BUILD_DIR / "archive-pass")],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=sys.stderr, timeout=ARCHIVE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"class-data archive pass took longer than {ARCHIVE_TIMEOUT_S} s")
    if proc.returncode != 0 or not CLASS_ARCHIVE.is_file():
        fail(f"class-data archive not written (exit {proc.returncode})")
    STAMP_FILE.write_text(stamp)


def main():
    # A terminated runner stops its JVM (or sbt) too: SystemExit unwinds
    # through the kill-and-wait below and through subprocess.run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true", help="only check that the output gate rejects corruptions")
    a = ap.parse_args()
    if not a.self_test and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not (PROGRAM_SOURCES / "repro").is_dir():
        fail(f"program sources not found under {PROGRAM_SOURCES}; run from a checkout of the repository")

    env = dict(os.environ, SPARK_HOME=spark_home(), MSTMBENCH_BUILD_DIR=str(BUILD_DIR))
    build(env)

    runs = BUILD_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (BUILD_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    # -Xshare:on: the JVM stops rather than run without the archive.
    cmd = java_cmd("-Xshare:on", f"-XX:SharedArchiveFile={CLASS_ARCHIVE}")
    if a.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                "--trace", str(a.trace), "--out", str(runs)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run took longer than {RUN_TIMEOUT_S} s", code=4)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()

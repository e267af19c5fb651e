#!/usr/bin/env python3
"""Repository benchmark for the Corelite/CSFQ simulator.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

It builds perfbench/main.exe with dune, then

  --trace 0  repeats the workload in fresh processes for about S seconds.
             Each repetition cuts its host time into segments that do
             the same work every time (set-up, 100 simulated-time slices
             per run, result assembly); the host times are summed from
             each segment's fastest repetition, since load from other
             processes only ever adds time. Peak RSS is the median. The
             exact metrics and the output digest must repeat on every
             repetition, or the run counts a determinism failure;
  --trace 1  runs the workload once untraced, once phase by phase with
             each layer call timed, once phase by phase untraced and
             once with Sim.Trace armed, and reports the per-layer
             metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Workloads and metrics are described in
BENCHMARK.json at the repository root.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = (
    "paper-figures",
    "fattree-k8-1e4-corelite-churn",
)
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
# Host measurements: combined over repetitions segment by segment.
TIMED = ("wall_s", "setup_s", "hops_per_s", "peak_rss_mb")
SEGMENTS = ("setup", "sim", "tail")
# Functions of the seed alone: must be identical on every repetition.
EXACT = ("minor_words_per_hop", "loss_frac", "jain_vs_reference")
BUILD_TIMEOUT_S = 800
REP_TIMEOUT_S = 150


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_cmd(args, timeout, env=None):
    """Run a command in its own process group; kill the group and wait
    for it on timeout, so nothing outlives the benchmark."""
    proc = subprocess.Popen(
        args,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("timed out: " + " ".join(args))
    return proc.returncode, out, err


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    # The shared dune cache lives outside the checkout; keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, out, err = run_cmd(
        [dune, "build", "--root", ".", "./perfbench/main.exe"], BUILD_TIMEOUT_S, env
    )
    if code != 0 or not os.path.isfile(EXE):
        fail("build failed\n" + out + err)


def repetition(mode, workload, seed):
    code, out, err = run_cmd(
        [EXE, mode, "--workload", workload, "--seed", str(seed)], REP_TIMEOUT_S
    )
    if code != 0:
        fail("%s repetition exited with %d\n%s" % (mode, code, err))
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        fail("unreadable record from main.exe:\n" + out + err)


def median(values):
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


def fastest_segments(reps):
    """Sum of each segment's fastest host time over the repetitions.
    A segment does the same work on every repetition of one seed, and
    contention from other processes on the host only ever slows it, so
    its fastest time is the steadiest estimate of the program's own
    cost."""
    best = {}
    for part in SEGMENTS:
        columns = [r["segments"][part] for r in reps]
        if any(len(c) != len(columns[0]) for c in columns):
            fail("repetitions cut into different numbers of %s segments" % part)
        best[part] = sum(min(seg) for seg in zip(*columns))
    return best


def end_to_end(workload, seed, seconds):
    """Fresh-process repetitions while the next one is expected to end
    within the budget (at least one)."""
    reps = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        reps.append(repetition("e2e", workload, seed))
        took = time.monotonic() - t0
        print(
            "repetition %d: " % len(reps)
            + ", ".join("%s=%.6g" % (k, reps[-1]["metrics"][k]["value"]) for k in TIMED),
            file=sys.stderr,
        )
        if time.monotonic() - start + took > seconds:
            break
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    first = reps[0]
    # Determinism: every repetition must reproduce the first exactly.
    for r in reps[1:]:
        for key, a, b in (
            [("digest", first["digest"], r["digest"])]
            + [(k, first["exact"][k], r["exact"][k]) for k in first["exact"]]
            + [(k, first["metrics"][k]["value"], r["metrics"][k]["value"]) for k in EXACT]
        ):
            attempted += 1
            if a != b:
                failed += 1
                failures.append("determinism: %s differs between repetitions" % key)
    values = {}
    for name in TIMED + EXACT:
        values[name] = [r["metrics"][name]["value"] for r in reps]
        if any(v is None for v in values[name]):
            fail("metric %s is not a finite number" % name)
    for r in reps:
        if any(v is None for part in SEGMENTS for v in r["segments"][part]):
            fail("a segment time is not a finite number")
    best = fastest_segments(reps)
    combined = {
        "wall_s": sum(best.values()),
        "setup_s": best["setup"],
        "hops_per_s": first["exact"]["hops"] / best["sim"],
        "peak_rss_mb": median(values["peak_rss_mb"]),
    }
    medians = {name: median(values[name]) for name in TIMED}
    metrics = {}
    for name in TIMED + EXACT:
        value = combined[name] if name in TIMED else values[name][0]
        metrics[name] = {"value": value, "unit": first["metrics"][name]["unit"]}
    summary = ", ".join(
        "%s=%.6g %s" % (k, v["value"], v["unit"]) for k, v in metrics.items()
    )
    print("%s seed %d: %d repetitions; %s" % (workload, seed, len(reps), summary))
    print(
        "medians over repetitions: "
        + ", ".join("%s=%.6g" % (k, v) for k, v in medians.items())
    )
    return attempted, failed, failures, metrics


def traced(workload, seed):
    r = repetition("trace", workload, seed)
    metrics = {}
    for name, m in r["metrics"].items():
        if m["value"] is None:
            fail("metric %s is not a finite number" % name)
        metrics[name] = m
    return r["attempted"], r["failed"], r["failures"], metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    build()
    if args.trace:
        attempted, failed, failures, metrics = traced(args.workload, args.seed)
    else:
        attempted, failed, failures, metrics = end_to_end(
            args.workload, args.seed, args.seconds
        )
    for f in failures:
        print("check failed: " + f)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()

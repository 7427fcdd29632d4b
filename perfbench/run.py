"""Benchmark of the `mixbar` command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. The inputs of the workload are
generated from --seed into .bench_work/: INPUTS_PER_RUN of them with
--trace 0, the first of them with --trace 1. Then `mixbar` runs as a fresh
process per invocation (perfbench/launch.py with src/ on PYTHONPATH), one
at a time, in rounds over the inputs for --seconds after one untimed
warm-up invocation, with a calibration process (calibrate.py) after each.
Every output is checked. With --trace 0 the end-to-end metrics are the
medians over invocations of their times divided by the calibrations around
them (scaled to the reference host; the raw medians are printed too); with
--trace 1 untraced and traced invocations alternate and the per-layer
metrics are the medians over the traced ones. Metric names and units come
from BENCHMARK.json. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the full record (machine,
input sizes, every sample, quartiles, counters, the spans of the last traced
invocation) goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from calibrate import CHECKSUM as CAL_CHECKSUM
from workloads import WORKLOADS, payload_digest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(HERE, "launch.py")
CALIBRATE = os.path.join(HERE, "calibrate.py")
MB = 1e6

# Median wall and CPU time of calibrate.py over seven minutes on the
# reference host (2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6). The
# end-to-end times are an invocation's times divided by the mean of the
# calibrations just before and after it, times these: the seconds the
# invocation takes on that host at its median speed.
CAL_REF_WALL_S = 0.62
CAL_REF_CPU_S = 0.74

# An untraced run cycles through this many inputs, each generated from the
# seed, so that its medians do not hang on the geometry of one input.
INPUTS_PER_RUN = 3
INVOCATION_TIMEOUT_S = 60.0
# No invocation starts after this much of a run has passed, so a run ends
# well inside three minutes even when the program gets much slower.
RUN_BUDGET_S = 110.0

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

# Per-layer time metric -> the spans whose self time it sums.
SELF_TIME_METRICS = {
    "cloud.load_s": ("cloud.load",),
    "cloud.distance_s": ("cloud.distance",),
    "filtration.parse_s": ("filtration.parse",),
    "filtration.validate_s": ("filtration.validate",),
    "rips.build_s": ("rips.build",),
    "reduction.reduce_s": ("reduction.reduce",),
    "stats.interaction_self_s": ("stats.interaction",),
    "stats.value_map_s": ("stats.value_map",),
    "stats.summary_s": ("stats.summary",),
    "stats.other_self_s": ("stats.compute", "stats.pairwise", "stats.profile"),
    "subsample.kmedoids_s": ("subsample.kmedoids",),
    "output.emit_s": ("output.emit",),
    "cli.self_s": ("cli.main",),
    "trace.bookkeeping_s": ("trace.bookkeeping",),
}


@dataclass
class Sample:
    """One finished `mixbar` invocation."""

    traced: bool
    wall: float
    cpu: float
    rss_mb: float
    setup: float
    code: int
    stdout: bytes
    record: dict
    problems: list[str]
    digest: str | None = None
    input: int = 0
    cal_wall: float = float("nan")
    cal_cpu: float = float("nan")

    @property
    def ok(self) -> bool:
        return not self.problems

    def row(self) -> dict:
        return {"input": self.input, "traced": self.traced, "wall_s": self.wall, "cpu_s": self.cpu,
                "peak_rss_mb": self.rss_mb, "setup_s": self.setup,
                "cal_wall_s": self.cal_wall, "cal_cpu_s": self.cal_cpu,
                "exit": self.code, "problems": self.problems}


def calibrate() -> tuple[float, float]:
    """Wall and CPU time of one calibrate.py process."""
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, CALIBRATE], stdout=subprocess.PIPE, cwd=ROOT)
    watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or out.strip() != CAL_CHECKSUM.encode():
        raise RuntimeError(f"calibrate.py failed: exit {proc.returncode}, output {out[:80]!r}")
    return wall, usage.ru_utime + usage.ru_stime


def invoke(argv: list[str], traced: bool, work: str) -> Sample:
    record_path = os.path.join(work, "record.json")
    out_path = os.path.join(work, "stdout.txt")
    err_path = os.path.join(work, "stderr.txt")
    if os.path.exists(record_path):
        os.remove(record_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, LAUNCH, record_path, "1" if traced else "0", "--", *argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.monotonic() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    problems = []
    record = {}
    if code != 0:
        with open(err_path, "rb") as fh:
            tail = fh.read()[-400:].decode("utf-8", "replace").strip()
        killed = f" (killed by signal {-code}; the limit is {INVOCATION_TIMEOUT_S:g} s)" if code < 0 else ""
        problems.append(f"exit code {code}{killed}: {tail}")
    else:
        with open(record_path, encoding="utf-8") as fh:
            record = json.load(fh)
        if not os.path.abspath(record["module"]).startswith(os.path.join(SRC, "")):
            problems.append(f"imported mixbar from {record['module']}, not from {SRC}")
    setup = record.get("imported_at", start) - start
    return Sample(traced, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss * 1024 / MB, setup, code, stdout, record, problems)


def check_output(sample: Sample, workload, inputs, digests: dict) -> None:
    """Invariants, the seed's digest and, for a traced run, counts the output shows."""
    if not sample.ok:
        return
    try:
        out = json.loads(sample.stdout)
    except ValueError as exc:
        sample.problems.append(f"output is not JSON: {exc}")
        return
    try:
        sample.problems.extend(workload.check(out, inputs))
    except (KeyError, IndexError, TypeError) as exc:
        sample.problems.append(f"output lacks an expected field: {exc!r}")
    digest = payload_digest(out)
    sample.digest = digest
    recorded = digests.get("recorded")
    if recorded is not None and digest != recorded:
        sample.problems.append(f"payload digest {digest[:16]} differs from the recorded {recorded[:16]}")
    first = digests.setdefault("first", digest)
    if digest != first:
        sample.problems.append("payload differs from the first invocation of this run")
    if sample.traced:
        counters = dict(sample.record["trace"]["counters"])
        counters["rips.cells"] = sum(v for k, v in counters.items() if k.startswith("rips.cells_d"))
        shown = {"output.bytes": len(sample.stdout)}
        if out.get("command") == "mixup":
            shown["reduction.bars"] = sum(len(e["triples"]) for e in out["degrees"].values())
            built_by = "filtration.cells" if inputs.argv[1] == "--filtration" else "rips.cells"
            shown[built_by] = out["cells"]
        for name, value in shown.items():
            if counters.get(name, 0) != value:
                sample.problems.append(f"traced {name} = {counters.get(name, 0)}, output shows {value}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def machine_record() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end_values(samples: list[Sample]) -> tuple[dict, dict, dict]:
    """Medians of the calibrated times and of the peak RSS, and the raw medians."""
    series = {
        "wall_s": [s.wall / s.cal_wall * CAL_REF_WALL_S for s in samples],
        "cpu_s": [s.cpu / s.cal_cpu * CAL_REF_CPU_S for s in samples],
        "peak_rss_mb": [s.rss_mb for s in samples],
        "setup_s": [s.setup / s.cal_wall * CAL_REF_WALL_S for s in samples],
    }
    raw = {
        "wall_s": statistics.median(s.wall for s in samples),
        "cpu_s": statistics.median(s.cpu for s in samples),
        "setup_s": statistics.median(s.setup for s in samples),
        "calibrate_wall_s": statistics.median(s.cal_wall for s in samples),
        "calibrate_cpu_s": statistics.median(s.cal_cpu for s in samples),
    }
    return {k: statistics.median(v) for k, v in series.items()}, series, raw


def per_layer_values(traced: list[Sample], plain: list[Sample]) -> tuple[dict, dict]:
    reports = [s.record["trace"] for s in traced]
    series: dict[str, list[float]] = {}
    for metric, spans in SELF_TIME_METRICS.items():
        series[metric] = [sum(r["self_s"].get(n, 0.0) for n in spans) for r in reports]
    for k in range(4):
        series[f"reduction.barcode_s.d{k}"] = [
            r["busy_s"].get(f"reduction.barcode.d{k}", 0.0) for r in reports
        ]
    series["trace.accounted_frac"] = [
        (s.setup + s.record["trace"]["main_s"]) / s.wall for s in traced
    ]
    values = {k: statistics.median(v) for k, v in series.items()}
    values["trace.overhead_frac"] = (
        statistics.median(s.wall / s.cal_wall for s in traced)
        / statistics.median(s.wall / s.cal_wall for s in plain) - 1
    )
    values.update(reports[0]["counters"])
    return values, series


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def input_rng(seed: int, index: int) -> np.random.Generator:
    """The generator of input `index` of a run with seed `seed`."""
    return np.random.default_rng([seed, index])


def run_invocations(workload, inputs: list, works: list[str], args, digests: list[dict],
                    started: float) -> list[Sample]:
    """One checked warm-up invocation, then rounds over the inputs for args.seconds.

    A round runs every input once (untraced, and traced after it with
    --trace 1) with a calibration after each invocation. After the first,
    a round starts only if it is expected to end by the deadline, so every
    input gets the same number of samples and a run measures for at most
    about args.seconds.
    """
    samples = []

    def run_one(j: int, traced: bool) -> None:
        s = invoke(inputs[j].argv, traced, works[j])
        s.input = j
        check_output(s, workload, inputs[j], digests[j])
        for p in s.problems:
            sys.stderr.write(f"FAILED ({workload.name}, seed {args.seed}, input {j}): {p}\n")
        samples.append(s)

    run_one(0, False)  # warm-up: byte-compiles src/ and fills the page cache
    deadline = time.monotonic() + args.seconds
    kinds = (False, True) if args.trace else (False,)
    cal_wall, cal_cpu = calibrate()
    samples[0].cal_wall, samples[0].cal_cpu = cal_wall, cal_cpu
    rounds = 0
    while True:
        round_s = (statistics.median(s.wall for s in samples) + cal_wall) * len(inputs) * len(kinds)
        now = time.monotonic()
        if now - started + round_s > RUN_BUDGET_S or (rounds and now + round_s > deadline):
            break
        for j in range(len(inputs)):
            for traced in kinds:
                run_one(j, traced)
                after_wall, after_cpu = calibrate()
                samples[-1].cal_wall = (cal_wall + after_wall) / 2
                samples[-1].cal_cpu = (cal_cpu + after_cpu) / 2
                cal_wall, cal_cpu = after_wall, after_cpu
        rounds += 1
    return samples


def counter_problems(traced: list[Sample]) -> list[str]:
    """Every traced invocation must report the same counters."""
    if not traced:
        return ["no traced invocation succeeded"]
    reports = [s.record["trace"] for s in traced]
    for warn in sorted({w for r in reports for w in r["missing"] + r["hook_errors"]}):
        sys.stderr.write(f"warning: trace incomplete: {warn}\n")
    first = reports[0]["counters"]
    problems = []
    for r in reports[1:]:
        diff = {k for k in set(first) | set(r["counters"]) if first.get(k) != r["counters"].get(k)}
        if diff:
            problems.append(f"counters differ between traced invocations: {sorted(diff)}")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mixbar", "cli.py")):
        sys.stderr.write(f"error: no mixbar source at {SRC}; run from a source checkout\n")
        return 2
    started = time.monotonic()
    spec = load_spec()
    workload = WORKLOADS[args.workload]
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        recorded = json.load(fh).get(workload.name, {}).get(str(args.seed))
    # Traced runs use the first input only, so that counters are per input.
    n_inputs = 1 if args.trace else INPUTS_PER_RUN
    digests = [{"recorded": recorded[j] if recorded else None} for j in range(n_inputs)]
    work = os.path.join(ROOT, ".bench_work", f"{workload.name}-{args.seed}-{args.trace}-{os.getpid()}")
    works = [os.path.join(work, f"input{j}") for j in range(n_inputs)]
    try:
        inputs = []
        for j, w in enumerate(works):
            os.makedirs(w)
            inputs.append(workload.generate(input_rng(args.seed, j), w))
        gen_s = time.monotonic() - started
        samples = run_invocations(workload, inputs, works, args, digests, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timed = samples[1:] or samples  # a program too slow for a second invocation still reports
    failed = sum(not s.ok for s in samples)
    plain = [s for s in timed if not s.traced and s.ok] or [s for s in timed if not s.traced]
    traced = [s for s in timed if s.traced and s.ok]
    count_problems = counter_problems(traced) if args.trace else []
    for p in count_problems:
        sys.stderr.write(f"FAILED ({workload.name}, seed {args.seed}): {p}\n")
    correct = failed == 0 and not count_problems

    e2e, e2e_series, raw = end_to_end_values(plain)
    if not args.trace:
        wanted, (values, series) = spec["end_to_end"], (e2e, e2e_series)
    else:
        wanted, (values, series) = spec["per_layer"], (
            per_layer_values(traced, plain) if traced else ({}, {})
        )
    metrics = {}
    for m in wanted:
        name = m["name"]
        metrics[name] = {"value": values.get(name, 0), "unit": m["unit"]}
        extra = ""
        if name in series:
            q1, _, q3 = quartiles(series[name])
            extra = f"  (median of {len(series[name])}; quartiles {q1:.6g} .. {q3:.6g})"
        print(f"{name:28s} {metrics[name]['value']:.6g} {m['unit']}{extra}")
    print(f"{'failed_frac':28s} {failed / len(samples):.6g}  ({failed} of {len(samples)} invocations)")
    for name, value in raw.items():
        print(f"{'raw ' + name:28s} {value:.6g} s  (uncalibrated median, untraced)")
    for j, d in enumerate(digests):
        state = "recorded" if d["recorded"] else "unrecorded"
        print(f"digest {state} for seed {args.seed} input {j}: {d.get('first', '-')}")
    machine = machine_record()
    print("machine " + json.dumps(machine))
    for j, inp in enumerate(inputs):
        print(f"input {j} " + json.dumps(inp.sizes))

    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "machine": machine,
        "inputs": [inp.sizes for inp in inputs], "generate_s": gen_s,
        "argv": [inp.argv for inp in inputs], "raw_medians": raw,
        "digests": [d.get("first") for d in digests], "digests_recorded": recorded,
        "attempted": len(samples), "failed": failed, "count_problems": count_problems,
        "samples": [s.row() for s in samples],
        "metrics": {k: dict(v, n=len(series.get(k, ())),
                            quartiles=quartiles(series[k]) if k in series else None)
                    for k, v in metrics.items()},
    }
    if traced:
        record["spans"] = traced[-1].record["trace"]["spans"]
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

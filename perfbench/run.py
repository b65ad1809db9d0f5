"""Run one safemean benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mc_kl --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --write-reference

Run it from a checkout of the repository: the package is imported from the
``src/`` directory beside this one, never from an installed copy, and the
command fails without printing a result when that directory is missing.

With ``--trace 0`` the run measures set-up time in fresh interpreters, runs
the correctness checks, then runs whole passes of the workload's operations
for about ``--seconds`` seconds and reports the end-to-end metrics. With
``--trace 1`` it runs the checks and a fixed number of passes, each
operation twice: plain, then with every public function wrapped in a span
(``spans.py``). It reports the per-module metrics (``layers.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report. The full record of the run, with its environment,
every operation and, when traced, every span, is written to
``perfbench/out/``. ``--write-reference`` recomputes ``reference.json`` at
the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_S, SpeedTrack

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

# The workloads run single-threaded: the harness gets threads=1 and native
# libraries are pinned to one thread before numpy is first imported.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 60

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

# A fresh interpreter that pays what every CLI invocation pays, then makes the
# workload's first call; it prints the monotonic clock (system-wide on Linux)
# when that call has returned, then the machine-speed probe's time.
SETUP_CHILD = """\
import sys
sys.path[:0] = [{src!r}, {here!r}]
import safemean.cli
import time
import workloads
workloads.WORKLOADS[{workload!r}].first_call({seed!r})
done = time.monotonic()
import speed
print(repr(done), repr(speed.probe()), flush=True)
"""

IMPORT_CHILD = "import sys; sys.path.insert(0, {src!r}); import safemean.cli"


def import_package() -> None:
    if not (SRC / "safemean" / "__init__.py").is_file():
        raise SystemExit(f"error: no safemean package under {SRC}; run from a checkout of the repository")
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import safemean

    if Path(safemean.__file__).resolve().parent != SRC / "safemean":
        raise SystemExit(f"error: imported safemean from {safemean.__file__}, not from {SRC}")


def _child(argv) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def time_to_first_call(workload: str, seed: int):
    """Seconds from starting a fresh interpreter to its first completed workload
    call, and the speed probe's seconds in that interpreter right after."""
    code = SETUP_CHILD.format(src=str(SRC), here=str(HERE), workload=workload, seed=seed)
    start = time.monotonic()
    done = _child([sys.executable, "-c", code])
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    end, probe = (float(field) for field in done.stdout.split()[-2:])
    return end - start, probe


def import_times() -> dict:
    """Median cumulative import time of each safemean module under ``-X importtime``."""
    samples = {}
    for _ in range(IMPORT_REPEATS):
        done = _child([sys.executable, "-X", "importtime", "-c", IMPORT_CHILD.format(src=str(SRC))])
        if done.returncode != 0:
            raise RuntimeError(f"import probe failed:\n{done.stderr}")
        for line in done.stderr.splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and fields[-1].strip().startswith("safemean."):
                module = fields[-1].strip().split(".", 1)[1]
                samples.setdefault(module, []).append(int(fields[1]) * 1e-6)
    return {module: statistics.median(values) for module, values in samples.items()}


def run_ops(ops, track=None) -> list:
    """Run operations back to back; time each call and check its result.

    With a ``SpeedTrack``, each record notes the probe sample it follows.
    """
    records = []
    for op in ops:
        speed = track.mark() if track is not None else None
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # counted as a failed operation; the run goes on
            seconds = time.perf_counter() - start
            error = f"{op.name}: raised {type(exc).__name__}: {exc}"
        else:
            seconds = time.perf_counter() - start
            error = op.check(result)
        after = resource.getrusage(resource.RUSAGE_SELF)
        records.append({
            "name": op.name, "phase": op.phase, "kind": op.kind, "n": op.n, "work": op.work,
            "seconds": seconds, "minflt": after.ru_minflt - before.ru_minflt,
            "maxrss_mb": after.ru_maxrss / 1024.0, "error": error, "speed": speed,
        })
    return records


def timed_passes(workload, seed: int, seconds: float, refs: dict) -> list:
    """Whole rounds of passes, as many as fit the time budget judged by the first round.

    Each record gets ``ref_seconds``, its seconds scaled to reference speed.
    """
    track = SpeedTrack()
    per_round = workload.passes_per_round
    records = []
    for index in range(per_round):
        records += run_ops(workload.pass_ops(seed, index, refs), track)
    first = sum(r["seconds"] for r in records)
    for index in range(per_round, per_round * max(1, round(seconds / first))):
        records += run_ops(workload.pass_ops(seed, index, refs), track)
    track.close()
    for r in records:
        r["ref_seconds"] = r["seconds"] * track.scale(r["speed"])
    return records


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def _commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[5:]
    found = _read(ROOT / ".git" / ref)
    if found:
        return found
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    model = next((line.split(":", 1)[1].strip() for line in _read(Path("/proc/cpuinfo")).splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        caches[f"L{level} {kind}"] = _read(index / "size")
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "cpu_model": model,
        "caches": caches, "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": _commit(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "harness_threads": 1, "thread_env": THREAD_ENV,
    }


def report_cells(records) -> None:
    cells = {}
    for r in records:
        if r["phase"] == "timed":
            cells.setdefault("/".join(r["name"].split("/")[:2]), []).append(r)
    for key, rs in cells.items():
        work, secs = sum(r["work"] for r in rs), sum(r["seconds"] for r in rs)
        print(f"  {key:32s} ops={len(rs):5d} n={rs[0]['n']:5d} work={work:8d} {work / secs:10.1f}/s "
              f"minflt/work={sum(r['minflt'] for r in rs) / work:7.3f} maxrss={max(r['maxrss_mb'] for r in rs):7.1f} MB")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    import_package()
    from layers import DESIGN, UNITS, layer_metrics, nearest_rank
    from spans import Tracer, patched
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.write_reference:
        refs = {"seed": DEFAULT_SEED}
        refs.update({name: w.reference(DEFAULT_SEED) for name, w in WORKLOADS.items()})
        REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"wrote {REFERENCE}")
        return 0
    if args.workload not in WORKLOADS or args.seed is None:
        parser.error(f"--workload (one of {', '.join(WORKLOADS)}) and --seed are required")

    workload = WORKLOADS[args.workload]
    refs = json.loads(REFERENCE.read_text())
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    record = {"env": env}

    if args.trace == 0:
        setup = [time_to_first_call(workload.name, args.seed) for _ in range(SETUP_REPEATS)]
        records = run_ops(workload.check_ops(args.seed, refs))
        timed = timed_passes(workload, args.seed, args.seconds, refs)
        records += timed
        work = sum(r["work"] for r in timed)
        secs, ref_secs = sum(r["seconds"] for r in timed), sum(r["ref_seconds"] for r in timed)
        values = {
            "setup_s": statistics.median(seconds * REFERENCE_S / probe for seconds, probe in setup),
            "ops_per_s": work / ref_secs,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        print(f"timed: {work} {workload.unit}s in {secs:.3f} s measured, {ref_secs:.3f} reference s; "
              f"measured {work / secs:.1f} {workload.unit}s/s")
        print(f"set-up: measured {[round(s, 4) for s, _ in setup]} s, "
              f"probe {[round(p, 4) for _, p in setup]} s (reference {REFERENCE_S} s)")
        report_cells(timed)
        latencies = [r["seconds"] for r in timed if r["kind"] == "certificate"]
        if latencies:
            print(f"  verify_certificate latency: p50={1e3 * nearest_rank(latencies, 0.5):.3f} ms "
                  f"p99={1e3 * nearest_rank(latencies, 0.99):.3f} ms over {len(latencies)} calls")
        record["setup_samples_s"] = setup
    else:
        imports = import_times()
        ops = workload.check_ops(args.seed, refs)
        for index in range(workload.trace_passes):
            ops += workload.pass_ops(args.seed, index, refs)
        # Each operation runs plain, then traced, so that drift in machine
        # speed over the run does not enter the tracing overhead.
        plain, traced = [], []
        tracer = Tracer()
        for index, op in enumerate(ops):
            plain += run_ops([op])
            tracer.op = index
            with patched(tracer):
                traced += run_ops([op])
        records = plain + traced
        values = layer_metrics(tracer.spans, ops, traced, plain, imports)
        units = UNITS
        print(f"traced: {workload.trace_passes} passes and the checks, {len(tracer.spans)} spans")
        report_cells(traced)
        claim, holds = DESIGN[workload.name]
        print(f"design: {claim}: {'holds' if holds(values) else 'DOES NOT HOLD'}")
        record["spans"] = tracer.spans

    failed = [r for r in records if r["error"]]
    for r in failed:
        print(f"FAILED {r['error']}")
    print(f"failed_frac = {len(failed)}/{len(records)} = {len(failed) / len(records):.4g}")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    record.update(records=records, metrics=values)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed, "attempted": len(records), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

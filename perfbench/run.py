"""fdxlab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; fdxlab is imported from ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics.  ``--workload all`` runs every workload in its own process
and prints one line of end-to-end metrics per workload, failed_frac included.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans and a full record of each
run go to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5  # setup_s is the median of this many fresh interpreters, after one warm-up
MIN_PASSES = 3  # wall_s is a median over at least this many passes, even past --seconds
PROBE_TIMEOUT_S = 120
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "FDXLAB_THREADS": "1",
}
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("pass_frac", "frac"))


def _import_program():
    """Import fdxlab from this checkout's src/, never from anywhere else."""
    os.environ.update(PINNED_ENV)  # before numpy loads its BLAS
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import fdxlab
    import workloads

    if Path(fdxlab.__file__).resolve().parent != (SRC / "fdxlab").resolve():
        raise SystemExit(f"error: fdxlab imported from {fdxlab.__file__}, not from {SRC}")
    return workloads


def measure_setup(workload: str, seed: int) -> tuple[list, list]:
    """(paced, raw) seconds of fresh interpreters that import fdxlab and build the inputs."""
    from reference import monotonic

    paced, raw = [], []
    for k in range(SETUP_PROBES + 1):
        t0 = monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", repr(t0),
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if k > 0:  # the first probe also compiles bytecode; it only warms the caches
            paced.append(probe["paced"])
            raw.append(probe["raw"])
    return paced, raw


def setup_probe(workload: str, seed: int, spawned_at: float) -> None:
    """Child side of a set-up measurement: pace itself, import, build the inputs."""
    from reference import Pacer, monotonic

    with Pacer() as pacer:
        workloads = _import_program()
        workloads.build(workload, seed, OUT / "setup")
        ready = monotonic()
    print(json.dumps({"raw": ready - spawned_at, "paced": pacer.normalise(spawned_at, ready)}))


def run_pass(wl) -> tuple[dict, dict, dict]:
    """One pass over the workload's jobs: ((start, end) per job, outputs, errors)."""
    from reference import monotonic

    spans, outputs, errors = {}, {}, {}
    for job in wl.jobs:
        t0 = monotonic()
        try:
            outputs[job.name] = job.run()
        except Exception as exc:  # a job that raises is a failed check, not a crashed benchmark
            errors[job.name] = f"{type(exc).__name__}: {exc}"
        spans[job.name] = (t0, monotonic())
    return spans, outputs, errors


def judge(workloads, wl, outputs: dict, errors: dict) -> list:
    Check = workloads.Check
    checks = [
        Check(f"{name}.raised", False, err, known_defect=name == workloads.DEFECT_JOB)
        for name, err in errors.items()
    ]
    try:
        checks += wl.check(outputs)
    except Exception as exc:  # malformed output: report it as a failed check
        checks.append(Check(f"{wl.name}.checks", False, f"{type(exc).__name__}: {exc}"))
    return checks


def _raw(a: float, b: float) -> float:
    return b - a


def pass_wall(passes: list, seconds=_raw) -> float:
    """Seconds for one pass: the sum over jobs of each job's median time across passes."""
    return sum(statistics.median(seconds(*p[name]) for p in passes) for name in passes[0])


def measure(workloads, wl, seconds: float, tracer=None) -> dict:
    """Run passes for about ``seconds``; with a tracer, alternate untraced and traced passes."""
    from reference import monotonic
    from tracer import layer_metrics

    plain, traced, layers, checks = [], [], [], []
    outputs = {}
    t_start = monotonic()
    while True:
        if tracer is not None and len(traced) < len(plain):
            tracer.clear()
            with tracer:
                spans, outputs, errors = run_pass(wl)
            layers.append(layer_metrics(tracer.arrays()))
            traced.append(spans)
        else:
            spans, outputs, errors = run_pass(wl)
            plain.append(spans)
        checks += judge(workloads, wl, outputs, errors)
        last = sum(b - a for a, b in spans.values())
        enough = len(traced) >= 1 if tracer is not None else len(plain) >= MIN_PASSES
        if enough and monotonic() - t_start + last > seconds:
            break
    return {"plain": plain, "traced": traced, "layers": layers, "checks": checks, "outputs": outputs}


def _git_commit() -> str | None:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(wl, outputs: dict, workloads) -> dict:
    import numpy
    import scipy

    record = {
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
        "seed": wl.seed,
    }
    if wl.name == "sweep" and "threshold" in outputs:
        record["sweep_statuses"] = workloads.sweep_statuses(outputs)
    return record


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_one(workloads, workload: str, seed: int, seconds: float, trace: bool) -> int:
    import tracer as tracer_mod
    from reference import Pacer, monotonic

    from_start = monotonic()
    setup = None if trace else measure_setup(workload, seed)
    tr = tracer_mod.Tracer() if trace else None
    wl = workloads.build(workload, seed, OUT)
    with Pacer() as pacer:
        result = measure(workloads, wl, seconds, tr)
    paced = pacer.normalise
    checks = result["checks"]
    failed = [c for c in checks if not c.ok]
    correct = all(c.known_defect for c in failed)

    raw = {"wall_s": pass_wall(result["plain"])}
    if trace:
        wall = pass_wall(result["plain"], paced)
        traced_wall = pass_wall(result["traced"], paced)
        raw["trace.wall_s"] = pass_wall(result["traced"])
        layers = result["layers"]
        metrics = {
            name: _metric(statistics.median(lm[name] for lm in layers), unit)
            for name, unit in tracer_mod.LAYER_METRICS
            if name in layers[0]
        }
        # the last two per-layer metrics come from the runner, not from spans
        metrics["trace.wall_s"] = _metric(traced_wall, "s")
        metrics["trace.overhead_s"] = _metric(traced_wall - wall, "s")
        tr.write(OUT / f"spans-{workload}.npz")
    else:
        raw["setup_s"] = statistics.median(setup[1])
        metrics = {
            "wall_s": _metric(pass_wall(result["plain"], paced), "s"),
            "setup_s": _metric(statistics.median(setup[0]), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "pass_frac": _metric((len(checks) - len(failed)) / len(checks), "frac"),
        }

    passes = result["traced"] if trace else result["plain"]
    record = {
        "workload": workload,
        "trace": trace,
        "provenance": provenance(wl, result["outputs"], workloads),
        "passes": {"plain": len(result["plain"]), "traced": len(result["traced"])},
        "raw_seconds": raw,
        "pacer": {"samples": len(pacer.starts), "kernel_mean_s": statistics.fmean(
            b - a for a, b in zip(pacer.starts, pacer.ends))},
        "job_median_raw_s": {n: statistics.median(_raw(*p[n]) for p in passes) for n in passes[0]},
        "failed_checks": [vars(c) for c in failed],
        "failed_frac": len(failed) / len(checks),
        "run_s": monotonic() - from_start,
        "metrics": metrics,
    }
    (OUT / f"run-{workload}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    for name, n in Counter(c.name for c in failed).items():
        c = next(c for c in failed if c.name == name)
        tag = " (known defect)" if c.known_defect else ""
        print(f"FAIL {workload} {name}{tag}, {n} of {len(result['plain']) + len(result['traced'])} passes: {c.detail}")
    print("raw " + json.dumps(raw, sort_keys=True))
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(checks), "failed": len(failed), "metrics": metrics}))
    return 0


def run_all(names, seed: int, seconds: float) -> int:
    """Every workload in its own process; one line of end-to-end metrics each."""
    summary, ok = {}, True
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        m = res["metrics"]
        failed_frac = res["failed"] / res["attempted"]
        print(
            f"{name:9s} wall_s={m['wall_s']['value']:.4f} s  setup_s={m['setup_s']['value']:.4f} s  "
            f"peak_rss_mb={m['peak_rss_mb']['value']:.1f} MB  "
            f"failed_frac={failed_frac:.4f} ({res['failed']}/{res['attempted']} checks)"
        )
        summary[name] = dict(res, failed_frac=failed_frac)
        ok &= res["correct"]
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, metavar="SPAWNED_AT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.seconds > 0.0 and math.isfinite(args.seconds)):
        parser.error("--seconds must be a positive number")
    if not (SRC / "fdxlab" / "__init__.py").is_file():
        print(f"error: no fdxlab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.setup_probe is not None:
        setup_probe(args.workload, args.seed, args.setup_probe)
        return 0
    workloads = _import_program()
    if args.workload == "all":
        return run_all(workloads.WORKLOADS, args.seed, args.seconds)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
    return run_one(workloads, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

"""sl11kit benchmark: seeded verification samples in a closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --seed N [--seconds S] [--trace 0|1]   # every workload

One client sends one seeded sample at a time, in one thread, with BLAS
pinned to one thread.  With ``--workload`` the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``.  The line before it, ``info {...}``, holds what is not a
metric value: provenance, the tail percentile, the failure fraction, the
worst residual and a digest of case names and pass flags.  Without
``--workload`` each workload runs in its own process and a table is printed.

Outputs (traced spans, per-layer summaries, scratch report files) go to
``.bench_out/`` at the root of the checkout.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads, here and in every child

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("yangian-tower", "hopf-affine", "rmatrix-oracle")
SETUP_REPS = 5
#: a run extends past --seconds until its fixed samples and tail are covered,
#: but never past this many seconds of sampling
MAX_SAMPLING_S = 120.0

#: End-to-end metrics: (name, unit, better).
END_TO_END = (
    ("samples_per_s", "1/s", "higher"),
    ("sample_ms_p50", "ms", "lower"),
    ("sample_ms_tail", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("residual_digits", "digits", "higher"),
)


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked."""


def import_library():
    """Import sl11kit from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "sl11kit" / "__init__.py").is_file():
        raise BenchError(f"no sl11kit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sl11kit
    if Path(sl11kit.__file__).resolve().parent != (SRC / "sl11kit").resolve():
        raise BenchError(f"imported sl11kit from {sl11kit.__file__}, not {SRC}")
    import workloads
    return sl11kit, workloads


def sample_seed(seed: int, index: int) -> int:
    digest = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little")


WARMUP_INDEX = -1  # never a measured index, so warm-up inputs are never re-used


def scratch_dir() -> tempfile.TemporaryDirectory:
    """Per-process directory for the report files a workload writes."""
    OUT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=OUT)


def setup_probe(workload: str, seed: int) -> float:
    """Seconds to import sl11kit and run one untimed warm-up sample (fresh process)."""
    with scratch_dir() as wdir:
        t0 = time.perf_counter()
        _, wl_mod = import_library()
        wl_mod.WORKLOADS[workload].run(sample_seed(seed, WARMUP_INDEX), Path(wdir))
        return time.perf_counter() - t0


def measure_setup(workload: str, seed: int, reps: int) -> float:
    times = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def percentile(sorted_vals: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_vals)))
    return sorted_vals[rank - 1]


def _git_commit() -> str:
    if not (ROOT / ".git").exists():  # never report an enclosing repository's commit
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            fixed_samples: int | None = None, tail_samples: int | None = None,
            setup_reps: int = SETUP_REPS) -> tuple[dict, dict]:
    """One run of one workload; returns (result line, info line)."""
    setup_s = None if trace else measure_setup(workload, seed, setup_reps)
    with scratch_dir() as wdir:
        return _measure(workload, seed, seconds, trace, fixed_samples, tail_samples,
                        setup_s, Path(wdir))


def _measure(workload, seed, seconds, trace, fixed_samples, tail_samples, setup_s, wdir):
    _, wl_mod = import_library()
    wl = wl_mod.WORKLOADS[workload]
    fixed = wl.fixed_samples if fixed_samples is None else fixed_samples
    if tail_samples is None:  # ten samples beyond the tail percentile
        tail_samples = 0 if trace else math.ceil(10 / (1 - wl.tail_pct / 100))
    min_samples = max(fixed, tail_samples, 2 if trace else 1)
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
    wl.check(wl.run(sample_seed(seed, WARMUP_INDEX), wdir))

    times, traced_times, plain_times = [], [], []
    failed = warn_count = 0
    worst = 0.0
    digest = hashlib.sha256()
    start = time.perf_counter()
    n = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and n >= min_samples or elapsed >= MAX_SAMPLING_S and n >= fixed:
            break
        traced = tracer is not None and n % 2 == 1
        s = sample_seed(seed, n)
        if traced:
            tracer.begin_sample(n)
        t0 = time.perf_counter()
        try:
            raw = wl.run(s, wdir)
            error = None
        except (Exception, SystemExit) as exc:  # a raising sample is a failed sample
            raw, error = None, exc
        dt = time.perf_counter() - t0
        if traced:
            tracer.end_sample()
        times.append(dt)
        (traced_times if traced else plain_times).append(dt)
        if error is None:
            rows, n_warn = wl.check(raw)
            ok = bool(rows) and all(r <= tol for _, r, tol in rows)
            if traced:
                warn_count += n_warn
        else:
            rows, ok = [(f"raised:{type(error).__name__}", math.inf, 0.0)], False
            print(f"sample {n} (seed {s}) raised {error!r}", file=sys.stderr)
        failed += not ok
        if n < fixed:
            if error is None:
                worst = max([worst, *(r for _, r, _ in rows)])
            for name, r, tol in rows:
                digest.update(f"{n}:{name}:{int(r <= tol)}\n".encode())
        n += 1
    wall = time.perf_counter() - start

    result = {"correct": failed == 0, "attempted": n, "failed": failed}
    worst_log10 = math.log10(max(worst, 1e-300))
    info = {"workload": workload, "seed": seed, "samples": n,
            "failed_frac": failed / n, "fixed_samples": fixed,
            "max_residual_log10": worst_log10,
            "case_digest": digest.hexdigest()[:16], "provenance": provenance()}
    if tracer is None:
        ordered = sorted(times)
        info["tail_percentile"] = wl.tail_pct
        info["samples_beyond_tail"] = sum(t > percentile(ordered, wl.tail_pct) for t in ordered)
        values = {
            "samples_per_s": n / wall,
            "sample_ms_p50": 1e3 * statistics.median(ordered),
            "sample_ms_tail": 1e3 * percentile(ordered, wl.tail_pct),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "residual_digits": -worst_log10,
        }
        units = {name: unit for name, unit, _ in END_TO_END}
    else:
        import tracing
        overhead = statistics.fmean(traced_times) / statistics.fmean(plain_times) - 1
        values = tracer.per_layer(len(traced_times), {
            "suites.warnings": warn_count / len(traced_times),
            "trace.overhead_frac": overhead})
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}-{seed}.jsonl.gz")
        info["traced_samples"] = len(traced_times)
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return result, info


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; prints one table, returns the exit status."""
    rows = {}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed (exit {proc.returncode})\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            status = 1
            continue
        result, info = json.loads(lines[-1]), json.loads(lines[-2].removeprefix("info "))
        status |= not result["correct"]
        rows[name] = (result, info)
    for name, (result, info) in rows.items():
        print(f"== {name} (seed {seed}, {info['samples']} samples, "
              f"correct={result['correct']}, digest {info['case_digest']})")
        for key, m in result["metrics"].items():
            print(f"  {key:45s} {m['value']:14.6g} {m['unit']}")
        if not trace:
            print(f"  {'sample_ms_tail percentile':45s} {info['tail_percentile']:14d} p")
        print(f"  {'failed_frac':45s} {info['failed_frac']:14.6g} ratio")
        print(f"  {'max_residual_log10':45s} {info['max_residual_log10']:14.6g} log10")
    if rows:
        print("provenance: " + json.dumps(next(iter(rows.values()))[1]["provenance"]))
    if trace:
        OUT.mkdir(exist_ok=True)
        per_layer = {name: result["metrics"] for name, (result, _) in rows.items()}
        (OUT / f"per_layer-{seed}.json").write_text(json.dumps(per_layer, indent=1))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    try:
        if args.setup_probe:
            if args.workload is None:
                parser.error("--setup-probe needs --workload")
            print(json.dumps({"setup_s": setup_probe(args.workload, args.seed)}))
            return 0
        if args.workload is None:
            return run_all(args.seed, args.seconds, bool(args.trace))
        result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

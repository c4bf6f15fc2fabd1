"""csisplit benchmark driver.

    python3 bench/run.py --workload paper-default --seed 0 --seconds 30 --trace 0

Runs one workload (see workloads.py) in this process for about ``--seconds``
seconds, checks every output, and prints as its last stdout line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones (median iteration wall
time, set-up time, peak resident memory); with ``--trace 1`` every other
iteration runs with csisplit's public functions wrapped (tracing.py) and the
metrics are the per-layer ones in layers.py. The lines before it give the
environment and a readable summary.

    python3 bench/run.py --baseline   # the ROADMAP Baseline rows at their sizes
    python3 bench/run.py --list       # workloads and per-layer metric map

The program is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are fixed before numpy is first imported; one keeps runs steady
BLAS_THREADS = 1
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import functools
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from layers import COUNTED, PER_LAYER, SPANNED, IterationTrace
from tracing import Tracer, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
SETUP_PROBES = 5
PROBE_LIMIT_S = 60


@dataclass
class Measurement:
    walls: list[float] = field(default_factory=list)  # untraced iterations
    traces: list[IterationTrace] = field(default_factory=list)  # traced iterations that passed
    attempted: int = 0
    failed: int = 0


def _another(done: int, elapsed: float, last: float, seconds: float) -> bool:
    """Whether the next iteration fits: within ``seconds``, or within twice
    that for the second iteration, which the repeat check needs."""
    return done == 0 or elapsed + last <= (seconds if done >= 2 else 2 * seconds)


def measure(workload, state, seconds: float, check_reference=None, tracer: Tracer | None = None) -> Measurement:
    """Timed iterations of ``workload.run``; each output is checked outside the
    timed region, must repeat the first iteration's exactly, and the first is
    also passed to ``check_reference``. With a tracer, odd iterations are traced."""
    result = Measurement()
    first = None
    start, last = time.perf_counter(), 0.0
    while _another(result.attempted, time.perf_counter() - start, last, seconds):
        traced = tracer is not None and result.attempted % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        problems = None
        t0 = time.perf_counter()
        try:
            raw = workload.run(state)
        except Exception as exc:  # a failed iteration is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            problems = [f"raised {type(exc).__name__}: {exc}"]
        last = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        result.attempted += 1
        if problems is None:
            try:
                outputs, problems = workload.inspect(state, raw)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                problems = [f"output check raised {type(exc).__name__}: {exc}"]
        if not problems:
            if first is None:
                first = outputs
                problems = check_reference(outputs) if check_reference else []
            elif outputs != first:
                changed = sorted(k for k in first.keys() | outputs.keys() if first.get(k) != outputs.get(k))
                problems = [f"outputs differ from the first checked iteration: {changed[:5]}"]
        if problems:
            result.failed += 1
            print(f"{workload.name} iteration {result.attempted}: {'; '.join(problems[:5])}", file=sys.stderr)
        if not traced:
            result.walls.append(last)
        elif not problems:
            result.traces.append(IterationTrace(list(tracer.spans), dict(tracer.counts), dict(tracer.work), last))
    return result


def layer_values(traces: list[IterationTrace], untraced_wall: float | None, absent_targets) -> tuple[dict, list]:
    """Median over traced iterations of each per-layer metric; a metric whose
    target is gone, or with nothing to measure it from, is absent."""
    values, absent = {}, []
    for metric in PER_LAYER:
        missing = any(t in absent_targets for t in metric.needs)
        if missing or not traces or (metric.name == "trace.overhead_s" and untraced_wall is None):
            absent.append(metric.name)
            continue
        values[metric.name] = statistics.median(metric.value(t, untraced_wall) for t in traces)
    return values, absent


def span_self_seconds(traces: list[IterationTrace]) -> dict[str, float]:
    """Self time per span name, averaged over traced iterations."""
    totals: dict[str, float] = defaultdict(float)
    for t in traces:
        for span, own in zip(t.spans, self_times(t.spans)):
            totals[span.name] += own / len(traces)
    return dict(totals)


# ---------------------------------------------------------------------------
# set-up time and environment
# ---------------------------------------------------------------------------


def probe_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh process that starts, imports csisplit, makes the
    workload's inputs and exits. The wait has no timeout, which would poll in
    50 ms steps; the probe bounds its own life with an alarm instead."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "not a git checkout"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# the ROADMAP Baseline table
# ---------------------------------------------------------------------------


def baseline(seed: int, workdir: Path) -> list[tuple[str, float, str]]:
    """One timing of each ROADMAP Baseline row at the ROADMAP's sizes
    (20x20 grid, m=256, one BLAS thread)."""
    import numpy as np
    from csisplit import cli, core, dependence, fingerprint, kpca, pca, pipeline, simulate, skg

    rows = []

    def timed(label, fn, note=lambda _: ""):
        t0 = time.perf_counter()
        value = fn()
        rows.append((label, time.perf_counter() - t0, note(value)))
        return value

    out = timed("simulate", lambda: simulate.simulate(simulate.SimConfig(seed=seed)))
    ul, dl, geom = core.to_real_view(out.uplink), core.to_real_view(out.downlink), out.geometry

    def pca_split():
        basis, band = pca.fit_pca(ul), pca.DecompConfig(d_hat=1, d1=3, d2=20)
        return pca.decompose(ul, basis, band), pca.decompose(dl, basis, band)

    def kpca_split():
        model = kpca.fit_kpca(out.uplink, 1)
        return kpca.decompose_kpca(model, out.uplink), kpca.decompose_kpca(model, out.downlink)

    dec_ul, dec_dl = timed("pca fit + decompose UL/DL", pca_split)
    timed("kpca fit + decompose UL/DL", kpca_split)
    fp = np.abs(core.view_to_complex(dec_ul.predictable))
    timed("avg_neighbor_tvd", lambda: fingerprint.avg_neighbor_tvd(fp, geom, k=8), lambda r: f"{len(r.pairs)} pairs")
    timed("avg_neighbor_cc", lambda: dependence.avg_neighbor_cc(dec_ul.unpredictable, geom, k=8))
    timed("avg_mp", lambda: skg.avg_mp(dec_ul.unpredictable, dec_dl.unpredictable))
    timed("one dhsic_test, M=512, B=1000", lambda: dependence.dhsic_test([ul[:, 0], ul[:, 1]], b=1000, seed=seed))

    pipeline.write_sim_output(out, workdir)
    argv = ["sweep", "--input-ul", str(workdir / "uplink.csi"), "--input-dl", str(workdir / "downlink.csi"),
            "--geometry", str(workdir / "geometry.json"), "--output-dir", str(workdir), "--seed", str(seed)]
    with Tracer({}, counted=("dependence.pearson_cc",)) as tracer, contextlib.redirect_stdout(io.StringIO()):
        timed("sweep defaults, no delta", lambda: cli.main(argv), lambda _: (
            f"{len(json.loads((workdir / 'sweep.json').read_text(encoding='utf-8'))['cells'])} cells, "
            f"{tracer.counts['dependence.pearson_cc']} pearson_cc calls"
        ))

    ae_cfg = pipeline.PipelineConfig(sim=simulate.SimConfig(seed=seed), method="ae2", ae_epochs=5, seed=seed)
    timed("ae2, 5 epochs", lambda: pipeline.apply_method(ae_cfg, out.uplink, out.downlink, geom))
    timed("csisplit pipeline defaults: pca, all metrics, 16 pairs x B=1000",
          lambda: pipeline.run_pipeline(pipeline.PipelineConfig(sim=simulate.SimConfig(seed=seed), seed=seed)))
    return rows


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description="csisplit benchmark")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help="only make the workload's inputs, then exit")
    p.add_argument("--baseline", action="store_true", help="print the ROADMAP Baseline table")
    p.add_argument("--list", action="store_true", help="print workloads and the per-layer metric map")
    return p


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.setup_probe:
        signal.alarm(PROBE_LIMIT_S)
    if not (SRC / "csisplit" / "__init__.py").is_file():
        print(f"error: no csisplit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import csisplit

    if Path(csisplit.__file__).resolve().parent != SRC / "csisplit":
        print(f"error: csisplit imported from {csisplit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import REFERENCE_FILE, REFERENCE_SEED, WORKLOADS, reference_problems

    if args.list:
        for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]:
            print(f"{w['name']}: {w['why']}")
        for m in PER_LAYER:
            print(f"{m.name} [{m.unit}]: {m.moves}")
        return 0
    if not args.baseline and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workdir = WORK_DIR / f"{'baseline' if args.baseline else args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.baseline:
            print(json.dumps(environment(args.seed), sort_keys=True))
            print("| layer | wall | note |\n|---|---|---|")
            for label, seconds, note in baseline(args.seed, workdir):
                print(f"| {label} | {seconds:.3f} s | {note} |")
            return 0
        workload = WORKLOADS[args.workload]
        state = workload.setup(args.seed, workdir)
        if args.setup_probe:
            return 0
        check_reference = None
        if args.seed == REFERENCE_SEED:
            reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
            check_reference = functools.partial(reference_problems, workload.name, reference=reference)
        return _run(workload, state, args, check_reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()


def _run(workload, state, args, check_reference) -> int:
    print("environment " + json.dumps(environment(args.seed), sort_keys=True))
    tracer = Tracer(SPANNED, COUNTED) if args.trace else None
    result = measure(workload, state, args.seconds, check_reference, tracer)
    error_rate = result.failed / result.attempted
    if tracer is None:
        setups = [probe_setup(workload.name, args.seed) for _ in range(SETUP_PROBES)]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": {"value": statistics.median(result.walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        print(
            f"{workload.name} seed={args.seed}: wall_s={metrics['wall_s']['value']:.4f} s (median of {len(result.walls)}), "
            f"setup_s={metrics['setup_s']['value']:.4f} s (median of {SETUP_PROBES} processes), "
            f"peak_rss_mb={peak_mb:.1f} MB, error_rate={error_rate:.3f} ({result.failed}/{result.attempted}); "
            f"iterations {[round(w, 3) for w in result.walls]} s, set-ups {[round(s, 3) for s in setups]} s"
        )
    else:
        untraced = statistics.median(result.walls) if result.walls else None
        values, absent = layer_values(result.traces, untraced, tracer.absent)
        units = {m.name: m.unit for m in PER_LAYER}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
        print(
            f"{workload.name} seed={args.seed}: {len(result.traces)} traced and {len(result.walls)} untraced "
            f"iterations, error_rate={error_rate:.3f} ({result.failed}/{result.attempted}); untraced "
            f"{[round(w, 3) for w in result.walls]} s, traced {[round(t.wall, 3) for t in result.traces]} s"
        )
        for name, value in values.items():
            print(f"  {name:40s} {value:14.6g} {units[name]}")
        if absent:
            print("  absent: " + ", ".join(absent))
        print("  self time per span, s:")
        for name, own in sorted(span_self_seconds(result.traces).items(), key=lambda kv: -kv[1]):
            print(f"    {name:38s} {own:10.4f}")
    print(json.dumps({"correct": result.failed == 0, "attempted": result.attempted, "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload in this process and print its metrics; started by run.py.

Refuses to run (exit 2, no result) unless BLAS threads are pinned through
the environment before numpy loads, or when the fairformer sources are not
under ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
INSTANCE_STRIDE = 1000  # instance i of seed s is seeded with s * 1000 + i
SETUP_REPEATS = 3


class Refusal(Exception):
    """The benchmark cannot produce a valid measurement here."""


def pinned_threads() -> int:
    """The BLAS thread count pinned in the environment; refuses when unpinned."""
    values = {os.environ.get(var) for var in PIN_VARS}
    if len(values) != 1 or None in values:
        raise Refusal(f"BLAS threads are not pinned: set {', '.join(PIN_VARS)} to one value")
    raw = values.pop()
    if not raw.isdigit() or not 1 <= int(raw) <= (os.cpu_count() or 1):
        raise Refusal(f"BLAS thread pin {raw!r} is not within 1..nproc")
    return int(raw)


def openblas_threads():
    """Threads numpy's bundled OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def import_program():
    """Import fairformer from this checkout's src/, never from site-packages."""
    src = ROOT / "src"
    if not (src / "fairformer" / "__init__.py").is_file():
        raise Refusal(f"fairformer sources not found under {src}")
    sys.path.insert(0, str(src))
    import fairformer

    if Path(fairformer.__file__).resolve().parent != src / "fairformer":
        raise Refusal(f"imported fairformer from {fairformer.__file__}, not from {src}")


def environment(seed: int, pin: int, reported) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"blas_threads": pin, "openblas_reports": reported,
            "pin": ",".join(f"{v}={os.environ[v]}" for v in PIN_VARS),
            "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "seed": seed}


def check_outcome(workload, inputs, out, reference, checks, first=False) -> None:
    """Count the pass's calls and checks, then drop its outputs.

    A pass that repeats `reference`'s instance must reproduce its outputs bit
    for bit. Dropping the outputs keeps memory flat across passes.
    """
    if not checks.record(out.error is None, f"pass raised:\n{out.error}"):
        return
    checks.attempted += len(out.calls) - 1  # every timed public call is an operation
    if first:
        workload.check_once(inputs, out, checks)
    if reference is not None:
        checks.record(out.text == reference.text and out.digest == reference.digest,
                      "outputs differ from an earlier pass of the same instance")
    workload.check_pass(inputs, out, checks)
    out.calls = None


def set_up(workload, seed: int, index: int, times: list):
    """Instance `index` of the run, set up SETUP_REPEATS times to time it."""
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.setup(seed * INSTANCE_STRIDE + index)
        times.append(time.perf_counter() - start)
    return inputs


def timed_run(workload, seed, seconds, checks) -> tuple[dict, dict]:
    """One pass per instance while time remains, then a repeat of the first instance.

    The repeat is the same-seed determinism check; the medians are over the
    distinct instances only.
    """
    from workloads import run_pass_safely

    setups, outcomes = [], []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start + 2 * outcomes[-1].wall <= seconds:
        inputs = set_up(workload, seed, len(outcomes), setups)
        outcomes.append(run_pass_safely(workload, inputs))
        if len(outcomes) == 1:
            # A one-shot CLI run is one pass in a fresh process. Later passes
            # add allocator fragmentation that moved the figure by up to 20 %
            # between seeds.
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            first_inputs = inputs
        check_outcome(workload, inputs, outcomes[-1], None, checks, first=len(outcomes) == 1)
    repeat = run_pass_safely(workload, first_inputs)
    check_outcome(workload, first_inputs, repeat, outcomes[0], checks)

    ok = [o for o in outcomes if o.error is None] or outcomes
    wall = statistics.median(o.wall for o in ok)
    encode = statistics.median(o.encode for o in ok)
    metrics = {"setup_s": statistics.median(setups), "wall_s": wall, "peak_rss_mb": peak_mb}
    info = {"passes": f"{len(outcomes)} instances + 1 repeat",
            "wall_s per pass": " ".join(f"{o.wall:.4f}" for o in outcomes)
            + f" s, repeat {repeat.wall:.4f} s",
            "encode_s": f"{encode:.6g} s (median; per pass "
            + " ".join(f"{o.encode:.4f}" for o in outcomes) + ")"}
    epochs = statistics.median(o.epochs for o in ok)
    if epochs:
        info["epochs_per_s"] = f"{epochs / (wall - encode):.6g} 1/s"
        info["accuracy"] = (" ".join(f"{o.accuracy:.4f}" for o in ok)
                            + " ratio (mean over folds, per instance)")
        info["delta_sp"] = (" ".join(f"{o.delta_sp:.4f}" for o in ok)
                            + " ratio (mean over folds, per instance)")
    return metrics, info


def traced_run(workload, seed, seconds, checks, span_path, env) -> tuple[dict, dict]:
    """Per instance, an untraced pass and then a traced pass of the same inputs.

    The traced pass must reproduce the untraced outputs bit for bit; the
    untraced passes are the baseline for the tracing overhead, and the
    per-layer metrics come from the traced passes.
    """
    from spans import Tracer, counting_graph, layer_metrics, rebinding_targets, rebound
    from workloads import run_pass_safely

    tracer = Tracer()
    targets = rebinding_targets(tracer)
    setups, untraced, traced = [], [], []
    with rebound(targets):
        workload.setup(seed * INSTANCE_STRIDE)  # span run 0: the set-up's make_folds
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start + untraced[-1].wall + traced[-1].wall
                         <= seconds):
        inputs = set_up(workload, seed, len(traced), setups)
        untraced.append(run_pass_safely(workload, inputs))
        check_outcome(workload, inputs, untraced[-1], None, checks, first=not traced)
        tracer.run = len(traced) + 1
        counted = dataclasses.replace(inputs, graph=counting_graph(inputs.graph, tracer))
        with rebound(targets):
            traced.append(run_pass_safely(workload, counted))
        check_outcome(workload, inputs, traced[-1], untraced[-1], checks)
    walls = {i + 1: o.wall for i, o in enumerate(traced)}
    metrics = layer_metrics(tracer.spans, walls, statistics.median(o.wall for o in untraced))
    span_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(span_path, env)
    epochs = sum(1 for s in tracer.spans if s[0] == "model.forward_train")
    info = {"passes": f"{len(untraced)} untraced + {len(traced)} traced",
            "wall_s per untraced pass": " ".join(f"{o.wall:.4f}" for o in untraced) + " s",
            "wall_s per traced pass": " ".join(f"{o.wall:.4f}" for o in traced) + " s",
            "train.epoch_s samples": epochs, "spans": len(tracer.spans),
            "span file": str(span_path.relative_to(ROOT))}
    return metrics, info


WORKLOAD_NAMES = ("cv_train", "large_train", "encode_sweep")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def report(args, env, metrics, info, checks) -> dict:
    """Print every metric by name with its unit; return the result's metrics."""
    from catalog import COMPUTED, END_TO_END, PER_LAYER

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"loop=closed callers=1 passes={info.pop('passes')}")
    print("env " + json.dumps(env, sort_keys=True))
    values = {}
    for name, unit, *_ in (PER_LAYER if args.trace else END_TO_END):
        values[name] = {"value": float(metrics.get(name, 0.0)), "unit": unit}
        mark = " (computed)" if name in COMPUTED else ""
        print(f"  {name:<30} {values[name]['value']:>14.6g} {unit}{mark}")
    for key, value in info.items():
        print(f"  {key:<30} {value}")
    print(f"  {'failed_ratio':<30} {checks.failed / max(checks.attempted, 1):>14.6g} ratio "
          f"({checks.failed} failed of {checks.attempted} attempted)")
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pin = pinned_threads()
        import_program()
        reported = openblas_threads()
        if reported is not None and reported != pin:
            raise Refusal(f"OpenBLAS runs {reported} threads, pinned value is {pin}")
    except Refusal as exc:
        print(f"perfbench: refusing to run: {exc}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, Checks

    workload = WORKLOADS[args.workload]
    env = environment(args.seed, pin, reported)
    checks = Checks()
    if args.trace:
        span_path = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics, info = traced_run(workload, args.seed, args.seconds, checks, span_path, env)
    else:
        metrics, info = timed_run(workload, args.seed, args.seconds, checks)
    values = report(args, env, metrics, info, checks)
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

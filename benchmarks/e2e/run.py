#!/usr/bin/env python3
"""End-to-end benchmark: wall-clock prepare / apply / step on four named
workloads, with a per-layer traced run.

    python3 benchmarks/e2e/run.py                  # everything, one table
    python3 benchmarks/e2e/run.py --workload cube_fine --scale smoke
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --write          # refresh baseline.json

Given ``--trace 0|1`` it makes a single in-process run of one workload
and ends with one JSON line (the form the benchmark driver calls);
without it, every selected workload runs untraced and then traced, each
in a fresh subprocess of this same script.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import numpy as np  # noqa: E402

from e2e_harness import run_untraced  # noqa: E402
from e2e_layers import run_traced  # noqa: E402
from e2e_trace import LAYER_CALLABLES  # noqa: E402
from e2e_workloads import WORKLOADS, Inputs  # noqa: E402

SPEC_PATH = ROOT / "BENCHMARK.json"
BASELINE_PATH = HERE / "baseline.json"
DEFAULT_OUT = HERE / "out"


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# environment: what a number has to carry to be comparable across boxes
# ----------------------------------------------------------------------
def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, else the usual env vars."""
    libs = glob.glob(
        os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                     "*openblas*")
    )
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            return int(os.environ[var])
    return None


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = blas.get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": f"{blas.get('name', 'unknown')} "
                       f"{blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


def format_environment(env: dict) -> str:
    return (
        f"nproc={env['nproc']} cpu={env['cpu_model']!r} "
        f"python={env['python']} numpy={env['numpy']} "
        f"blas={env['blas_vendor']!r} blas_threads={env['blas_threads']} "
        f"commit={env['git_commit'][:12]}"
    )


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------
def run_one(
    workload: str,
    *,
    seed: int = 0,
    seconds: float | None = None,
    trace: int = 0,
    scale: str = "full",
    out_dir: Path | None = None,
    callables: dict = LAYER_CALLABLES,
) -> dict:
    """Run ``workload`` untraced (``trace=0``) or traced (``trace=1``).

    Returns the full record -- every metric by its ``BENCHMARK.json``
    name with unit, sample counts, checks, environment -- and, given
    ``out_dir``, also writes it (and the spans of a traced run) there.
    """
    bench = load_spec()
    spec = WORKLOADS[workload]
    seconds = float(bench["run_seconds"] if seconds is None else seconds)
    started = time.perf_counter()
    inputs = Inputs(spec, seed, scale)
    record = {
        "workload": workload, "trace": trace, "seed": seed, "scale": scale,
        "n": inputs.n, "seconds": seconds, "env": environment(),
    }
    if trace:
        declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
        traced = run_traced(spec, inputs, callables=callables)
        spans = traced.pop("spans")
        values = traced.pop("metrics")
        record.update(traced)
        record["attempted"] = sum(1 for s in spans if s["parent"] is None)
        record["failed"] = 0
        record["correct"] = all(traced["checks"].values())
        key = "per_layer"
        metrics = {name: {"value": v} for name, v in values.items()}
    else:
        declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        measured = run_untraced(spec, inputs, seconds, seed)
        timings = measured.pop("timings")
        scalars = measured.pop("scalars")
        record.update(measured)
        in_regime = measured["regime"] is None or scale != "full"
        record["correct"] = (
            measured["failed"] == 0 and in_regime
            and all(measured["checks"].values())
        )
        key = "end_to_end"
        metrics = dict(timings)
        metrics.update({name: {"value": v} for name, v in scalars.items()})
    if set(metrics) != set(declared):
        raise SystemExit(
            f"metric names differ from BENCHMARK.json {key}: "
            f"{sorted(set(metrics) ^ set(declared))}"
        )
    record[key] = {
        name: {**metrics[name], "unit": unit}
        for name, unit in declared.items()
    }
    record["wall_s"] = time.perf_counter() - started
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        if trace:
            _dump(out_dir / f"trace_{workload}.json", {
                "workload": workload, "seed": seed, "scale": scale,
                "env": record["env"], "spans": spans,
                "counts": {
                    name: m["value"] for name, m in metrics.items()
                    if not name.endswith("_s")
                },
            })
        _dump(out_dir / f"{workload}.trace{trace}.json", record)
    return record


def final_line(record: dict) -> dict:
    """The one-object summary the benchmark driver reads."""
    metrics = record["per_layer" if record["trace"] else "end_to_end"]
    return {
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in metrics.items()
        },
    }


def _dump(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------
def _fmt(value) -> str:
    if value is None:
        return "null"
    return f"{value:d}" if isinstance(value, int) else f"{value:.6g}"


def print_record(record: dict) -> None:
    w = record["workload"]
    if record["trace"]:
        print(f"[{w}] per-layer metrics (traced run, seed {record['seed']}, "
              f"scale {record['scale']}, N={record['n']})")
        for name, m in record["per_layer"].items():
            print(f"  {name:<36} {_fmt(m['value']):>14} {m['unit']}")
        for name, value in record["extra"].items():
            print(f"  extra {name:<30} {_fmt(value):>14} s")
        cov = record["coverage"]
        print(f"  layers cover {_fmt(cov['prepare'])} of prepare, "
              f"{_fmt(cov['apply'])} of apply; checks {record['checks']}")
    else:
        print(f"[{w}] end-to-end metrics (tracing off, seed "
              f"{record['seed']}, scale {record['scale']}, N={record['n']}, "
              f"window {record['seconds']:g} s)")
        for name, m in record["end_to_end"].items():
            spread = ""
            if "n" in m:
                spread = (f"  (median of {m['n']}; min {_fmt(m['min'])} "
                          f"max {_fmt(m['max'])})")
            print(f"  {name:<36} {_fmt(m['value']):>14} {m['unit']}{spread}")
        print(f"  {'rel_err_l2':<36} {_fmt(record['rel_err_l2']):>14}   "
              "(checked against the ceiling, not a bounded metric)")
        print(f"  failed/attempted = {record['failed']}/{record['attempted']}"
              f"; checks {record['checks']}; regime "
              f"{'ok' if record['regime'] is None else record['regime']}")
        for failure in record["failures"]:
            print(f"  FAILED {failure}")
    print(f"  correct={record['correct']}  wall {record['wall_s']:.1f} s")


# ----------------------------------------------------------------------
# all workloads, each in a fresh subprocess
# ----------------------------------------------------------------------
def run_all(args) -> int:
    out_dir = Path(args.out)
    env = environment()
    print(f"# e2e benchmark  {format_environment(env)}  seed={args.seed} "
          f"scale={args.scale}")
    results = {"env": env, "seed": args.seed, "scale": args.scale,
               "workloads": {}}
    ok = True
    for name in args.workload or list(WORKLOADS):
        entry = {}
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--trace", str(trace), "--scale", args.scale,
                "--out", str(out_dir),
            ]
            if args.seconds is not None:
                cmd += ["--seconds", str(args.seconds)]
            done = subprocess.run(cmd, stdout=subprocess.DEVNULL)
            if done.returncode != 0:
                print(f"[{name}] trace={trace} exited with "
                      f"{done.returncode}")
                ok = False
                continue
            with open(out_dir / f"{name}.trace{trace}.json") as fh:
                record = json.load(fh)
            print_record(record)
            ok = ok and record["correct"]
            entry["traced" if trace else "untraced"] = record
        results["workloads"][name] = entry
    _dump(out_dir / "results.json", results)
    print(f"# results in {out_dir / 'results.json'}; spans in "
          f"{out_dir}/trace_<workload>.json")
    if args.write:
        shutil.copyfile(out_dir / "results.json", BASELINE_PATH)
        print(f"# baseline written to {BASELINE_PATH}")
    return 0 if ok else 1


# ----------------------------------------------------------------------
# --compare A.json B.json
# ----------------------------------------------------------------------
def _spread(metric: dict) -> float:
    """Quartile distance of the run's own samples over their median."""
    samples = metric.get("samples", [])
    if len(samples) < 4 or not metric["value"]:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / metric["value"]


def compare(path_a: str, path_b: str) -> int:
    """One row per (workload, end-to-end metric): B against base A."""
    bench = load_spec()
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    print(f"# base A = {path_a}  [{format_environment(a['env'])}]")
    print(f"#      B = {path_b}  [{format_environment(b['env'])}]")
    print(f"{'workload':<14}{'metric':<16}{'A':>13}{'B':>13}"
          f"{'B/A':>8}{'bound':>7}  status")
    worse = False
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        ra = a["workloads"][name]["untraced"]
        rb = b["workloads"][name]["untraced"]
        for metric in bench["end_to_end"]:
            ma = ra["end_to_end"][metric["name"]]
            mb = rb["end_to_end"][metric["name"]]
            ratio = mb["value"] / ma["value"]
            # every end-to-end metric is lower-is-better
            status = "ok"
            if max(_spread(ma), _spread(mb)) > metric["bound"]:
                clear_win = max(mb["samples"]) < min(ma["samples"])
                status = "ok" if clear_win else "unresolved"
            elif ratio - 1.0 > metric["bound"]:
                status = "worse"
                worse = True
            print(f"{name:<14}{metric['name']:<16}{ma['value']:>13.6g}"
                  f"{mb['value']:>13.6g}{ratio:>8.3f}"
                  f"{metric['bound']:>7.2f}  {status}")
        share_a = ra["failed"] / ra["attempted"]
        share_b = rb["failed"] / rb["attempted"]
        if share_b > share_a:
            print(f"{name:<14}failed/attempted {ra['failed']}/"
                  f"{ra['attempted']} -> {rb['failed']}/{rb['attempted']}"
                  "  worse")
            worse = True
    return 1 if worse else 0


# ----------------------------------------------------------------------
def stop_helper_processes() -> None:
    """End, and wait for, what the traced run's process pool leaves behind.

    The multiprocessing backend joins its workers when closed, but its
    shared-memory blocks make the interpreter start a resource tracker
    that lives until this process exits and is reaped by nobody: a
    process still running after the benchmark has returned.  Closing
    its pipe ends it.  Only ``main`` does this -- inside someone else's
    process (the smoke test's) the tracker may be serving other blocks.
    """
    from multiprocessing import active_children, resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
    for child in active_children():
        child.join()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=list(WORKLOADS),
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window of an untraced run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="single in-process run: 0 end-to-end metrics, "
                             "1 per-layer metrics; ends with one JSON line")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: N/10, same phases")
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="directory for result and trace files")
    parser.add_argument("--write", action="store_true",
                        help="also copy the results to baseline.json")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.trace is None:
        return run_all(args)
    if not args.workload or len(args.workload) != 1:
        parser.error("--trace needs exactly one --workload")
    try:
        record = run_one(
            args.workload[0], seed=args.seed, seconds=args.seconds,
            trace=args.trace, scale=args.scale, out_dir=Path(args.out),
        )
    finally:
        stop_helper_processes()
    print(f"# {format_environment(record['env'])}")
    print_record(record)
    print(json.dumps(final_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

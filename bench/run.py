"""The repository benchmark: pinned `run_experiment` workloads.

    python3 bench/run.py                        # every workload, seed 0
    python3 bench/run.py --workload lock-search --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --record bench/baseline.json

Every experiment runs in a fresh process (bench/experiment.py) with the
BLAS thread count pinned, one caller at a time (a closed loop).  A run
first covers the workload's seed panel once, then repeats panel seeds
while `--seconds` allows.  With `--trace 0` it reports the end-to-end
metrics: wall time and attack_drop as the mean over the panel without its
lowest and highest seed, set-up time as the median over all processes,
peak RSS as the largest process's.  With `--trace 1` it alternates an
untraced and a traced experiment on the first panel seed and reports the
per-layer metrics.  Output checks run on every experiment; a failed check
or a raised error counts in `failed`.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from experiment import EXIT_NO_PROGRAM, SRC, ProgramMissing  # noqa: E402
from workloads import (COMMON, END_TO_END, LAYER_TO_END_TO_END,  # noqa: E402
                       QUALITY, WORKLOADS, panel_seeds, per_layer_specs)

# One BLAS thread: the default of one per CPU spins a second core on a
# 2-CPU machine, doubling CPU time for the same wall time and adding noise.
BLAS_THREADS = 1
# A run stops starting experiments this long after it began, so that it
# ends well inside the 180 s a run may take.
HARD_LIMIT_S = 120.0


def machine_record() -> dict:
    """CPU count, interpreter, numpy and BLAS versions, BLAS threads."""
    import numpy as np
    blas = {"name": "unknown", "version": "unknown"}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": min(BLAS_THREADS, len(os.sched_getaffinity(0))),
    }


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("BITGUARD_")}
    threads = str(machine_record()["blas_threads"])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def spawn(workload: str, seed: int, trace: bool, timeout: float,
          env: Dict[str, str]) -> dict:
    """One experiment in a fresh process; a failed run returns {'error'}."""
    cmd = [sys.executable, str(HERE / "experiment.py"), "--workload", workload,
           "--seed", str(seed), "--spawned", repr(time.monotonic())]
    if trace:
        cmd.append("--trace")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"seed": seed, "traced": trace,
                "error": f"timed out after {timeout:.0f} s"}
    if proc.returncode == EXIT_NO_PROGRAM:
        raise ProgramMissing(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    result.update(seed=seed, traced=trace, elapsed_s=time.monotonic() - started)
    return result


def run_experiments(workload: str, seed: int, seconds: float,
                    trace: bool) -> List[dict]:
    """The experiments of one benchmark run, in the order they ran."""
    env = child_env()
    panel = panel_seeds(workload, seed)
    if trace:
        # alternate untraced and traced runs of one seed: the pair gives
        # the tracing overhead and the fingerprint comparison
        order = [(panel[0], False), (panel[0], True)]
    else:
        order = [(s, False) for s in panel]
    start = time.monotonic()
    results: List[dict] = []
    i = 0
    while True:
        elapsed = time.monotonic() - start
        if i >= len(order):
            est = median(r.get("elapsed_s", 0.0) for r in results)
            if elapsed + est > min(seconds, HARD_LIMIT_S):
                break
        if elapsed > HARD_LIMIT_S:
            break
        s, traced = order[i % len(order)]
        results.append(spawn(workload, s, traced, 170.0 - elapsed, env))
        i += 1
    return results


def _consistency(results: List[dict]) -> None:
    """Repeats of one seed must give the same fingerprint and quality.

    The first good run of a seed is the reference; a later run that
    differs gets an 'error'.  Traced runs also repeat their exact counts.
    """
    ref: Dict[int, dict] = {}
    counts: Dict[int, dict] = {}
    for r in results:
        if "error" in r or r["failures"]:
            continue
        first = ref.setdefault(r["seed"], r)
        for key in ("fingerprint", "quality"):
            if r[key] != first[key]:
                r["error"] = f"{key} differs from the first run of seed {r['seed']}"
        if r.get("layers"):
            specs = per_layer_specs()
            exact = {k: v for k, v in r["layers"].items()
                     if specs[k][0] == "count"}
            if counts.setdefault(r["seed"], exact) != exact:
                r["error"] = f"traced counts differ on seed {r['seed']}"


def trimmed_mean(values: List[float]) -> float:
    """Mean without the lowest and the highest value (when 3 or more)."""
    v = sorted(values)
    if len(v) >= 3:
        v = v[1:-1]
    return mean(v)


def summarize(workload: str, results: List[dict], trace: bool) -> dict:
    """The result object of one benchmark run."""
    _consistency(results)
    ok = [r for r in results if "error" not in r and not r["failures"]]
    failed = len(results) - len(ok)
    untraced = [r for r in ok if not r["traced"]]
    if not untraced:
        raise RuntimeError(f"{workload}: no experiment succeeded: "
                           + "; ".join(str(r.get("error") or r.get("failures"))
                                       for r in results))
    by_seed: Dict[int, List[dict]] = {}
    for r in untraced:
        by_seed.setdefault(r["seed"], []).append(r)
    firsts = [runs[0] for runs in by_seed.values()]
    values = {
        "wall_s": trimmed_mean([median(x["wall_s"] for x in runs)
                                for runs in by_seed.values()]),
        "setup_s": median(r["setup_s"] for r in results if r.get("setup_s")),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in untraced),
        "attack_drop": trimmed_mean([r["quality"]["attack_drop"] for r in firsts]),
    }
    quality: Dict[str, Optional[float]] = {"error_rate": failed / len(results)}
    for key in ("resumed_acc", "mem_overhead"):
        got = [r["quality"][key] for r in firsts if r["quality"][key] is not None]
        quality[key] = mean(got) if got else None

    if trace:
        traced = [r for r in ok if r["traced"]]
        if not traced:
            raise RuntimeError(f"{workload}: no traced experiment succeeded")
        specs = per_layer_specs()
        layers = {}
        for name, (unit, _) in specs.items():
            if name == "tracing.overhead_s":
                continue
            vals = [r["layers"][name] for r in traced]
            layers[name] = vals[0] if unit == "count" else median(vals)
        layers["tracing.overhead_s"] = (median(r["wall_s"] for r in traced)
                                        - values["wall_s"])
        metrics = {n: {"value": layers[n], "unit": specs[n][0]} for n in specs}
    else:
        metrics = {n: {"value": values[n], "unit": END_TO_END[n][0]}
                   for n in END_TO_END}
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
        "quality": quality,
        "fingerprints": {str(r["seed"]): r["fingerprint"] for r in firsts},
        "errors": [r.get("error") or r["failures"] for r in results
                   if "error" in r or r["failures"]],
    }


def print_block(workload: str, summary: dict, seeds: List[int]) -> None:
    print(f"== {workload}  seeds {seeds}  experiments {summary['attempted']}"
          f"  failed {summary['failed']}")
    for name, m in summary["metrics"].items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    for name, value in summary["quality"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:44s} {shown:>14s} {QUALITY[name][0]}")
    for seed, fp in summary["fingerprints"].items():
        print(f"  fingerprint seed {seed}: {fp}")
    for err in summary["errors"]:
        print(f"  FAILED: {err}")


def result_line(summary: dict) -> str:
    return json.dumps({k: summary[k]
                       for k in ("correct", "attempted", "failed", "metrics")})


def record(path: Path, seed: int, seconds: float) -> None:
    """Write the baseline record: machine, per-workload numbers, mapping."""
    out = {"machine": machine_record(), "seed": seed, "seconds": seconds,
           "common": COMMON, "workloads": {},
           "layer_to_end_to_end": LAYER_TO_END_TO_END}
    for name, spec in WORKLOADS.items():
        entry = {"stage": spec["stage"], "why": spec["why"],
                 "overrides": spec["overrides"],
                 "seeds": panel_seeds(name, seed)}
        for trace in (False, True):
            summary = summarize(name, run_experiments(name, seed, seconds, trace),
                                trace)
            print_block(name, summary, entry["seeds"])
            key = "per_layer" if trace else "end_to_end"
            entry[key] = {n: m["value"] for n, m in summary["metrics"].items()}
            if not trace:
                entry["quality"] = summary["quality"]
                entry["fingerprints"] = summary["fingerprints"]
                entry["attempted"] = summary["attempted"]
                entry["failed"] = summary["failed"]
        out["workloads"][name] = entry
    path.write_text(json.dumps(out, indent=1, sort_keys=False) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["all", *WORKLOADS], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", type=Path, default=None,
                   help="write the baseline record (every workload, both "
                        "modes) to this file")
    args = p.parse_args(argv)
    if not (SRC / "bitguard" / "__init__.py").is_file():
        print(f"bench: the program is missing: no package under {SRC}",
              file=sys.stderr)
        return 2
    print("machine", json.dumps(machine_record(), sort_keys=True))
    try:
        if args.record is not None:
            record(args.record, args.seed, args.seconds)
            return 0
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        summaries = {}
        for name in names:
            summary = summarize(name, run_experiments(
                name, args.seed, args.seconds, bool(args.trace)), bool(args.trace))
            print_block(name, summary, panel_seeds(name, args.seed))
            summaries[name] = summary
    except (ProgramMissing, RuntimeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps({n: json.loads(result_line(s)) for n, s in summaries.items()}))
    else:
        print(result_line(summaries[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark experiment in this process and print a JSON summary.

    python3 bench/experiment.py --workload lock-search --seed 0 [--trace]

The program is imported from `src/` of the checkout this file sits in.
The summary (last stdout line) holds the wall and set-up time, peak RSS,
the output-check failures, the behaviour fingerprint and the quality
numbers; with --trace also the per-layer metrics.  Exit code 0 means the
experiment ran (its checks may still have failed), 1 that it raised and
3 that the program is missing from the checkout.
"""

import argparse
import contextlib
import hashlib
import json
import math
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import mean
from typing import Dict, List, Optional

from tracing import Tracer
from workloads import SPAN_METRICS, STAGE_NAMES, WORKLOADS, overrides_for

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_DIR = ROOT / ".bench_tmp"
EXIT_NO_PROGRAM = 3

ACCURACY_FIELDS = ("clean_acc", "post_attack_acc", "resumed_acc",
                   "resumed_mean", "resumed_worst")
# rows of these stages carry the defended accuracy and memory figures
DEFENDED_STAGE = {"report": "eval", "lock": "lock"}


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import `bitguard` from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "bitguard" / "__init__.py").is_file():
        raise ProgramMissing(f"no bitguard package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bitguard
    if SRC not in Path(bitguard.__file__).resolve().parents:
        raise ProgramMissing(f"bitguard imported from {bitguard.__file__}")
    return bitguard


def _samples(position: int, keyword: str):
    def observe(args, kwargs, out):
        data = args[position] if len(args) > position else kwargs[keyword]
        return {"samples": len(data)}
    return observe


def _attack_info(args, kwargs, out):
    from bitguard.attacker import GRAD_STEP_UNITS
    budget = args[2] if len(args) > 2 else kwargs["budget"]
    _, trace = out
    return {"flips": len(trace.flips), "fallback": trace.fallback_count,
            "grad_steps": trace.units_used // (GRAD_STEP_UNITS * budget.grad_samples)}


def _lock_info(args, kwargs, out):
    return {"searched": len(out.layers), "locked": len(out.lockable())}


OBSERVERS = {
    "engine.evaluate": _samples(1, "dataset"),
    "engine.forward": _samples(1, "batch"),
    "attacker.bfa_attack": _attack_info,
    "lockdown.search_lock_plan": _lock_info,
}


def make_tracer() -> Tracer:
    return Tracer({name: path for name, (path, _) in SPAN_METRICS.items()},
                  OBSERVERS)


def fingerprint(rows: List[dict]) -> str:
    """sha256 of the canonical report rows without `config_hash`.

    The hash covers `out_dir`, which differs between otherwise identical
    runs, so it is left out.
    """
    from bitguard.harness.reports import canonical_json
    stripped = [{k: v for k, v in r.items() if k != "config_hash"} for r in rows]
    return hashlib.sha256(canonical_json(stripped).encode()).hexdigest()


def check_rows(rows: List[dict], max_flips: int) -> List[str]:
    """Output checks; returns one message per violated invariant."""
    from bitguard.errors import FormatError
    from bitguard.harness import validate_rows
    failures = []
    try:
        validate_rows(rows)
    except FormatError as exc:
        failures.append(f"schema: {exc}")
    for i, r in enumerate(rows):
        if r.get("stage") == "attack" and r.get("flips_used") != max_flips:
            failures.append(f"row {i}: flips_used {r.get('flips_used')} "
                            f"!= max_flips {max_flips}")
        for total in ("m_total", "total_memory"):
            if total in r and not math.isclose(
                    r[total], r["m_tcu"] + r["m_lock"], rel_tol=1e-12, abs_tol=1e-15):
                failures.append(f"row {i}: {total} {r[total]!r} != m_tcu + m_lock "
                                f"{r['m_tcu'] + r['m_lock']!r}")
        for name in ACCURACY_FIELDS:
            value = r.get(name)
            if value is not None and not 0.0 <= value <= 1.0:
                failures.append(f"row {i}: {name} {value!r} outside [0, 1]")
    return failures


def quality(rows: List[dict], stage: str) -> Dict[str, Optional[float]]:
    """attack_drop, resumed_acc and mem_overhead of one experiment."""
    attacks = [r for r in rows if r["stage"] == "attack"]
    out: Dict[str, Optional[float]] = {
        "attack_drop": mean(r["clean_acc"] - r["post_attack_acc"] for r in attacks)
        if attacks else None,
        "resumed_acc": None,
        "mem_overhead": None,
    }
    defended = [r for r in rows if r["stage"] == DEFENDED_STAGE.get(stage)]
    if defended:
        out["resumed_acc"] = mean(r["resumed_acc"] for r in defended)
        out["mem_overhead"] = mean(r["m_total"] for r in defended)
    return out


def layer_metrics(tracer: Tracer, timings: Dict[str, float],
                  cpu_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced experiment (tracing overhead aside)."""
    summary = tracer.summary()
    spans = tracer.spans
    m: Dict[str, float] = {
        f"harness.stage.{s}_s": sum(v for k, v in timings.items()
                                    if k.endswith("." + s))
        for s in STAGE_NAMES}
    for prefix, (_, fields) in SPAN_METRICS.items():
        row = summary.get(prefix, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for f in fields:
            if f == "samples":
                m[f"{prefix}.samples"] = sum(s.info["samples"] for s in spans
                                             if s.name == prefix)
            else:
                m[f"{prefix}.{f}"] = row[f]
    attacks = [s.info for s in spans if s.name == "attacker.bfa_attack"]
    flips = sum(a["flips"] for a in attacks)
    fallback = sum(a["fallback"] for a in attacks)
    m["attacker.flips"] = flips
    m["attacker.fallback_flips"] = fallback
    m["attacker.grad_steps"] = sum(a["grad_steps"] for a in attacks)
    m["attacker.guided_share"] = (flips - fallback) / flips if flips else 0.0
    m["lockdown.candidates"] = sum(
        1 for s in spans if s.name == "engine.evaluate"
        and s.parent is not None and s.parent.name == "lockdown.search_lock_plan")
    plans = [s.info for s in spans if s.name == "lockdown.search_lock_plan"]
    searched = sum(p["searched"] for p in plans)
    m["lockdown.locked_share"] = (sum(p["locked"] for p in plans) / searched
                                  if searched else 0.0)
    m["process.cpu_s"] = cpu_s
    return m


def run_one(workload: str, seed: int, trace: bool = False,
            spawned: Optional[float] = None) -> dict:
    """Run one experiment of the workload; returns the JSON summary."""
    from bitguard.harness import load_config, run_experiment
    stage = WORKLOADS[workload]["stage"]
    TMP_DIR.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=TMP_DIR)
    try:
        # environ={} keeps BITGUARD_* variables from changing the workload
        config = load_config(overrides=overrides_for(workload, seed, out_dir),
                             environ={})
        setup_s = None if spawned is None else time.monotonic() - spawned
        tracer = make_tracer() if trace else None
        with tracer or contextlib.nullcontext():
            cpu0, t0 = time.process_time(), time.perf_counter()
            report = run_experiment(config, stage=stage)
            wall_s = time.perf_counter() - t0
            cpu_s = time.process_time() - cpu0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result = {
        "workload": workload,
        "seed": seed,
        "traced": trace,
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failures": check_rows(report.rows, config.attacker.max_flips),
        "fingerprint": fingerprint(report.rows),
        "quality": quality(report.rows, stage),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, report.timings, cpu_s)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spawned", type=float, default=None,
                   help="time.monotonic() when the parent started this process")
    args = p.parse_args(argv)
    try:
        import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    try:
        result = run_one(args.workload, args.seed, args.trace, args.spawned)
    except Exception:  # the parent counts this run as failed
        print(json.dumps({"error": traceback.format_exc(limit=4)}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

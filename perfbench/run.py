"""Benchmark of the lieyamaguti library and CLI.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: cohomology-scale, pointwise,
bundle-atlas (see perfbench/README.md).  The seed is the only source of the
generated inputs.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics; the lines above
it print every metric with its unit and sample count, the workload-specific
timings, and the known-defect probe.  A full record of the run, seed
included, goes to .perfbench_out/.

Exit codes: 0 all outputs correct; 1 some op failed its check or a tracing
self-check failed (the result line is still printed); 2 the benchmark could
not run (no source tree, worker crash or timeout) and no result is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import COUNT_METRICS, TIME_METRICS  # noqa: E402
from workloads import (  # noqa: E402
    GROUP_BUNDLE_CHECK,
    GROUP_BUNDLE_COHOMOLOGY,
    GROUP_P1,
    GROUP_P2,
    WORKLOADS,
)

SETUP_PROBES = 6  # setup-only workers per run; with the main worker, setup_s is a median of 7
COVERAGE_TOLERANCE = 0.05  # top-level spans must cover each traced job's wall time within 5 %
# Set-up time is scaled to a machine on which one reference-kernel run takes
# this long (about its median on the 2-core machine the benchmark was built on).
REF_NOMINAL_S = 0.003
DEADLINE_S = 170.0  # the whole run, setup probes included, must end before this
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# workload-specific summed timings: op group -> metric name
GROUP_METRICS = {
    "cohomology-scale": ((GROUP_P1, "cohomology_p1_s"), (GROUP_P2, "cohomology_p2_s")),
    "bundle-atlas": ((GROUP_BUNDLE_CHECK, "bundle_check_s"), (GROUP_BUNDLE_COHOMOLOGY, "bundle_cohomology_s")),
    "pointwise": (),  # op_p50_s and op_p90_s instead
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn_worker(args, run_dir: Path, name: str, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(run_dir / name),
    ]
    if setup_only:
        cmd.append("--setup-only")
    # A bytecode cache private to the run: the first worker compiles, the others
    # import compiled code, whatever caches the checkout already holds.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=str(run_dir / "pycache"), OMP_NUM_THREADS="1")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    spawned_at = time.monotonic()
    with subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], stdout=subprocess.PIPE, env=env, cwd=ROOT) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker did not finish within {timeout:.0f} s") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = stdout.decode().strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def check_ops(passes: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems = []
    for p in passes:
        for op in p["ops"]:
            attempted += 1
            if not op["ok"]:
                failed += 1
                problems.append(f"{op['name']}: {op['detail']}")
    return attempted, failed, problems


def program_s(p: dict, group: str | None = None) -> float:
    return sum(op["s"] for op in p["ops"] if group is None or op["group"] == group)


def kref(p: dict, group: str | None = None) -> float:
    """Program time of a pass (or of one op group) in thousands of reference-kernel runs."""
    return program_s(p, group) * p["kernel_rate"] / 1000


def end_to_end(workload: str, setups: list[dict], result: dict) -> tuple[dict, list[str]]:
    passes = result["passes"]
    n = len(passes)
    n_ops = len(passes[0]["ops"])
    wall = statistics.median(program_s(p) for p in passes)
    setup = statistics.median(w["setup_s"] * w["setup_kernel_rate"] * REF_NOMINAL_S for w in setups)
    metrics = {
        "setup_s": (setup, "s", f"median of n={len(setups)} set-ups, at {REF_NOMINAL_S * 1000:g} ms per kernel run"),
        "wall_kref": (statistics.median(kref(p) for p in passes), "kref", f"median of n={n} passes"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB", "n=1 worker"),
    }
    rates = [p["kernel_rate"] for p in passes]
    extra = [
        f"{'setup_s (as measured)':<28} {statistics.median(w['setup_s'] for w in setups):.6g} s  "
        f"(median of n={len(setups)} set-ups)",
        f"{'wall_s':<28} {wall:.6g} s  (median of n={n} passes, sampler excluded)",
        f"{'ops_per_s':<28} {n_ops / wall:.6g} 1/s  ({n_ops} ops per pass ÷ wall_s)",
        f"{'reference_kernel_ms':<28} {1000 / statistics.median(rates):.6g} ms  "
        f"(n={sum(p['kernel_samples'] for p in passes)} samples)",
    ]
    for group, name in GROUP_METRICS[workload]:
        secs = statistics.median(program_s(p, group) for p in passes)
        cost = statistics.median(kref(p, group) for p in passes)
        jobs = sum(op["group"] == group for op in passes[0]["ops"])
        extra.append(f"{name:<28} {secs:.6g} s = {cost:.6g} kref  (median of n={n} passes, {jobs} jobs each)")
    if workload == "pointwise":
        lat = [op["s"] for p in passes for op in p["ops"]]
        p90 = statistics.quantiles(lat, n=10)[8]
        extra.append(f"{'op_p50_s':<28} {statistics.median(lat):.6g} s  (n={len(lat)} ops)")
        extra.append(f"{'op_p90_s':<28} {p90:.6g} s  (n={len(lat)} ops, {sum(x > p90 for x in lat)} above)")
    return metrics, extra


def source_digest() -> str:
    """Digest of the library and benchmark sources: counts are compared only within one version."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def count_self_check(workload: str, seed: int, layers: dict) -> tuple[str, list[str]]:
    """Count metrics of two traced runs with the same seed and sources must be identical.

    The first traced run of a (workload, seed, sources) triple records its
    counts under .perfbench_out/; every later one is compared against them.
    """
    counts = {k: layers[k] for k in COUNT_METRICS}
    path = OUT / f"counts-{workload}-seed{seed}-{source_digest()}.json"
    if not path.is_file():
        OUT.mkdir(exist_ok=True)
        path.write_text(json.dumps(counts, indent=1) + "\n")
        return f"count self-check: recorded {len(counts)} counts in {path.name}", []
    earlier = json.loads(path.read_text())
    problems = [f"count metric {k} differs from an earlier traced run of this seed: {earlier.get(k)} vs {v}"
                for k, v in counts.items() if earlier.get(k) != v]
    return f"count self-check: {len(counts) - len(problems)} of {len(counts)} counts equal to {path.name}", problems


def per_layer(args, result: dict) -> tuple[dict, list[str], list[str]]:
    layers = result["layers"]
    note, problems = count_self_check(args.workload, args.seed, layers)
    traced_pass = result["traced_passes"][0]
    for op, c in zip(traced_pass["ops"], result["coverage"]):
        if abs(c - 1) > COVERAGE_TOLERANCE:
            problems.append(f"traced job {op['name']}: top-level spans cover {c:.3f} of its wall time")
    traced = program_s(traced_pass)
    metrics = {"traced_wall_s": (traced, "s", "program time of 1 traced pass")}
    info = [note]
    for k in TIME_METRICS:
        info.append(f"{k:<28} {layers[k]:.6g} s  (1 traced pass)")
        metrics[share_name(k)] = (layers[k] / traced, "ratio", f"{k} ÷ traced_wall_s")
    for k in COUNT_METRICS:
        metrics[k] = (layers[k], count_unit(k), "1 traced pass")
    # compared in reference-kernel units, so a change of machine speed between the passes cancels
    untraced_cost, traced_cost = kref(result["passes"][0]), kref(traced_pass)
    metrics["trace_overhead_frac"] = (traced_cost / untraced_cost - 1, "ratio",
                                      f"traced {traced_cost:.4g} kref vs untraced {untraced_cost:.4g} kref")
    cov = result["coverage"]
    info.append(f"span coverage of traced jobs: min {min(cov):.4f}, max {max(cov):.4f} (n={len(cov)} jobs)")
    return metrics, info, problems


def share_name(time_metric: str) -> str:
    """``algebra.check_axioms_s`` -> ``algebra.check_axioms_share``.

    The result line carries each layer's busy time as a share of the traced
    pass: a layer that a workload never calls reads 0 there, and a time
    that reads 0 s on every run would look like a number that was not
    measured.  The seconds are printed on the lines above.
    """
    return time_metric[: -len("_s")] + "_share"


def count_unit(metric: str) -> str:
    if metric.endswith(("_frac", "_density")):
        return "ratio"
    return "calls/job" if metric.endswith("_per_job") else "count"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "lieyamaguti" / "__init__.py").is_file():
        print(f"perfbench: no lieyamaguti source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        # probes before and after the main worker sample the machine at both ends of the run
        setups = [spawn_worker(args, run_dir, f"setup{k}", deadline, True) for k in range(SETUP_PROBES // 2)]
        result = spawn_worker(args, run_dir, "main", deadline, False)
        setups += [spawn_worker(args, run_dir, f"setup{k}", deadline, True)
                   for k in range(SETUP_PROBES // 2, SETUP_PROBES)]
    except (BenchError, json.JSONDecodeError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    setups.append(result)

    all_passes = result["passes"] + result.get("traced_passes", [])
    attempted, failed, problems = check_ops(all_passes)
    lines = [f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
             f"passes={len(all_passes)} ops/pass={len(all_passes[0]['ops'])} threads={result['threads']}"]
    if args.trace:
        metrics, info, trace_problems = per_layer(args, result)
        lines += info
        problems += trace_problems
    else:
        metrics, extra = end_to_end(args.workload, setups, result)
        lines += extra
    if result["threads"] != 1:
        problems.append(f"worker ran {result['threads']} threads")
    lines.append(f"{'ops_failed_frac':<28} {failed / attempted:.6f} ratio  ({failed} failed of {attempted} attempted)")
    for name, (value, unit, note) in metrics.items():
        lines.append(f"{name:<28} {value:.6g} {unit}  ({note})")
    if "probe" in result:
        p = result["probe"]
        lines.append(f"known-defect probe (untimed): {p['argv']} -> exit {p['exit']}, status {p['status']}: "
                     f"{'; '.join(p['diagnostics'] or [])}")
    lines += [f"FAILED {msg}" for msg in problems]

    correct = not problems
    final = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "setups": [[w["setup_s"], w["setup_kernel_rate"]] for w in setups], "result": final, "worker": result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps(final))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

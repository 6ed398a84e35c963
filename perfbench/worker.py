"""One benchmark worker: a fresh single-threaded process per run.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
        --spawned-at T --workdir DIR [--setup-only]

The worker imports ``lieyamaguti`` from the checkout's ``src/``, generates and
writes its inputs, then runs the workload's fixed op list as one closed-loop
client (the next op starts when the previous one has been checked), with the
reference sampler of ``reference.py`` measuring the machine's speed.  It
prints one JSON object on stdout; ``run.py`` turns it into metrics.

Untraced (``--trace 0``): passes repeat while the next one is expected to end
within ``--seconds``; there is always at least one.  Traced (``--trace 1``):
one untraced pass, then one traced pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REF_S = 0.1  # kernel sample right after set-up


def import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lieyamaguti
    import lieyamaguti.cli  # noqa: F401  (the CLI is not imported by the package)

    if Path(lieyamaguti.__file__).resolve().parent != src / "lieyamaguti":
        raise ImportError(f"lieyamaguti was imported from {lieyamaguti.__file__}, not from {src}")
    return lieyamaguti


def run_pass(ops: list[wl.Op], tracer: tr.Tracer | None = None) -> dict:
    """One closed-loop pass; op times exclude the sampler's handler."""
    records = []
    with ref.Sampler() as sampler:
        if tracer is not None:
            tracer.clock = sampler.clock
        for job, op in enumerate(ops):
            if tracer is not None:
                tracer.job = job
            t0 = sampler.clock()
            try:
                raw = op.timed()
                err = None
            except Exception as exc:  # an op that raises is a failed op, not a crashed benchmark
                raw, err = None, f"{type(exc).__name__}: {exc}"
            dt = sampler.clock() - t0
            if tracer is not None:
                tracer.job = -1
            ok, detail = (False, err) if err else op.check(raw)
            records.append({"name": op.name, "group": op.group, "s": dt, "ok": ok, "detail": detail})
    if not sampler.rates:
        sampler.rates.append(ref.kernel_rate(ref.INTERVAL_S))  # a pass shorter than one interval
    return {"ops": records, "kernel_rate": statistics.fmean(sampler.rates), "kernel_samples": len(sampler.rates)}


def traced_pass(ops: list[wl.Op], tracer: tr.Tracer) -> tuple[dict, dict, list[float]]:
    tracer.install()
    try:
        result = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    layers = tr.layer_metrics(tracer.spans, tracer.extra, len(ops))
    coverage = tr.job_coverage(tracer.spans, [r["s"] for r in result["ops"]])
    return result, layers, coverage


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() before the spawn")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ly = import_library()
    workload = wl.build(ly, args.workload, args.seed, Path(args.workdir))
    setup_s = time.monotonic() - args.spawned_at
    # the kernel rate right after set-up puts the set-up time on the scale of the passes
    out: dict = {"setup_s": setup_s, "setup_kernel_rate": ref.kernel_rate(SETUP_REF_S)}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    passes = []
    if args.trace:
        passes.append(run_pass(workload.ops))
        tracer = tr.Tracer(ly)
        traced, out["layers"], out["coverage"] = traced_pass(workload.ops, tracer)
        out["traced_passes"] = [traced]
        tr.write_spans(tracer, ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-spans.json")
    else:
        start = time.perf_counter()
        longest = 0.0
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(workload.ops))
            longest = max(longest, time.perf_counter() - t0)
            if time.perf_counter() - start + longest > args.seconds:
                break
    out["passes"] = passes
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["threads"] = threading.active_count()
    if workload.probe is not None:
        out["probe"] = workload.probe()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

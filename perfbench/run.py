"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig10_sweep --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  Host times are scaled to a reference host by the speed
``reference.HostSpeed`` samples during the run.  A readable summary goes
to standard error and the full record (host stamp, digest, tail
percentile and sample count, the times as measured and the scale, layer
table) to ``perfbench/out/<workload>/``.
"""

from time import perf_counter

_T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NoReturn  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

#: One process on a shared 2-core host: pin BLAS to one thread so its
#: pool does not contend with the interpreter for the second core.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Cold set-ups whose median is reported as setup_s: this process plus
#: SETUP_SAMPLES - 1 fresh child processes.
SETUP_SAMPLES = 3
#: Speed samples taken right after each cold set-up, to scale its time.
SETUP_SPEED_SAMPLES = 10
#: A timed phase stops starting new ops after this long even if the
#: prefix that defines the simulated metrics, or the samples the tail
#: percentile needs, are not complete (it then fails).  A traced run has
#: two phases, so both fit in the 180 s a run may take.
HARD_LIMIT_S = 70.0

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_tail_ms": "ms",
                    "peak_rss_mb": "MB"}
OUTCOMES = ("ber", "frame_miss_rate", "delivered_fraction",
            "latency_virtual_p50_ms", "latency_virtual_p99_ms")


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a child process that only measures one cold set-up.
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def _stamp() -> dict:
    import numpy

    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, timeout=10,
                check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "commit": commit,
        "dirty": dirty,
    }


def _percentile(values, pct: float) -> float:
    import numpy

    return float(numpy.percentile(values, pct)) if values else 0.0


def _tail_ready(samples, pct: float) -> bool:
    """At least ten samples lie beyond the ``pct`` percentile."""
    return len(samples) * (1 - pct / 100) >= 10


def timed_phase(wl, seconds: float, trace: bool = False) -> dict:
    """Closed loop of ``wl.op`` for ``seconds``, and at least until the
    prefix is done and the tail percentile has ten samples beyond it.

    With ``trace`` every boundary is traced; otherwise only the one whose
    per-item time is the workload's time sample, if it has one.  The
    host's speed is sampled between ops and, untraced, inside them too
    (``reference.HostSpeed``); the phase's times are reported both as
    measured (``host_*``) and scaled to the reference host.
    """
    import reference
    import tracer as tracing

    if trace:
        tr = tracing.Tracer()
    elif wl.sample_boundary:
        tr = tracing.Tracer(only=(wl.sample_boundary,))
    else:
        tr = None
    wl.reset()
    speed = reference.HostSpeed()
    # Traced, an op is not interrupted: sampling inside it would land in
    # some layer's self time.
    poll = None if trace else speed.poll
    samples, ops, attempted, failed, index = [], 0, 0, 0, 0
    peak_rss_mb = 0.0
    if tr is not None:
        tr.install()
    try:
        start = perf_counter()
        speed.sample()
        while True:
            t0 = perf_counter()
            try:
                if tr is not None:
                    result = tr.run_op(index, lambda i=index: wl.op(i, poll))
                else:
                    result = wl.op(index, poll)
            except Exception:  # an op that raises is a failed op; keep going
                traceback.print_exc(file=sys.stderr)
                attempted += 1
                failed += 1
            else:
                t1 = perf_counter()
                n = wl.items(result)
                attempted += n
                ops += n
                failed += min(wl.check(index, result), n)
                samples.extend(tr.item_ms(wl.sample_boundary)
                               if wl.sample_boundary
                               else [((t0 + t1) / 2, 1e3 * (t1 - t0))])
            index += 1
            if index == wl.prefix_ops:
                # High-water mark after a fixed amount of work: later ops,
                # whose number depends on the host's speed, do not count.
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
            speed.poll()
            elapsed = perf_counter() - start
            if elapsed >= HARD_LIMIT_S:
                break
            if elapsed >= seconds and index >= wl.prefix_ops \
                    and _tail_ready(samples, wl.tail_pct):
                break
        phase_s = perf_counter() - start
    finally:
        if tr is not None:
            tr.remove()
    # A phase cut by the hard limit before its prefix or its tail
    # samples were complete fails.
    if index < wl.prefix_ops:
        failed += 1
    if not _tail_ready(samples, wl.tail_pct):
        failed += 1
    failed = min(failed + wl.finish(), max(attempted, 1))
    # Host time of the ops and the loop, without the speed samples.  No
    # time sample holds a speed sample: fig10_sweep and trace_replay ops
    # do not poll, and serve's samples are decode-task times, which the
    # gateway's should_stop hook never interrupts.  Throughput is scaled
    # by the run's mean speed; each time sample by the speed around it,
    # since a run mixes fast and slow phases and the tail holds the slow.
    busy_s = phase_s - speed.spent_s
    scale = speed.scale
    return {
        "phase_s": phase_s, "busy_s": busy_s, "ops": ops, "calls": index,
        "attempted": max(attempted, 1), "failed": failed,
        "host_samples": [ms for _, ms in samples],
        "samples": [ms * speed.scale_at(t) for t, ms in samples],
        "scale": scale,
        "speed_samples": len(speed.samples_ms),
        "ref_ms_mean": statistics.fmean(speed.samples_ms),
        "host_ops_per_s": ops / busy_s,
        "ops_per_s": ops / (busy_s * scale),
        "outcomes": wl.outcomes(), "digest": wl.digest(),
        "checks": wl.run_checks(), "peak_rss_mb": peak_rss_mb,
        "tracer": tr,
    }


def _setup_record(host_s: float) -> dict:
    """One cold set-up: its host time and that time scaled to the
    reference host, by the host's speed sampled right after it."""
    import reference

    reference.kernel()  # warm-up: the first call imports and allocates
    speed = reference.HostSpeed()
    for _ in range(SETUP_SPEED_SAMPLES):
        speed.sample()
    return {"host_s": host_s, "s": host_s * speed.scale}


def _child_setups(args, count: int) -> list:
    """Cold set-ups measured in fresh processes (each waited for)."""
    times = []
    for k in range(count):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "1", "--setup-only"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, env=dict(os.environ,
                                                    PERFBENCH_SETUP_SLOT=str(k)))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            _fail(f"set-up child {k} failed with exit code {proc.returncode}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times


def _layer_metrics(summary: dict, scale: float) -> dict:
    """Flatten the tracer's table into per-layer metric values, with
    self times scaled to the reference host."""
    out = {}
    for layer, row in summary["layers"].items():
        out[f"{layer}.self_ms"] = row["self_ms"] * scale
        out[f"{layer}.share"] = row["share"]
    for name, row in summary["entries"].items():
        if row["layer"] == "sim" or name == "bench.op":
            continue
        out[f"{name}.calls"] = row["calls"]
        if row["items"] is not None:
            out[f"{name}.items"] = row["items"]
        out[f"{name}.self_ms"] = row["self_ms"] * scale
    out["attributed_share"] = summary["attributed_share"]
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no repro sources under {ROOT / 'src'}; run from a checkout")
    for key in BLAS_ENV:
        os.environ.setdefault(key, "1")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import reference  # noqa: E402
    import workloads  # noqa: E402  (imports repro and numpy)

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}")
    slot = os.environ.get("PERFBENCH_SETUP_SLOT", "main")
    out_dir = OUT_DIR / args.workload / (
        f"setup-{slot}" if args.setup_only else "run")
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    try:
        wl.setup()
        setup_main = _setup_record(perf_counter() - _T_START)
        if args.setup_only:
            print(json.dumps(setup_main))
            return 0
        if args.trace:
            phases = (timed_phase(wl, args.seconds / 2),
                      timed_phase(wl, args.seconds / 2, trace=True))
        else:
            phases = (timed_phase(wl, args.seconds),)
    finally:
        wl.close()
    setups = [setup_main] + _child_setups(args, SETUP_SAMPLES - 1)

    main_phase = phases[0]
    digest_match = all(p["digest"] == main_phase["digest"] for p in phases)
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases) + int(not digest_match)
    pct = wl.tail_pct
    scale = main_phase["scale"]
    host_tail = _percentile(main_phase["host_samples"], pct)
    outcomes = main_phase["outcomes"]
    end_to_end = {
        "setup_s": statistics.median(r["s"] for r in setups),
        "ops_per_s": main_phase["ops_per_s"],
        "op_tail_ms": _percentile(main_phase["samples"], pct),
        "peak_rss_mb": main_phase["peak_rss_mb"],
    }
    # The same times as measured, before scaling to the reference host.
    host = {
        "setup_s": statistics.median(r["host_s"] for r in setups),
        "ops_per_s": main_phase["host_ops_per_s"],
        "op_tail_ms": host_tail,
    }
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "stamp": _stamp(),
        "end_to_end": end_to_end, "host": host, "setups": setups,
        "speed": {"reference_ms": reference.REFERENCE_MS, "scale": scale,
                  "kernel_ms_mean": main_phase["ref_ms_mean"],
                  "samples": main_phase["speed_samples"]},
        "tail": {"pct": pct, "samples": len(main_phase["samples"])},
        # Recorded, not an end-to-end metric: see RATIONALE.md.
        "op_p50_ms": _percentile(main_phase["samples"], 50.0),
        "ops": main_phase["ops"], "calls": main_phase["calls"],
        "outcomes": outcomes, "digest": main_phase["digest"],
        "checks": main_phase["checks"],
        "attempted": attempted, "failed": failed,
    }
    if args.trace:
        tr = phases[1]["tracer"]
        summary = tr.summary(phases[1]["busy_s"], phases[1]["ops"])
        layer = _layer_metrics(summary, phases[1]["scale"])
        layer["trace.ops_per_s_ratio"] = (
            phases[1]["ops_per_s"] / phases[0]["ops_per_s"])
        layer["check.error_rate"] = failed / attempted
        for key in OUTCOMES:
            layer[f"outcome.{key}"] = outcomes.get(key, 0.0)
        record["layers"] = summary
        record["per_layer"] = layer
        record["digest_traced"] = phases[1]["digest"]
        spans_path = out_dir.parent / f"spans-seed{args.seed}.jsonl"
        tr.write_spans(str(spans_path))
        record["spans"] = str(spans_path.relative_to(ROOT))
        metrics = {k: {"value": v, "unit": _layer_unit(k)}
                   for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in end_to_end.items()}
    record_path = out_dir.parent / (
        f"result-seed{args.seed}-trace{args.trace}.json")
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    _summary(record, pct)
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"digest={record['digest']} record={record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith(".self_ms"):
        return "ms/op"
    if name.endswith((".calls", ".items")):
        return "1/op"
    if name.endswith("_ms"):
        return "ms"
    return "ratio"


def _summary(record: dict, pct: float) -> None:
    e, h = record["end_to_end"], record["host"]
    lines = [
        f"{record['workload']} seed={record['seed']} "
        f"ops={record['ops']} failed={record['failed']}/{record['attempted']}",
        f"  setup_s={e['setup_s']:.3f} ops_per_s={e['ops_per_s']:.3f} "
        f"op_p50_ms={record['op_p50_ms']:.2f} op_tail_ms(p{pct:g}, "
        f"n={record['tail']['samples']})={e['op_tail_ms']:.2f} "
        f"peak_rss_mb={e['peak_rss_mb']:.1f}",
        f"  as measured: setup_s={h['setup_s']:.3f} "
        f"ops_per_s={h['ops_per_s']:.3f} op_tail_ms={h['op_tail_ms']:.2f}; "
        f"host speed scale={record['speed']['scale']:.3f} "
        f"({record['speed']['samples']} samples)",
        "  outcomes " + " ".join(f"{k}={v:.6g}"
                                 for k, v in record["outcomes"].items()),
    ]
    if "layers" in record:
        layers = record["layers"]["layers"]
        lines.append("  layer shares " + " ".join(
            f"{k}={v['share']:.3f}" for k, v in layers.items()))
        lines.append(
            f"  attributed={record['layers']['attributed_share']:.3f} "
            f"missing={record['layers']['missing']}")
    print("\n".join(lines), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())

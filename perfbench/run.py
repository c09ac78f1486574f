#!/usr/bin/env python3
"""amrkit benchmark: four seeded closed-loop workloads, untraced or traced.

Run from the root of a checkout that holds ``src/amrkit``::

    python3 perfbench/run.py --workload amr-advect --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

An untraced run (``--trace 0``) sets the workload up several times, then runs
steps until they have taken ``--seconds`` seconds, not counting the checks
between them, and reports the end-to-end metrics.  A traced run
(``--trace 1``) does a fixed number of steps, proportional to ``--seconds``,
in four passes that alternate between untraced and every layer wrapped, and
reports the per-layer metrics; fixed work makes its counts repeat exactly.
Both check the outputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is the full record: every metric by name and unit, the output digests, the
failed checks and the environment.  Both are also written under
``.perfbench/`` in the checkout, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 50
SETUP_MIN_S = 0.5
# Every untraced run times this many iterations of a pure-Python loop right
# after each set-up, step and rebuild.  CALIBRATION_REF_S, the loop's typical
# time on the machine the benchmark was written on, over the median loop time
# within PROBE_SPAN probes of a measurement scales it to the reference speed.
CALIBRATION_LOOPS = 60_000
CALIBRATION_REF_S = 0.004
PROBE_SPAN = 2

# End-to-end metrics, reported by every workload: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("rebuild_ms_p50", "ms"),
    ("throughput", "1/s"),
    ("peak_rss_MB", "MB"),
)

IO_NOTE = (
    "I/O figures are page-cache figures: the 8.4 MB payload fits in the "
    "last-level cache and each file is rewritten in place, so no run "
    "measures disk bandwidth"
)


def _use_checkout_sources():
    """Import amrkit from this checkout's src, never from an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "amrkit", "__init__.py")):
        sys.exit(f"perfbench: no amrkit sources under {src}; run from a checkout")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)


def _llc_bytes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = None
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            with open(os.path.join(base, entry, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, entry, "size")) as fh:
                text = fh.read().strip()
            mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
            size = int(text.rstrip("KMG")) * mult
            if best is None or level > best[0]:
                best = (level, size)
    except (OSError, ValueError):
        return None
    return None if best is None else best[1]


def environment():
    import numpy as np

    import amrkit.kernels

    get_backend = getattr(amrkit.kernels, "get_backend", lambda: "numpy")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": get_backend(),
        "llc_bytes": _llc_bytes(),
        "machine": platform.machine(),
        "io_note": IO_NOTE,
    }


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values), q)) if values else 0.0


def _median(values):
    return _percentile(values, 50)


def _calibrate():
    """Time a fixed pure-Python loop: a probe of the machine's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i
    return time.perf_counter() - t0


class Loop:
    """What one closed loop measured, in order: ("step" or "rebuild",
    seconds, seconds of the calibration probe run right after it or None)."""

    def __init__(self):
        self.events = []
        self.digest = None
        self.peak_kb = None

    def times(self, kind, scaled=False):
        """Durations of one kind; scaled to the reference speed by the median
        of the probes within PROBE_SPAN events of each."""
        if not scaled:
            return [d for k, d, _ in self.events if k == kind]
        return [
            d * scale
            for (k, d, _), scale in zip(self.events, _local_scales([p for _, _, p in self.events]))
            if k == kind
        ]

    def busy(self, every, scaled=False):
        # rebuilds are charged at their mean cost per `every` steps, so the
        # figure does not depend on where in a rebuild cycle the time ran out
        steps = self.times("step", scaled)
        rebuilds = self.times("rebuild", scaled)
        return sum(steps) + len(steps) / every * sum(rebuilds) / len(rebuilds)


def _local_scales(probes):
    """CALIBRATION_REF_S over the median probe within PROBE_SPAN of each."""
    return [
        CALIBRATION_REF_S / _median(probes[max(0, j - PROBE_SPAN) : j + PROBE_SPAN + 1])
        for j in range(len(probes))
    ]


def _run_steps(wl, nsteps, seconds, section=None, calibrate=False):
    """Closed loop: step, maybe rebuild, then untimed checks.

    Runs nsteps steps, or with nsteps None until the timed steps and
    rebuilds add up to seconds (and at least until the digest step, the
    first rebuild and the resident-set reading); the checks are not counted.
    section(name), if given, is a context manager around each step and
    rebuild; with calibrate, a calibration probe runs untimed after each.
    The digest is taken after wl.digest_step steps and the peak resident set
    once wl.rss_step steps are done; a fixed step count keeps that figure
    independent of how many steps the time allowed.
    """
    section = section or (lambda name: contextlib.nullcontext())
    loop = Loop()
    least = max(wl.digest_step, wl.rebuild_every, wl.rss_step)
    steps = timed = 0

    def run(kind, fn):
        with section(f"bench.{kind}"):
            t0 = time.perf_counter()
            fn()
            dt = time.perf_counter() - t0
        loop.events.append((kind, dt, _calibrate() if calibrate else None))
        return dt

    while True:
        timed += run("step", wl.step)
        steps += 1
        if wl.rebuild_every and steps % wl.rebuild_every == 0:
            wl.before_rebuild()
            timed += run("rebuild", wl.rebuild)
        wl.after(steps)
        if steps == wl.digest_step:
            loop.digest = wl.digest()
        if steps == wl.rss_step:
            loop.peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if nsteps is not None:
            if steps >= nsteps:
                break
        elif steps >= least and timed >= seconds:
            break
    return loop


def _check_digest(checks, label, got, want):
    checks.expect(got == want, f"{label} digest differs from the 1-rank reference")


def _summary(setups, steps, rebuilds, work, busy):
    return {
        "setup_s": _median(setups),
        "step_ms_p50": 1e3 * _median(steps),
        "step_ms_p90": 1e3 * _percentile(steps, 90),
        "rebuild_ms_p50": 1e3 * _median(rebuilds),
        "throughput": work / busy,
    }


def run_untraced(cls, seed, seconds, checks, workdir):
    # a cheap set-up is repeated more often, so its median stays steady
    setups, setup_probes = [], []
    while len(setups) < SETUP_MIN_REPEATS or (
        sum(setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS
    ):
        wl = cls(seed, checks, workdir)
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
        setup_probes.append(_calibrate())
    loop = _run_steps(wl, None, seconds, calibrate=True)
    wl.finish()
    reference = wl.reference()
    _check_digest(checks, "timed run", loop.digest, reference)
    every = cls.rebuild_every
    raw = _summary(
        setups, loop.times("step"), loop.times("rebuild"), wl.work, loop.busy(every)
    )
    # the host's speed drifts by a third within minutes, so every time is
    # scaled by the calibration loop probed around it
    scaled = _summary(
        [t * f for t, f in zip(setups, _local_scales(setup_probes))],
        loop.times("step", scaled=True),
        loop.times("rebuild", scaled=True),
        wl.work,
        loop.busy(every, scaled=True),
    )
    scaled["peak_rss_MB"] = loop.peak_kb / 1024.0
    metrics = {name: (scaled[name], unit) for name, unit in END_TO_END}
    detail = dict(metrics)
    detail[cls.throughput_name] = (raw["throughput"], "1/s")
    detail.update(wl.extra_metrics())
    units = dict(END_TO_END)
    detail.update({f"wall.{k}": (v, units[k]) for k, v in raw.items() if k != "throughput"})
    detail["calibration_ms"] = (1e3 * _median([p for _, _, p in loop.events]), "ms")
    detail["step_samples"] = (len(loop.times("step")), "count")
    detail["rebuild_samples"] = (len(loop.times("rebuild")), "count")
    detail["timed_s"] = (loop.busy(every), "s")
    return metrics, detail, {"digests": {"run": loop.digest, "reference": reference}}


def run_traced(cls, seed, seconds, checks, workdir):
    import layers
    import tracing

    from amrkit import counters

    nsteps = max(round(seconds * cls.trace_steps_per_s), cls.digest_step, cls.rebuild_every)
    reference = None
    walls = {False: [], True: []}
    digests = {}
    # untraced and traced passes alternate twice; the faster pass of each
    # kind gives the overhead, so one-time warm-up costs do not count
    for traced in (False, True, False, True):
        wl = cls(seed, checks, workdir)
        wl.setup()
        tracer = tracing.Tracer(f"{cls.name}-{seed}-{os.getpid()}")
        sums = {}

        @contextlib.contextmanager
        def section(name):
            # spans, and counter sums, cover only the timed steps and rebuilds
            before = counters.snapshot()
            with tracer.span(name):
                yield
            for k, v in counters.snapshot().items():
                sums[k] = sums.get(k, 0) + v - before.get(k, 0)

        entries0 = layers.plan_cache_entries()
        counters.reset("io_peak_writers")
        t0 = time.perf_counter()
        if traced:
            with tracing.install(tracer):
                loop = _run_steps(wl, nsteps, None, section)
            sums["io_peak_writers"] = counters.get("io_peak_writers")
            last = (wl, tracer, sums, len(loop.times("step")), len(loop.times("rebuild")), entries0)
        else:
            loop = _run_steps(wl, nsteps, None)
        walls[traced].append(time.perf_counter() - t0)
        wl.finish()
        if reference is None:
            reference = wl.reference()
        label = "traced" if traced else "untraced"
        _check_digest(checks, label, loop.digest, reference)
        digests[label] = loop.digest
    overhead = min(walls[True]) / min(walls[False]) - 1.0
    metrics = layers.per_layer(*last, overhead)
    tracer = last[1]
    os.makedirs(os.path.join(OUT, "trace"), exist_ok=True)
    tracer.write(os.path.join(OUT, "trace", f"{cls.name}-s{seed}-{os.getpid()}.spans.json"))
    detail = dict(metrics)
    detail["trace.steps"] = (last[3], "count")
    detail["trace.untraced_wall_s"] = (min(walls[False]), "s")
    detail["trace.traced_wall_s"] = (min(walls[True]), "s")
    digests["reference"] = reference
    trace = {
        "spans": len(tracer.names),
        "missing_wrappers": tracer.missing,
        "calls": {name: row["calls"] for name, row in tracer.table().items()},
    }
    return metrics, detail, {"digests": digests, "trace": trace}


def run_one(name, seed, seconds, trace):
    _use_checkout_sources()
    from workloads import WORKLOADS, Checks

    cls = WORKLOADS[name]
    checks = Checks()
    workdir = os.path.join(OUT, "work", f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    runner = run_traced if trace else run_untraced
    try:
        metrics, detail, info = runner(cls, seed, seconds, checks, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ratio = checks.failed / checks.attempted
    detail["failed_ratio"] = (ratio, "ratio")
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": info.get("trace"),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
        "digests": info["digests"],
        "checks": {
            "attempted": checks.attempted,
            "failed": checks.failed,
            "failures": checks.failures[:20],
        },
        "environment": environment(),
    }
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    stem = os.path.join(OUT, "results", f"{name}-s{seed}-t{trace}-{os.getpid()}.json")
    with open(stem, "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


def run_all(seed, seconds, trace):
    """Each workload in its own process, one after another, then a table."""
    _use_checkout_sources()
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: {name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        results[name] = (json.loads(lines[-2]), json.loads(lines[-1]))
    for name, (record, result) in results.items():
        print(f"== {name}  correct={result['correct']}  checks={result['attempted']}"
              f"  failed={result['failed']}")
        for metric, mv in record["metrics"].items():
            print(f"   {metric:<42} {mv['value']:>16.6g} {mv['unit']}")
    total = {
        "correct": all(r["correct"] for _, r in results.values()),
        "attempted": sum(r["attempted"] for _, r in results.values()),
        "failed": sum(r["failed"] for _, r in results.values()),
        "metrics": {
            f"{name}.{k}": v for name, (_, r) in results.items() for k, v in r["metrics"].items()
        },
    }
    print(json.dumps(total))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=["amr-advect", "particle-pic", "eb-geometry", "plotfile-io", "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of moser2d: one workload per run, end to end or traced.

Run from the repository root:

    python3 bench/run.py --workload optimize --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory, in one
process on one thread.  ``--trace 0`` reports the end-to-end metrics named
in ``BENCHMARK.json``; ``--trace 1`` replays a fixed number of rounds
twice, untraced and then traced, and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
describe the run: environment, input properties and sample counts.
See ``bench/METRICS.md``.
"""

import argparse
import array
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# quadrature.py sums panels with a numpy matmul (sc @ _WGK); main() pins
# these to one thread before numpy loads, so the single client stays
# single-threaded
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# fresh interpreters launched per run to measure set-up, spread over the
# measured pass; the median is reported.  Every probe runs the first
# request of the same seed, so the run's seed cannot move set-up time.
SETUP_PROBES = 9
SETUP_SEED = 0
PROBE_TIMEOUT_S = 120
# at most this many problem lines per run go to standard error
MAX_PROBLEM_LINES = 20
WAIT_NOTE = (
    "no wait-time metrics: one closed-loop client calls the library in "
    "process, and nothing in moser2d queues, locks or waits"
)


def _import_package():
    """Import moser2d from src/ next to the benchmark, or exit with code 2."""
    if not (SRC / "moser2d" / "__init__.py").is_file():
        sys.stderr.write("bench: no moser2d sources under %s\n" % SRC)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import moser2d

    if Path(moser2d.__file__).resolve().parent != (SRC / "moser2d").resolve():
        sys.stderr.write("bench: moser2d imported from %s, not src/\n" % moser2d.__file__)
        raise SystemExit(2)


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


class Tally:
    """Attempted and failed operations, and the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, job, problem):
        self.attempted += job.ops
        if problem is not None:
            self.fail(job, problem)

    def fail(self, job, problem):
        self.failed += job.ops
        if len(self.problems) < MAX_PROBLEM_LINES:
            self.problems.append("%s: %s" % (job.label, problem))


class _Raised:
    """A request that raised where no exception was expected."""

    def __init__(self, exc):
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _judge(job, results, count):
    """(problem or None, fingerprint) of one job's results."""
    for r in results:
        if isinstance(r, _Raised):
            return "raised %s" % r.text, None
    try:
        return job.check(results, count)
    except Exception as exc:  # a check that crashes is a failed operation
        return "check raised %s" % _Raised(exc).text, None


class PeakWatch:
    """Which stage of the run raised the process's peak resident memory.

    ``ru_maxrss`` only grows; each rise is booked to the stage that was
    running, so ``rises_mb`` adds up to the reported peak and shows whether
    it was set inside a request or by the benchmark's own work.
    """

    def __init__(self):
        self.last = self._now()
        self.rises = {"start": self.last}
        self.top = "start"

    @staticmethod
    def _now():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def mark(self, stage):
        now = self._now()
        if now > self.last:
            self.rises[stage] = self.rises.get(stage, 0.0) + now - self.last
            self.last = now
            self.top = stage

    def report(self):
        return {"peak_mb": self.last, "set_by": self.top, "rises_mb": self.rises}


def _run_requests(job, tracer=None, latencies=None, clock=None, peak=None):
    results = []
    for request in job.requests:
        if clock is not None:
            clock.tick()
        if tracer is not None:
            tracer.request += 1
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            out = request()
        except Exception as exc:
            out = _Raised(exc)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.enabled = False
        if latencies is not None:
            latencies.append(t1 - t0)
        if peak is not None:
            peak.mark("request")
        results.append(out)
    return results


# A fixed mix of the kinds of work the workloads do (small-array numpy,
# JSON serialization, interpreter loops), timed between requests at least
# every CAL_EVERY_S.  Other tenants' load slows the machine the bounds
# were set on by 1.4-1.7x, in stretches from a tenth of a second to many
# seconds.  Each request's latency is scaled by CAL_REF_S over the mean of
# the calibrations taken just before and just after it, so times read as
# at the reference speed.  CAL_REF_S is this work's time in the machine's
# fast state.
CAL_DATA = list(range(70))
CAL_REF_S = 0.0026
CAL_EVERY_S = 0.02


def calibration_s():
    """Seconds this process takes for the fixed calibration work right now."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 15)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(200):
        acc += float(np.exp(-x * (i % 7)) @ x)
        acc += len(json.dumps(CAL_DATA[: 20 + i % 50]))
        acc += sum(k * k for k in range(40))
    return time.perf_counter() - t0


class Pass:
    """Latencies, their calibrated values and the operations of one pass."""

    def __init__(self, calibrate):
        # flat arrays keep the benchmark's own share of peak memory small
        self.latencies = array.array("d")
        self.scaled = array.array("d")
        self.calibrations = []
        self.ops = 0
        self.rounds = 0
        self._calibrate = calibrate
        self._last_cal = -math.inf

    @property
    def busy_s(self):
        return sum(self.latencies)

    def tick(self):
        """Called before each request: calibrate if the last one is stale."""
        if self._calibrate and time.perf_counter() - self._last_cal >= CAL_EVERY_S:
            self.close_segment()

    def close_segment(self):
        """Calibrate, and scale the latencies since the previous calibration."""
        c = calibration_s()
        if self.calibrations:
            speed = 2.0 * CAL_REF_S / (self.calibrations[-1] + c)
            self.scaled.extend(x * speed for x in self.latencies[len(self.scaled):])
        self.calibrations.append(c)
        self._last_cal = time.perf_counter()


def measure(wl, tally, seconds=None, min_requests=0, rounds=None, tracer=None, keep=None,
            peak=None, between=None):
    """Run whole rounds until the busy time and request floor are met.

    Busy time is the sum of request latencies: input generation, the
    checks and calibration run between requests and are not measured.
    With ``rounds`` the pass runs exactly that many rounds instead, and
    is not calibrated.  The first ``wl.rerun_jobs`` jobs are appended to
    ``keep`` with their fingerprint for the bit-identical rerun.
    ``between(busy_s)`` is called after every job.
    """
    p = Pass(calibrate=rounds is None)
    busy = 0.0
    for rnd in wl.rounds(0):
        for job in rnd:
            n_before = len(p.latencies)
            results = _run_requests(job, tracer, p.latencies, p, peak)
            busy += sum(p.latencies[n_before:])
            problem, fp = _judge(job, results, True)
            if peak is not None:
                peak.mark("check")
            tally.add(job, problem)
            p.ops += job.ops
            if keep is not None and len(keep) < wl.rerun_jobs:
                keep.append((job, fp, problem))
            elif job.cleanup is not None:
                job.cleanup()
            if between is not None:
                between(busy)
        p.rounds += 1
        if rounds is not None:
            if p.rounds >= rounds:
                break
        elif busy >= seconds and len(p.latencies) >= min_requests:
            break
    if p.calibrations:
        p.close_segment()
    return p


def rerun(keep, tally, peak=None):
    """Run kept jobs again; a result that differs in any bit fails the job."""
    for job, fp, problem in keep:
        again, fp2 = _judge(job, _run_requests(job, peak=peak), False)
        if peak is not None:
            peak.mark("check")
        if problem is None and (again is not None or fp2 != fp):
            tally.fail(job, again or "rerun is not bit-identical")
        if job.cleanup is not None:
            job.cleanup()


def _hd_quantile(xs, q):
    """Harrell-Davis estimate of the q-quantile.

    A beta-weighted mean of all order statistics: where latencies are
    spread thinly around the quantile, as on rearrange_verify, it does not
    jump when two neighbouring request classes swap places.
    """
    import numpy as np
    from scipy.special import betainc

    n = len(xs)
    weights = np.diff(betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n))
    return float(np.dot(weights, np.sort(xs)))


def probe_setup(name, workdir):
    """Seconds from launching a fresh interpreter to the end of the first request.

    The child reports how long it spent generating the first input; that
    time is subtracted, so the figure covers interpreter start, imports
    and first-call costs.
    """
    cmd = [
        sys.executable, str(HERE / "run.py"), "--probe", "--workload", name,
        "--seed", str(SETUP_SEED), "--workdir", workdir,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line.startswith("probe "):
        raise RuntimeError("set-up probe failed with exit code %s" % proc.returncode)
    return t1 - t0 - float(line.split()[1])


def probe_child(args):
    """Body of one set-up probe: import, build the first input, run it."""
    _import_package()
    workloads = importlib.import_module("workloads")
    cls = workloads.WORKLOADS[args.workload]
    for mod in cls.modules:
        importlib.import_module(mod)
    t0 = time.perf_counter()
    job = next(cls(args.seed, args.workdir).rounds(0))[0]
    gen_s = time.perf_counter() - t0
    job.requests[0]()
    sys.stdout.write("probe %.9f\n" % gen_s)
    sys.stdout.flush()
    return 0


def environment():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
    }


def run(args):
    import numpy as np

    spec = _spec()
    _import_package()
    workloads = importlib.import_module("workloads")
    reference = importlib.import_module("reference")
    cls = workloads.WORKLOADS[args.workload]
    for mod in cls.modules:
        importlib.import_module(mod)
    peak = PeakWatch()
    workdir = tempfile.mkdtemp(prefix=".work-", dir=str(HERE))
    try:
        with reference.Child() as quad:
            wl = cls(args.seed, workdir, quad)
            wl.prepare()
            peak.mark("prepare")
            tally = Tally()
            warm = next(wl.rounds(1))[0]
            tally.add(warm, _judge(warm, _run_requests(warm, peak=peak), False)[0])
            peak.mark("check")
            if warm.cleanup is not None:
                warm.cleanup()
            keep = []
            report = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
            if not args.trace:
                setup = []

                def probe_due(busy):
                    # the probes are spread evenly over the pass's busy time
                    while len(setup) < SETUP_PROBES and busy >= len(setup) * args.seconds / SETUP_PROBES:
                        setup.append(probe_setup(args.workload, workdir))

                p = measure(wl, tally, seconds=args.seconds, min_requests=wl.min_requests,
                            keep=keep, peak=peak, between=probe_due)
                probe_due(math.inf)
                rerun(keep, tally, peak)
                scaled = p.scaled
                # the pass's mean speed factor, weighted by busy time
                speed = sum(scaled) / p.busy_s
                values = {
                    "setup_s": statistics.median(setup) * speed,
                    "ops_per_s": p.ops / sum(scaled),
                    "op_p50_ms": _hd_quantile(scaled, 0.5) * 1e3,
                    "op_p90_ms": _hd_quantile(scaled, 0.9) * 1e3,
                    "peak_rss_mb": peak.last,
                }
                wanted = spec["end_to_end"]
                lat_ms = np.array(p.latencies) * 1e3
                report.update(
                    requests=len(lat_ms), rounds=p.rounds, ops=p.ops,
                    busy_s=p.busy_s, setup_probes_s=setup,
                    calibration={"runs": len(p.calibrations), "speed": speed},
                    raw={"setup_s": statistics.median(setup), "ops_per_s": p.ops / p.busy_s,
                         "op_p50_ms": float(np.percentile(lat_ms, 50)),
                         "op_p90_ms": float(np.percentile(lat_ms, 90))},
                )
            else:
                tracing = importlib.import_module("tracing")
                n_rounds = max(1, round(wl.nominal_rounds_per_s * args.seconds / 2.0))
                plain = measure(wl, tally, rounds=n_rounds, peak=peak)
                wl.reset()
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    traced = measure(wl, tally, rounds=n_rounds, tracer=tracer, keep=keep, peak=peak)
                finally:
                    tracer.uninstall()
                rerun(keep, tally, peak)
                values = tracer.layer_metrics()
                extras = dict(workloads.LAYER_EXTRAS, **wl.layer_extras())
                for key, x in extras.items():
                    values[key] = values.get(key, 0) + x if key.endswith(".errors") else x
                attributed = sum(values[k] for k in values if k.endswith(".self_s") and k.count(".") == 1)
                wall = traced.busy_s
                values.update({
                    "trace.overhead_ratio": wall / plain.busy_s,
                    "trace.wall_s": wall,
                    "trace.attributed_s": attributed,
                    "trace.unattributed_s": wall - attributed,
                    "trace.unattributed_share": (wall - attributed) / wall,
                })
                wanted = spec["per_layer"]
                report.update(rounds=n_rounds, requests=len(traced.latencies), ops=traced.ops,
                              untraced_busy_s=plain.busy_s)
        report["fail_ratio"] = tally.failed / tally.attempted
        report["peak_rss"] = peak.report()
        report["inputs"] = wl.properties()
        report["environment"] = environment()
        report["wait_time"] = WAIT_NOTE
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise KeyError("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for problem in tally.problems:
        sys.stderr.write("FAIL %s\n" % problem)
    for name, m in metrics.items():
        print("%-36s %18.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("optimize", "evaluate", "rearrange_verify"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = "1"
    if args.probe:
        return probe_child(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

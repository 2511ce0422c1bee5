"""End-to-end and per-layer benchmark of plsmooth.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload kuhn_sweep --seed 0 --seconds 15 --trace 0

Everything runs in this one process, on the library under ``src/``.  The
BLAS/OpenMP thread counts are pinned to 1 before numpy is imported.

A run sets up (imports plsmooth afresh, generates the seeded input, writes
it as a JSON document, loads it with ``load_complex`` and runs
``choose_params``) several times, then runs ``plsmooth smooth --lam 1``
(and, on ``kuhn_sweep``, ``plsmooth sweep``) through ``plsmooth.cli.main``,
each until it has REPEATS samples or has used ``--seconds``, at least once.
After every command it times ``evaluate`` + ``derivative`` at the seeded
query points on the map that ``smooth`` assembled; last comes the query
batch, which also inverts their images.  Every output is checked against
the guarantees of the construction; a failed check counts as a failed
operation.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` the run makes one untraced and one traced pass of one set-up,
one of each command and one query batch, and the last line holds the
per-layer metrics of the traced pass.  Lines before
it report the environment, the workload's shape and, when traced, the
tracing overhead.  A full record, spans included, goes to
``.perfbench_out/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SWEEP_ARGS = ["--norm", "lp:2", "--norm", "lorentz:2:1"]
SWEEP_EPSILON = 1e-2          # the CLI's default convergence target
ROUNDTRIP_FACTOR = 1e-11      # inverse round trip, times coordinate scale
REPEATS = 5                   # samples per command, fewer when they are slow
SETUP_REPEATS = 5             # set-ups per run, fewer when they are slow
SETUP_BUDGET_S = 10.0         # no further set-up once this much is spent
EVAL_BLOCK_S = 0.4            # evaluate + derivative after each command
EVAL_MIN_S = 2.0              # ... and in all at least this long
INVERSE_MIN_S = 2.5           # inverse repeated this long

SAMPLE_KEYS = ("setup_s", "smooth_s", "sweep_s", "eval_pts_per_s",
               "inverse_pts_per_s")
END_TO_END = {"setup_s": "s", "smooth_s": "s", "cli_s": "s",
              "eval_pts_per_s": "points/s", "peak_rss_mb": "MB"}
# Reported but not bounded.  One inverse call takes over a second on
# vertex_ball, so a run has two or three samples of it.  The sweep runs on
# kuhn_sweep only; cli_s carries it.  The cold import of numpy, scipy and
# plsmooth happens once per process, so it is one sample.
INFORMATIONAL = {"inverse_pts_per_s": "points/s", "sweep_s": "s",
                 "import_s": "s"}
# In a traced run, the library spans must cover this share of every CLI
# command's wall time, or the per-layer metrics miss part of it.
MIN_CLI_COVERAGE = 0.95


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "plsmooth" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no plsmooth sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import plsmooth.cli  # noqa: F401  (imports every module the CLI uses)
    if Path(plsmooth.__file__).resolve().parent != SRC / "plsmooth":
        sys.stderr.write(f"perfbench: imported plsmooth from "
                         f"{plsmooth.__file__}, not from {SRC}\n")
        return 2
    import_s = time.perf_counter() - _T0
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}\n")
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        bench = Bench(args.workload, args.seed, workdir)
        if args.trace:
            record = bench.traced(import_s)
        else:
            record = bench.timed(import_s, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(environment(args.seed))
    report(record, args)
    return 0


# ---------------------------------------------------------------------------
# the runs


class Bench:
    """Set-up, CLI commands and query batches of one workload and seed."""

    def __init__(self, name, seed, workdir):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.g = None
        self.attempted = 0
        self.failed = 0
        self.failures = []

    # -- operations

    def measure(self, fn):
        """Return ``fn()`` and its wall seconds, from a collected heap."""
        gc.collect()
        t = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - t

    def repeat(self, op, seconds, count=REPEATS):
        """Wall times of ``op`` run until it has ``count`` samples or has
        used ``seconds``, at least once."""
        times = []
        while not times or (len(times) < count and sum(times) < seconds):
            times.append(op())
        return times

    def set_up(self, fresh_import=False):
        """Generate the input, write the document, load it and choose the
        smoothing parameters; return the wall seconds.  With
        ``fresh_import``, plsmooth's modules are dropped first and imported
        again inside the timing (numpy and scipy stay imported)."""
        def build():
            if fresh_import:
                for mod in [m for m in sys.modules
                            if m.split(".")[0] == "plsmooth"]:
                    del sys.modules[mod]
            import plsmooth.cli  # noqa: F401
            from plsmooth.mesh import load_complex
            from plsmooth.pipeline import choose_params
            self.wl = workloads.make(self.name, self.seed)
            self.doc = self.workdir / "map.json"
            self.doc.write_text(json.dumps(self.wl.document()))
            choose_params(load_complex(str(self.doc)))
        return self.measure(build)[1]

    def cli(self, argv, check):
        """Run one plsmooth command and check its output; return its wall
        seconds."""
        import plsmooth.cli

        def command():
            try:
                return plsmooth.cli.main([str(a) for a in argv]), None
            except Exception:  # a crash is a failed operation, not a stop
                return None, traceback.format_exc()
        self.attempted += 1
        (rc, err), wall = self.measure(command)
        if rc == 0:
            err = check()
        elif rc is not None:
            err = f"exit code {rc}"
        if err:
            self.fail(f"plsmooth {argv[0]}: {err}")
        return wall

    def smooth(self):
        """``plsmooth smooth``; the map it assembles becomes the query map,
        so the costliest step of the vertex workload runs once per sample."""
        import plsmooth.cli
        out = self.workdir / "smooth.json"
        assemble = plsmooth.cli.assemble
        built = []

        def keep(*args, **kw):
            built.append(assemble(*args, **kw))
            return built[-1]
        plsmooth.cli.assemble = keep
        try:
            wall = self.cli(["smooth", self.doc, "--lam", "1", "--out", out],
                            lambda: check_smooth(out))
        finally:
            plsmooth.cli.assemble = assemble
        self.g = built[-1] if built else None
        return wall

    def sweep(self):
        out = self.workdir / "sweep.csv"
        return self.cli(["sweep", self.doc, *SWEEP_ARGS, "--out", out],
                        lambda: check_sweep(out))

    def evaluate(self, samples, seconds, count=1):
        """``evaluate`` + ``derivative`` at the query points, repeated until
        it has ``count`` samples and has used ``seconds``; their rates go to
        ``samples``.  Returns the last values and derivatives."""
        X = self.wl.queries
        gc.collect()
        start = time.perf_counter()
        for k in itertools.count(1):
            t = time.perf_counter()
            Y = self.g.evaluate(X)
            J = self.g.derivative(X)
            now = time.perf_counter()
            samples["eval_pts_per_s"].append(len(X) / (now - t))
            if k >= count and now - start >= seconds:
                return Y, J

    def queries(self, samples, timed=True):
        """Evaluate and differentiate at the query points, then invert their
        images; check every point.  Timed, evaluation tops the samples up to
        EVAL_MIN_S and inversion repeats for INVERSE_MIN_S; otherwise
        evaluation runs three times and inversion once, so that traced
        counts repeat."""
        X = self.wl.queries
        n = len(X)
        self.attempted += n
        if self.g is None:
            self.fail("query batch: no map, plsmooth smooth failed", count=n)
            return
        spent = sum(n / r for r in samples["eval_pts_per_s"])

        def invert():
            times = []
            while not times or (timed and sum(times) < INVERSE_MIN_S):
                t = time.perf_counter()
                Xr = self.g.inverse(Y)
                times.append(time.perf_counter() - t)
            return Xr, times
        try:
            if timed:
                Y, J = self.evaluate(samples,
                                     max(EVAL_BLOCK_S, EVAL_MIN_S - spent))
            else:
                Y, J = self.evaluate(samples, 0.0, count=3)
            (Xr, inv_times), _ = self.measure(invert)
        except Exception:
            self.fail(f"query batch: {traceback.format_exc()}", count=n)
            return
        samples["inverse_pts_per_s"] += [n / t for t in inv_times]
        tol = ROUNDTRIP_FACTOR * self.wl.coordinate_scale()
        with np.errstate(invalid="ignore"):
            det = np.linalg.det(J)
            err = np.linalg.norm(Xr - X, axis=1)
            bad = ~(np.isfinite(Y).all(axis=1) & (det > 0) & (err <= tol))
        if bad.any():
            k = int(np.argmax(bad))
            self.fail(f"{int(bad.sum())} query points fail: first {X[k]}, "
                      f"det Dg {det[k]:.3e}, round trip {err[k]:.3e} "
                      f"(limit {tol:.1e})", count=int(bad.sum()))

    def fail(self, message, count=1):
        self.failed += count
        self.failures.append(message)
        sys.stderr.write(f"perfbench: FAIL {message}\n")

    def once(self, samples):
        """One set-up, one of each command and one query batch."""
        samples["setup_s"].append(self.set_up())
        samples["smooth_s"].append(self.smooth())
        if self.name == "kuhn_sweep":
            samples["sweep_s"].append(self.sweep())
        self.queries(samples, timed=False)

    # -- timed run

    def timed(self, import_s, seconds):
        """Set-ups, then each command repeated (see ``repeat``) with an
        evaluation block after every sample, then the query batch on the map
        the last ``smooth`` built.  The evaluation samples so spread over
        the run instead of falling in one window of it."""
        samples = {k: [] for k in SAMPLE_KEYS}
        samples["setup_s"] = self.repeat(
            lambda: self.set_up(fresh_import=True), SETUP_BUDGET_S,
            SETUP_REPEATS)

        def then_evaluate(command):
            def op():
                wall = command()
                if self.g is not None:
                    try:
                        self.evaluate(samples, EVAL_BLOCK_S)
                    except Exception:
                        pass  # the query batch repeats it and reports it
                return wall
            return op
        samples["smooth_s"] = self.repeat(then_evaluate(self.smooth), seconds)
        if self.name == "kuhn_sweep":
            samples["sweep_s"] = self.repeat(then_evaluate(self.sweep),
                                             seconds)
        self.queries(samples)
        val = {k: statistics.median(v) if v else 0.0
               for k, v in samples.items()}
        metrics = {"setup_s": val["setup_s"],
                   "smooth_s": val["smooth_s"],
                   "cli_s": val["smooth_s"] + val["sweep_s"],
                   "eval_pts_per_s": val["eval_pts_per_s"],
                   "peak_rss_mb": peak_rss_mb()}
        samples["import_s"] = [import_s]
        val["import_s"] = import_s
        return self.record(metrics, END_TO_END, samples=samples,
                           informational={
                               k: {"value": val[k], "unit": u}
                               for k, u in INFORMATIONAL.items()
                               if samples[k]})

    # -- traced run

    def traced(self, import_s):
        """One untraced pass (``once``), then the same traced."""
        plain = {k: [] for k in SAMPLE_KEYS}
        self.once(plain)
        tracer, traced = self.trace_once()
        overhead = {k: statistics.median(traced[k]) - statistics.median(plain[k])
                    for k in SAMPLE_KEYS if plain[k] and traced[k]}
        metrics, units = layer_metrics(tracer)
        coverage = cli_coverage(tracer)
        if min(coverage, default=0.0) < MIN_CLI_COVERAGE:
            self.attempted += 1
            self.fail(f"library spans cover {min(coverage, default=0.0):.3f} "
                      f"of a CLI command, under {MIN_CLI_COVERAGE}")
        return self.record(metrics, units, tracing_overhead=overhead,
                           cli_coverage=coverage,
                           query_hits=query_hits(tracer,
                                                 len(self.wl.queries)),
                           spans=tracer.to_json(),
                           samples={"untraced": plain, "traced": traced},
                           import_s=import_s)

    def trace_once(self):
        """``once`` under tracing; returns the tracer and the samples."""
        import plsmooth
        tracer = Tracer(run_id=f"{self.name}-{self.seed}-{os.getpid()}")
        samples = {k: [] for k in SAMPLE_KEYS}
        tracer.install(plsmooth.__name__)
        try:
            with tracer.span("bench.once"):
                self.once(samples)
        finally:
            tracer.uninstall()
        return tracer, samples

    def record(self, metrics, units, **extra):
        return {"workload": self.name, "seed": self.seed,
                "shape": self.wl.shape(),
                "metrics": {k: {"value": metrics[k], "unit": u}
                            for k, u in units.items()},
                "attempted": self.attempted, "failed": self.failed,
                "failures": self.failures, **extra}


# ---------------------------------------------------------------------------
# correctness gates on the CLI outputs


def check_smooth(path):
    s = json.loads(Path(path).read_text())
    if not s["min_jacobian_det"] > 0:
        return f"min_jacobian_det {s['min_jacobian_det']} is not positive"
    if not (math.isfinite(s["volume_difference_set"])
            and s["volume_difference_set"] >= 0):
        return f"volume_difference_set {s['volume_difference_set']}"
    return None


def check_sweep(path):
    """Final W^{1,p} errors of g and of g^{-1} within the target; |E_lambda|
    strictly decreasing in lambda and |E_lambda| / lambda not increasing as
    lambda decreases."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        if line.startswith("#"):
            break
        rows.append(dict(zip(header, map(float, line.split(",")))))
    if len(rows) < 2:
        return f"sweep table has {len(rows)} rows"
    final = rows[-1]
    if not (final["w1p_f"] <= SWEEP_EPSILON
            and final["w1q_inv"] <= SWEEP_EPSILON):
        return (f"final w1p_f {final['w1p_f']:.3e} / w1q_inv "
                f"{final['w1q_inv']:.3e} above {SWEEP_EPSILON}")
    for a, b in zip(rows, rows[1:]):
        if not b["lambda"] < a["lambda"]:
            return "lambdas are not decreasing"
        if not b["vol_E"] < a["vol_E"]:
            return f"vol_E does not decrease at lambda {b['lambda']}"
        if not b["vol_E"] / b["lambda"] <= a["vol_E"] / a["lambda"]:
            return f"vol_E / lambda increases at lambda {b['lambda']}"
    for spec in SWEEP_ARGS[1::2]:
        if f"# rozumny {spec}" not in lines:
            return f"no rozumny table for {spec}"
    return None


# ---------------------------------------------------------------------------
# per-layer metrics from the trace


LAYER_TIMES = {
    "mesh.complex_validate_s": ["mesh.complex_validate"],
    "mesh.validate_pl_homeo_s": ["mesh.validate_pl_homeo"],
    "mesh.local_pictures_s": ["mesh.face_pairs", "mesh.edge_fans",
                              "mesh.vertex_stars"],
    "mesh.locate_s": ["mesh.locate"],
    "mesh.inverse_pl_s": ["mesh.inverse_pl"],
    "pipeline.choose_params_s": ["pipeline.choose_params"],
    "pipeline.assemble_s": ["pipeline.assemble"],
    "vertex.ball_build_s": ["vertex.ball_build"],
    "vertex.degree_s": ["vertex.degree"],
    "blend.face_build_s": ["blend.face_build"],
    "edge.edge_build_s": ["edge.edge_build"],
    "blend.face_eval_s": ["blend.face_eval"],
    "edge.edge_eval_s": ["edge.edge_eval"],
    "vertex.ball_eval_s": ["vertex.ball_eval"],
    "pipeline.evaluate_s": ["pipeline.evaluate"],
    "pipeline.derivative_s": ["pipeline.derivative"],
    "pipeline.inverse_s": ["pipeline.inverse"],
    "pipeline.volume_difference_set_s": ["pipeline.volume_difference_set"],
    "pipeline.difference_quadrature_s": ["pipeline.difference_quadrature"],
    "norms.linf_difference_s": ["norms.linf_difference"],
    "norms.rozumny_s": ["norms.rozumny_check"],
}
LAYER_POINTS = {
    "mesh.locate_points": "mesh.locate",
    "blend.face_points": "blend.face_eval",
    "edge.edge_points": "edge.edge_eval",
    "vertex.ball_points": "vertex.ball_eval",
    "pipeline.bulk_points": "pipeline.bulk",
}
LAYER_COUNTS = ("mesh.overlap_tests", "geometry.point_simplex_dists",
                "vertex.sphere_calls", "pipeline.powell_fallbacks",
                "pipeline.dq_nodes")


def layer_metrics(tracer):
    """Per-layer metrics and their units from one traced pass."""
    summ = tracer.summary()
    zero = {"s": 0.0, "self_s": 0.0, "points": 0, "spans": 0}
    metrics, units = {}, {}
    for key, names in LAYER_TIMES.items():
        metrics[key] = sum(summ.get(n, zero)["s"] for n in names)
        units[key] = "s"
    for key, name in LAYER_POINTS.items():
        metrics[key] = summ.get(name, zero)["points"]
        units[key] = "count"
    for key in LAYER_COUNTS:
        metrics[key] = tracer.counts.get(key, 0)
        units[key] = "count"
    calls = tracer.counts.get("vertex.sphere_calls", 0)
    metrics["vertex.sphere_points_per_call"] = (
        tracer.points.get("vertex.sphere_calls", 0) / calls if calls else 0.0)
    nodes = metrics["pipeline.dq_nodes"]
    metrics["pipeline.dq_active_ratio"] = (
        tracer.counts.get("pipeline.dq_active", 0) / nodes if nodes else 0.0)
    metrics["pipeline.inverse_evals"] = tracer.count_within(
        "pipeline.evaluate", "pipeline.inverse")
    units["pipeline.inverse_evals"] = "count"
    inverted = summ.get("pipeline.inverse", zero)["points"]
    metrics["pipeline.inverse_newton_ratio"] = (
        (inverted - metrics["pipeline.powell_fallbacks"]) / inverted
        if inverted else 0.0)
    metrics["pipeline.lambda_sweep_self_s"] = \
        summ.get("pipeline.lambda_sweep", zero)["self_s"]
    metrics["cli.self_s"] = summ.get("cli.main", zero)["self_s"]
    units.update({"vertex.sphere_points_per_call": "points/call",
                  "pipeline.dq_active_ratio": "fraction",
                  "pipeline.inverse_newton_ratio": "fraction",
                  "pipeline.lambda_sweep_self_s": "s",
                  "cli.self_s": "s"})
    return metrics, units


def cli_coverage(tracer):
    """Per CLI command: the share of its wall time (the span the benchmark
    opened around ``cli.main``) that the library spans under it cover."""
    dur = tracer.durations()
    out = []
    for i, s in enumerate(tracer.spans):
        if s[0] == "cli.main":
            covered = sum(dur[c] for c in tracer.children(i))
            out.append(float(covered / dur[i]))
    return out


def query_hits(tracer, n):
    """Which part of the map took the query points: the points each patch
    kind and the bulk received in the query batch's first ``evaluate``."""
    parts = {"blend.face_eval": "face", "edge.edge_eval": "edge",
             "vertex.ball_eval": "vertex", "pipeline.bulk": "bulk"}
    for i, s in enumerate(tracer.spans):
        if (s[0] == "pipeline.evaluate" and s[4] == n and s[3] >= 0
                and tracer.spans[s[3]][0] == "bench.once"):
            hits = dict.fromkeys(parts.values(), 0)
            for c in tracer.children(i):
                kind = parts.get(tracer.spans[c][0])
                if kind:
                    hits[kind] += tracer.spans[c][4]
            return hits
    return None


# ---------------------------------------------------------------------------
# environment and output


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed):
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "plsmooth").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"environment": {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                               "OPENBLAS_NUM_THREADS",
                                               "MKL_NUM_THREADS")}}}


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def report(record, args):
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                      f"{os.getpid()}.json")
    path.write_text(json.dumps(record))
    attempted, failed = record["attempted"], record["failed"]
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("# environment " + json.dumps(record["environment"]))
    print("# workload " + json.dumps(record["shape"]))
    for key, m in record["metrics"].items():
        print(f"{key} {m['value']!r} {m['unit']}")
    for key, m in record.get("informational", {}).items():
        print(f"{key} {m['value']!r} {m['unit']} (not bounded)")
    print(f"error_rate {failed / attempted!r} fraction "
          f"({failed} failed of {attempted} attempted)")
    if "tracing_overhead" in record:
        print("# tracing overhead, traced minus untraced: "
              + json.dumps(record["tracing_overhead"]))
        print("# cli span coverage: " + json.dumps(record["cli_coverage"]))
        print("# query points per part of the map: "
              + json.dumps(record["query_hits"]))
    print(f"# record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": record["metrics"]}))


if __name__ == "__main__":
    sys.exit(main())

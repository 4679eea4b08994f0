"""rcasr benchmark: four seeded workloads through the ``rcasr`` entry points.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` measures the end-to-end metrics
untraced, with times rescaled to a reference speed by the speed probe
(``speed.py``); ``--trace 1`` wraps rcasr's public functions and reports the
per-layer metrics instead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md in
this directory for the workloads, metrics and how to compare two commits.
"""

import os
import sys

# set before numpy is imported anywhere, so BLAS starts single-threaded
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# BENCHMARK.json gates train-toy and decode-paper; train-paper and ingest-wav
# run on request (README.md says why)
WORKLOAD_NAMES = ("train-toy", "train-paper", "decode-paper", "ingest-wav")
# set-up repeats through a run (see SetupTimes); their median is setup_s
SETUP_REPEATS = 9
SETUP_SHARE = 0.1

# self-time shares predicted from one-shot timings before the benchmark (2 cores,
# single-threaded BLAS); "mostly"/"flat" where it gave no number
PREDICTED_SHARES = {
    "train-toy": {"ctc": "mostly", "numerics": "mostly", "evaluate": "mostly",
                  "trainer": "mostly", "lm": "flat", "features": "flat"},
    "train-paper": {"network": 0.97, "ctc": 0.01, "numerics": 0.01, "lm": "flat",
                    "features": "flat"},
    "decode-paper": {"ctc": 0.72, "network": 0.24, "lm": 0.035, "features": 0.01,
                     "numerics": "flat", "trainer": "flat", "corpus": "flat"},
    "ingest-wav": {"features": "mostly", "corpus": "mostly", "ctc": "flat",
                   "network": "flat", "lm": "flat", "evaluate": "flat"},
}


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def git_sha():
    """HEAD of the checkout, or None where it is not a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest():
    """Digest of the rcasr sources, which names the code even where .git is absent."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "rcasr")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


@dataclass
class Result:
    """A checked round; its outputs are dropped, so memory does not grow with rounds."""

    audio_s: float
    wall_s: float
    ref_s: object           # wall_s at reference speed; None where not probed
    quality: dict
    traced: object          # None for the warm-up round of a traced run


def run_rounds(wl, st, seconds, failures, tracer=None, between=None, probe=None):
    """Closed loop: start rounds until `seconds` of round time have passed.

    Each round is checked right after it, outside its timing and untraced;
    then ``between(round_time_so_far)`` runs, also outside the timing.
    With a speed probe, every round runs under it.
    With a tracer, a first untraced warm-up round is followed by rounds that
    alternate traced and untraced, so both halves see the same machine.
    Returns ``(results, attempted)``.
    """
    from workloads import CheckFailed

    results, timed, k, attempted = [], 0.0, 0, 0
    while timed < seconds or (tracer is not None and k < 3):
        traced = None if tracer is not None and k == 0 else (tracer is not None and k % 2 == 1)
        attempted += st.utts_per_round
        with tracer if traced else (probe or contextlib.nullcontext()):
            t0 = time.perf_counter()
            try:
                rnd = wl.run(st, k)
            except Exception as exc:              # noqa: BLE001 - count, keep measuring
                failures.append((st.utts_per_round, f"round {k} raised: {exc!r}"))
                rnd = None
            wall = time.perf_counter() - t0
        timed += wall
        k += 1
        if rnd is not None:
            try:
                quality = wl.check(st, rnd)
            except CheckFailed as exc:
                failures.append((st.utts_per_round, f"round {k - 1} check failed: {exc}"))
            else:
                skipped = wl.skipped(st)
                if skipped:
                    failures.append((skipped, f"round {k - 1}: {skipped} utterances skipped"))
                ref = probe.reference_s(wall) if probe is not None else None
                results.append(Result(rnd.audio_s, wall, ref, quality, traced))
        if between is not None:
            between(timed)
    return results, attempted


class SetupTimes:
    """Set-up repeated through the run; the median of its times is ``setup_s``.

    The first set-up feeds the rounds.  The repeats run between rounds, each
    timed under the speed probe and then deleted, so set-up is timed across
    the same stretch of the run as the rounds, not in one burst before them.
    After round time `timed` of `seconds`, repeats run until there are
    SETUP_REPEATS * timed / seconds of them and their wall time is
    SETUP_SHARE of `timed`, whichever is more.
    """

    def __init__(self, wl, work, seed, seconds, probe):
        self.wl, self.work, self.seed, self.seconds = wl, work, seed, seconds
        self.probe = probe
        self.walls, self.times = [], []

    def setup(self):
        root = os.path.join(self.work, f"setup{len(self.times)}")
        with self.probe:
            t0 = time.perf_counter()
            st = self.wl.setup(root, self.seed)
            wall = time.perf_counter() - t0
        self.walls.append(wall)
        self.times.append(self.probe.reference_s(wall))
        return st

    def between(self, timed):
        while (len(self.times) < SETUP_REPEATS * min(timed / self.seconds, 1.0)
               or sum(self.walls) < SETUP_SHARE * timed):
            shutil.rmtree(self.setup().root)


def run_workload(args):
    if not os.path.isfile(os.path.join(SRC, "rcasr", "__init__.py")):
        print(f"error: no rcasr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import rcasr

    if not os.path.abspath(rcasr.__file__).startswith(SRC + os.sep):
        print(f"error: imported rcasr from {rcasr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import generators
    import speed
    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    failures = []
    try:
        if args.trace:
            setup_tracer = tracing.Tracer(extra_modules=[generators])
            with setup_tracer:
                t0 = time.perf_counter()
                st = wl.setup(os.path.join(work, "setup"), args.seed)
                setup_wall = time.perf_counter() - t0
            tracer = tracing.Tracer()
            results, attempted = run_rounds(wl, st, args.seconds, failures, tracer)
            if not all(any(r.traced is t for r in results) for t in (False, True)):
                return no_result(failures)
            metrics, detail = layer_metrics(args.workload, tracer, setup_tracer, setup_wall,
                                            results, st)
        else:
            probe = speed.SpeedProbe()
            setups = SetupTimes(wl, work, args.seed, args.seconds, probe)
            st = setups.setup()
            results, attempted = run_rounds(wl, st, args.seconds, failures,
                                            between=setups.between, probe=probe)
            if not results:
                return no_result(failures)
            rate = statistics.median(r.audio_s / r.ref_s for r in results)
            metrics = {
                "setup_s": (statistics.median(setups.times), "s"),
                "audio_s_per_s": (rate, "s/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            detail = {
                "setup_s_each": [round(t, 4) for t in setups.times],
                "setup_wall_s_each": [round(t, 4) for t in setups.walls],
                "wall_audio_s_per_s": statistics.median(r.audio_s / r.wall_s for r in results),
                "round_wall_over_reference": [round(r.wall_s / r.ref_s, 3) for r in results],
                "named_rates": named_rates(args.workload, rate, results),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    failed = sum(n for n, _ in failures)
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(results), "round_wall_s": [round(r.wall_s, 4) for r in results],
        "fail_frac": failed / attempted if attempted else None, "fail_base": attempted,
        "failures": [m for _, m in failures],
        "env": environment(),
    })
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


def no_result(failures):
    """Every round failed, so there is nothing to measure: report and exit non-zero."""
    for _, message in failures:
        print(f"error: {message}", file=sys.stderr)
    return 1


def named_rates(workload, rate, results):
    """The rate and quality figures under their per-workload names."""
    quality = {name: statistics.median(r.quality[name] for r in results)
               for name in results[0].quality}
    if workload.startswith("train"):
        return {"train_frames_per_s": rate / 0.01, **quality}
    if workload == "decode-paper":
        return {"decode_audio_s_per_s": rate, **quality}
    return {"ingest_audio_s_per_s": rate}


def layer_metrics(workload, tracer, setup_tracer, setup_wall, results, st):
    """Per-layer metrics of one traced run, plus the share table for the detail line."""
    import tracing  # importable once run_workload has checked the rcasr sources

    traced = [(r.audio_s, r.wall_s) for r in results if r.traced is True]
    plain = [(r.audio_s, r.wall_s) for r in results if r.traced is False]
    traced_wall = sum(w for _, w in traced)
    n = len(traced)
    fn = tracer.function_stats(n)
    counts = tracer.counts
    out = {}
    for name, stats in fn.items():
        out.update({f"{name}.{field}": v for field, v in stats.items()})
    forwards = counts["network.training_forwards"]
    for kind in tracing.KINDS:
        for phase in ("forward", "backward"):
            out[f"network.{kind}.{phase}_s"] = tracer.self_s.get(f"network.{kind}.{phase}", 0.0) / n
        out[f"network.{kind}.saved_bytes"] = (
            counts[f"network.{kind}.saved_bytes"] / forwards if forwards else 0)
    out["network.conv2d.flops"] = counts["network.conv2d.flops"] / n
    out["network.conv2d.bytes"] = counts["network.conv2d.bytes"] / n
    scored = counts["ctc.beam_decode.extensions"]
    out["ctc.beam_decode.extensions"] = scored / n
    out["ctc.beam_decode.kept_ratio"] = counts["ctc.beam_decode.kept"] / scored if scored else 0.0
    loaded = counts["corpus.loaded"]
    out["corpus.infeasible_frac"] = counts["corpus.infeasible"] / loaded if loaded else 0.0
    trained = len(tracer.durations.get("network.backward", ()))
    out["trainer.trained_ratio"] = (
        trained / (st.utts_per_round * n) if tracer.durations.get("trainer.train") else 0.0)

    mod_s = tracer.module_self_s()
    setup_s = setup_tracer.module_self_s()
    shares = {}
    for m in tracing.MODULES:
        out[f"{m}.share"] = mod_s[m] / traced_wall
        out[f"setup.{m}.share"] = setup_s[m] / setup_wall
        shares[m] = {"measured": round(out[f"{m}.share"], 4),
                     "predicted": PREDICTED_SHARES[workload].get(m, "-")}
    shares["outside_rcasr"] = {"measured": round(1 - sum(mod_s.values()) / traced_wall, 4)}
    traced_cost = traced_wall / sum(a for a, _ in traced)
    plain_cost = sum(w for _, w in plain) / sum(a for a, _ in plain)
    out["trace_overhead"] = traced_cost / plain_cost
    metrics = {name: (out[name], unit) for name, unit in tracing.per_layer_metrics()}
    detail = {"shares_measured_vs_predicted": shares,
              "percentile_of_ms_top": {name: s["top_percentile"] for name, s in fn.items()},
              "setup_only_calls": {name: len(setup_tracer.durations.get(name, ()))
                                   for name in tracing.SETUP_ONLY}}
    return metrics, detail


def run_all(args):
    """Each workload in its own process, one after another."""
    ok = True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        ok = ok and bool(result) and result["correct"]
        print(json.dumps({"workload": name, "result": result}))
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""Run one gorquad benchmark workload and print its metrics.

    python3 perfbench/run.py --workload census-gf2-r6 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seconds 20 [--trace 1]

Run from the root of a checkout: gorquad is imported from its `src/` and
from nowhere else.  With `--trace 0` the run measures the end-to-end
metrics with no spans; with `--trace 1` it runs a fixed amount of work
once untraced and once under spans, and reports the per-layer split.
Human-readable rows come first; the last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up is timed in this process and in this many more fresh interpreters.
SETUP_PROBES = 8


def import_package() -> None:
    """Import gorquad from this checkout's src/ only."""
    sys.path.insert(0, str(SRC))
    try:
        import gorquad
    except ImportError as exc:
        raise SystemExit(f"cannot import gorquad from {SRC}: {exc}")
    if Path(gorquad.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"gorquad was imported from {gorquad.__file__}, "
                         f"not from {SRC}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload on the default seed and on seed 2")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.all and args.workload is None:
        ap.error("--workload is required unless --all is given")
    return ap, args


def probe_setup(args) -> tuple:
    """Set-up time of the workload in a fresh interpreter, by the wall
    clock and at the reference speed."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return probe["wall_s"], probe["setup_s"]


def run_one(ap, args) -> int:
    from reference import ReferenceClock
    with ReferenceClock().lap() as setup:
        import_package()
        from workloads import WORKLOADS, per_layer_metrics
        wl = WORKLOADS.get(args.workload)
        if wl is None:
            ap.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
        inputs = wl.setup(args.seed)
    from spans import Tracer, tail
    if args.setup_probe:
        print(json.dumps({"wall_s": setup.wall, "setup_s": setup.scaled}))
        return 0
    probes = [(setup.wall, setup.scaled)]
    probes += [probe_setup(args) for _ in range(SETUP_PROBES)]
    walls = [wall for wall, _ in probes]
    samples = [scaled for _, scaled in probes]

    if args.trace:
        tr = Tracer()
        out = wl.traced(inputs, args.seconds, args.seed, tr)
        metrics = per_layer_metrics(tr, samples, out)
    else:
        out = wl.measure(inputs, args.seconds, args.seed)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": (median(samples), "s"),
            "ops_per_s": out.metrics["ops_per_s"],
            "peak_rss_mb": (rss_mb, "MB"),
        }
        out.report = [
            ("setup_s", median(samples), "s",
             f"median of {len(samples)} set-ups at the reference speed, "
             f"max {tail(samples):.4f} s; wall clock median "
             f"{median(walls):.4f} s"),
            *out.report,
            ("peak_rss_mb", rss_mb, "MB", "ru_maxrss of this process"),
        ]
    out.report.append(("failed_share", out.failed_share, "ratio",
                       f"{out.failed} of {out.attempted} operations"))

    print(f"# {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"{args.seconds:g} s")
    for name, value, unit, note in out.report:
        print(f"  {name:<14} {value:>12.4f} {unit:<5} {note}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6f}"
            print(f"  {name:<48} {shown} {unit}")
    for problem in out.problems:
        print(f"  CHECK FAILED: {problem}")
    correct = out.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload on every seed, each in its own process so that peak
    RSS is per workload; ends with one summary row per run."""
    import_package()
    from workloads import DEFAULT_SEED, WORKLOADS

    rows = []
    for seed in (DEFAULT_SEED, 2):
        for name in WORKLOADS:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(lines[-1] if lines else "  (no output)")
                result = {"correct": False}
            rows.append((name, seed, done.returncode, result))
    print("# summary")
    ok = True
    for name, seed, code, result in rows:
        ok = ok and code == 0 and result["correct"]
        shown = "  ".join(f"{k}={v['value']:.4f} {v['unit']}"
                         for k, v in result.get("metrics", {}).items()
                         if not args.trace or "." not in k)
        print(f"  {name:<24} seed {seed}  correct={result['correct']}  "
              f"failed={result.get('failed')}/{result.get('attempted')}  {shown}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap, args = parse_args(argv)
    return run_all(args) if args.all else run_one(ap, args)


if __name__ == "__main__":
    sys.exit(main())

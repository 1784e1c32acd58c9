"""Run one benchmark workload, or all of them, and print its metrics.

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each run generates its corpus from --seed, repeats the workload's
stages for --seconds, checks every iteration's outputs, and prints a
table, a REPORT line with the full record, and as its last line the
result JSON. --trace 1 alternates plain and traced iterations and
reports per-layer metrics instead of the end-to-end ones. The exit code
is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"

# Bounded by BENCHMARK.json: reported on every workload by --trace 0.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("curate_files_per_s", "files/s"),
              ("peak_rss_mb", "MB"))
PACKAGE_MODULES = ("relicforge.cobol", "relicforge.analysis", "relicforge.corpus",
                   "relicforge.model", "relicforge.transpile", "relicforge.evaluate",
                   "relicforge.datagen")
SETUP_REPEATS = 11
SETUP_PROBES = 40  # before and after each set-up sample
MIN_ITERATIONS = 3


def _import_package():
    """Put this checkout's sources first on the path; fail without them."""
    if not (SRC / "relicforge" / "__init__.py").is_file():
        sys.exit(f"perfbench: no relicforge sources under {SRC}")
    sys.path[0] = str(ROOT)  # replaces this script's own directory
    sys.path.insert(1, str(SRC))
    import relicforge

    if Path(relicforge.__file__).resolve().parent != SRC / "relicforge":
        sys.exit(f"perfbench: imported relicforge from {relicforge.__file__}, not {SRC}")


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def fresh_import_s() -> tuple[float, float]:
    """(scaled, raw) seconds from process start to every package layer
    imported, scaled by probes taken just before and after."""
    from perfbench.speed import factor, probe_s

    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import {', '.join(PACKAGE_MODULES)}"
    probes = [probe_s() for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    raw = time.perf_counter() - start
    probes += [probe_s() for _ in range(SETUP_PROBES)]
    return raw * factor(probes), raw


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    from perfbench.workloads import (
        WORKLOADS,
        check_repair_rules,
        failed_share,
        generate,
        medians,
        run_iteration,
    )

    workload = WORKLOADS[name]
    setup = [] if trace else [fresh_import_s() for _ in range(SETUP_REPEATS)]

    # Generation runs in a forked child, so that the memory it takes, for
    # example a candidate program that prints 100k lines before the step
    # limit stops it, does not count toward this process's peak_rss_mb.
    start = time.perf_counter()
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        corpus = pool.submit(generate, name, work / "corpus", seed).result()
    gen_s = time.perf_counter() - start
    wrong_rules = check_repair_rules(corpus)

    iterations = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        traced = trace and len(iterations) % 2 == 1
        out = work / f"out{len(iterations)}"
        it = run_iteration(workload, corpus, seed, out, traced)
        iterations.append(it)
        if it.raised:
            break
        now = time.perf_counter()
        if len(iterations) >= MIN_ITERATIONS and now - start + (now - began) > seconds:
            break

    problems = [f"repair fired unexpected rules on {len(wrong_rules)} files"] if wrong_rules else []
    reference = iterations[0].digests
    for k, it in enumerate(iterations):
        problems += [f"iteration {k}: {p}" for p in it.problems]
        kind = "traced" if it.traced else "plain"
        for artifact in sorted(set(reference) | set(it.digests)):
            if it.digests.get(artifact) != reference.get(artifact):
                problems.append(f"iteration {k} ({kind}): {artifact} differs from iteration 0")

    attempted, failed, share = failed_share(iterations, len(corpus.intended), wrong_rules)
    plain = [it for it in iterations if not it.traced and not it.raised]
    traced_its = [it for it in iterations if it.traced and not it.raised]
    end_to_end = medians([it.metrics for it in plain]) if plain else {}
    if setup:
        end_to_end["setup_s"] = statistics.median(scaled for scaled, _ in setup)
    end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    end_to_end["failed_share"] = share

    per_layer = {}
    if traced_its and plain:
        per_layer = medians([it.per_layer for it in traced_its])
        plain_wall = statistics.median(it.wall_s for it in plain)
        traced_wall = statistics.median(it.wall_s for it in traced_its)
        per_layer["datagen.gen_s"] = gen_s
        per_layer["trace.overhead_s"] = traced_wall - plain_wall
        per_layer["trace.overhead_share"] = (traced_wall - plain_wall) / plain_wall

    return {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "machine": machine(),
        "corpus": corpus.sizes(),
        "iterations": {"plain": len(plain), "traced": len(traced_its)},
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "raw": {
            "setup_s": [raw for _, raw in setup],
            "stage_s": medians([it.raw_stage_s for it in plain]) if plain else {},
            "iterations": [
                {"stage_s": it.raw_stage_s, "scaled_stage_s": it.stage_s, "traced": it.traced}
                for it in iterations
            ],
        },
        # Medians are over iterations (or set-up repeats); the traced
        # percentiles are over the runs or files of one traced iteration.
        "percentile_samples": {
            "setup_s": len(setup),
            "end_to_end": len(plain),
            "per_layer": len(traced_its),
            **(traced_its[-1].samples if traced_its else {}),
        },
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
    }


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def print_report(rec: dict) -> None:
    from perfbench.layers import METRICS
    from perfbench.workloads import REPORT_METRICS

    print(f"workload {rec['workload']}  seed {rec['seed']}  "
          f"iterations {rec['iterations']['plain']} plain, {rec['iterations']['traced']} traced")
    print(f"  why: {rec['why']}")
    print(f"  corpus: {json.dumps(rec['corpus'])}")
    if rec["trace"]:
        for name, unit, better in METRICS:
            print(f"  {name:<46} {_fmt(rec['per_layer'].get(name)):>12} {unit:<14} "
                  f"{better} is better")
    else:
        for name, unit, better in REPORT_METRICS:
            print(f"  {name:<24} {_fmt(rec['end_to_end'].get(name)):>12} {unit:<8} "
                  f"{better} is better")
    for problem in rec["problems"]:
        print(f"  FAILED CHECK: {problem}")
    print("REPORT " + json.dumps(rec, sort_keys=True))


def result_line(rec: dict) -> dict:
    if rec["trace"]:
        from perfbench.layers import METRICS

        chosen = [(name, unit) for name, unit, _ in METRICS]
        values = rec["per_layer"]
    else:
        chosen = END_TO_END
        values = rec["end_to_end"]
    return {
        "correct": not rec["problems"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in chosen if name in values},
    }


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter."""
    from perfbench.workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    ok = all(r is not None and r["correct"] for r in results.values())
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_package()
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        rec = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made
    print_report(rec)
    result = result_line(rec)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""ffstat benchmark: end-to-end and per-layer cost of four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 bench/run.py --compare BASE.jsonl NEW.jsonl

Run from the root of a checkout.  One pass runs a workload's commands
one after another (a closed loop with one client), each in a fresh
Python process, as a user's shell would; passes repeat until the next
one would overrun ``--seconds``.  Every command's exit code and stdout
digest are checked against ``golden.json``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, medians
over the passes, with times scaled to a host-speed reference (REF_S).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead; the
wrappers that measure layers never run in an untraced process.  The
last stdout line is the JSON result; ``--out`` also appends the run's
record (environment, per-pass samples) to a JSON-lines result set,
which ``--compare`` reads.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

# OpenBLAS's default of one thread per core makes l_suite(5, 5, 8) spend
# 8.0-8.5 s CPU for 5.6-6.0 s wall on 2 vCPUs (single runs have ranged
# from 5.0 to 8.0 s wall); pinned, wall = CPU.  Every process the
# benchmark starts gets these.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
PROBES = 5  # import-only processes per run, for the setup_s median
# Nominal seconds of child.py's host-speed reference.  Times are reported
# at this reference speed: each process's measured seconds times REF_S
# over its own reference time.  The speed of a small shared VM drifts by
# up to 30 % over minutes, and the reference, taken in the same process
# just before and after the command, moves with it.
REF_S = 0.1
DEADLINE_S = 170.0  # a run must end within 180 s


class CommandFailed(Exception):
    pass


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def git_sha(root):
    """HEAD of a git checkout at ``root`` read from .git, else "unknown"."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env():
    env = dict(os.environ)
    env.pop("FFSTAT_CACHE_DIR", None)  # only the commands that ask get a cache
    env.update(PINNED_ENV)
    return env


def make_workdir(stem):
    """A fresh directory under the checkout's .bench_work/."""
    path = os.path.join(ROOT, ".bench_work", f"{stem}-{os.getpid()}")
    os.makedirs(path)
    return path


def remove_workdir(path):
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(path))
    except OSError:
        pass  # another run still uses it


class Runner:
    """Starts the child processes of one benchmark run inside ``workdir``."""

    def __init__(self, workdir, golden, deadline):
        self.workdir = workdir
        self.golden = golden
        self.deadline = deadline
        self.env = child_env()
        self._n = 0

    def _path(self, stem):
        self._n += 1
        return os.path.join(self.workdir, f"{stem}-{self._n}")

    def child(self, argv, trace=False):
        """(exit code, stdout bytes, report dict or None) of one process."""
        report_path = self._path("report") + ".json"
        cmd = [sys.executable, os.path.join(HERE, "child.py"), SRC, report_path,
               "1" if trace else "0", *argv]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env, cwd=self.workdir)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise CommandFailed(f"timed out: {' '.join(argv)}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-3:]
            print(f"# exit {proc.returncode}: {' '.join(argv)}: {' | '.join(tail)}",
                  file=sys.stderr)
        report = None
        if os.path.exists(report_path):
            report = load_json(report_path)
            os.unlink(report_path)
        return proc.returncode, out, report

    def probe(self):
        rc, _, report = self.child(["probe"])
        if rc != 0 or report is None:
            raise CommandFailed("cannot import ffstat from src/")
        return report

    def run_pass(self, commands, trace=False):
        """Run a workload's commands once; returns the pass record."""
        cache = self._path("cache")
        os.mkdir(cache)
        rec = {"wall_s": 0.0, "measured_wall_s": 0.0, "cpu_s": 0.0, "setup": [], "ref": [],
               "peak_rss_mb": 0.0,
               "attempted": 0, "failed": 0, "stdout_bytes": 0, "traces": [],
               "missing_targets": []}
        try:
            for template in commands:
                argv = [cache if a == workloads.CACHE else a for a in template]
                key = " ".join(template)
                rc, out, report = self.child(argv, trace)
                rec["attempted"] += 1
                digest = hashlib.sha256(out).hexdigest()
                if rc != 0 or report is None or digest != self.golden.get(key):
                    if rc == 0:
                        print(f"# digest mismatch: {key}", file=sys.stderr)
                    rec["failed"] += 1
                if report is None:
                    continue
                scale = REF_S / report["ref_s"]
                rec["wall_s"] += report["wall_s"] * scale
                rec["measured_wall_s"] += report["wall_s"]
                rec["cpu_s"] += report["cpu_s"] * scale
                rec["setup"].append(report["setup_s"] * scale)
                rec["ref"].append(report["ref_s"])
                rec["peak_rss_mb"] = max(rec["peak_rss_mb"], report["peak_rss_mb"])
                rec["stdout_bytes"] += len(out)
                if trace:
                    rec["traces"].append(report["trace"])
                    rec["missing_targets"] = report["missing_targets"]
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        return rec


def run_passes(runner, commands, seconds, trace):
    """Passes (untraced, or untraced/traced pairs) until ``seconds`` is spent."""
    start = time.monotonic()
    passes, durations = [], []
    while True:
        t0 = time.monotonic()
        group = [runner.run_pass(commands)]
        if trace:
            group.append(runner.run_pass(commands, trace=True))
        durations.append(time.monotonic() - t0)
        passes.extend(group)
        spent = time.monotonic() - start
        if spent + statistics.median(durations) > seconds:
            return passes


def end_to_end(passes, setup_samples, processes):
    """Medians over the passes; times at the reference speed (REF_S)."""
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        # per-process import time is a few tenths of a second; the median
        # over every process of the run, times the processes of one pass,
        # is the set-up a user pays for the workload
        "setup_s": statistics.median(setup_samples) * processes,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(passes):
    plain = [p for p in passes if not p["traces"]]
    traced = [p for p in passes if p["traces"]]
    layers = [tracer.layer_metrics(tracer.merge(p["traces"]), p["stdout_bytes"])
              for p in traced]
    out = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    out["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                               - statistics.median(p["wall_s"] for p in plain))
    return out


def tail_percentile(samples):
    """(share, value) of the highest percentile with 10 samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    return (n - 10) / n, sorted(samples)[n - 11]


def describe_wall(label, samples):
    tail = tail_percentile(samples)
    text = f"{label}: median {statistics.median(samples):.4f} s over {len(samples)} passes"
    if tail is None:
        return text + "; tail percentile needs >= 11 passes (see --compare)"
    return text + f"; p{100 * tail[0]:.0f} {tail[1]:.4f} s"


def run(args, bench):
    if not os.path.isfile(os.path.join(SRC, "ffstat", "cli.py")):
        print("no ffstat sources under src/: run from the root of a checkout",
              file=sys.stderr)
        return 2
    golden = load_json(os.path.join(HERE, "golden.json"))["digests"]
    commands = workloads.WORKLOADS[args.workload](args.seed)
    workdir = make_workdir("run")
    try:
        runner = Runner(workdir, golden, time.monotonic() + DEADLINE_S)
        probes = [runner.probe() for _ in range(PROBES)]
        passes = run_passes(runner, commands, args.seconds, args.trace)
    except CommandFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        remove_workdir(workdir)
    environment = dict(probes[0]["environment"], git_sha=git_sha(ROOT), env=PINNED_ENV)
    print("# environment: " + json.dumps(environment, sort_keys=True))
    if args.trace:
        values = per_layer(passes)
        specs = bench["per_layer"]
        missing = passes[-1]["missing_targets"]
        if missing:
            print("# not found, reported as 0: " + " ".join(missing))
    else:
        setup_samples = [p["setup_s"] * REF_S / p["ref_s"] for p in probes]
        setup_samples += [s for p in passes for s in p["setup"]]
        values = end_to_end(passes, setup_samples, len(commands))
        specs = bench["end_to_end"]
        ref_samples = [s for p in passes for s in p["ref"]]
        print(f"# host-speed reference: median {statistics.median(ref_samples):.4f} s "
              f"over {len(ref_samples)} commands (nominal {REF_S} s)")
        print("# " + describe_wall("measured wall time",
                                   [p["measured_wall_s"] for p in passes]))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                    for s in specs},
    }
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": environment,
                  "passes": [{k: v for k, v in p.items() if k != "traces"} for p in passes],
                  "result": result}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, new, bound, lower_is_better, base_seeds, new_seeds):
    """better / worse / unchanged / unresolved for one workload x metric.

    Runs are paired by seed.  A median that moved by more than the bound
    is a verdict only when at least nine tenths of the pairs moved the
    same way; otherwise the host drifted between the two sets and the
    verdict is unresolved.
    """
    sign = 1.0 if lower_is_better else -1.0
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    spread = max((bq3 - bq1) / bmed, (nq3 - nq1) / nmed)
    if spread > bound:
        if all(sign * (n - b) < 0 for n in new for b in base):
            return "better"
        return "unresolved"
    by_seed = dict(zip(base_seeds, base))
    pairs = [(by_seed[s], v) for s, v in zip(new_seeds, new) if s in by_seed]
    if not pairs:
        pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if sign * (nmed - bmed) > bound * bmed:
        return "worse" if losses >= 0.9 * len(pairs) else "unresolved"
    if sign * (bmed - nmed) > (bq3 - bq1) and wins >= 0.9 * len(pairs):
        return "better"
    return "unchanged"


def load_result_set(path):
    runs = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if not rec["trace"]:
                    runs.setdefault(rec["workload"], []).append(rec)
    return runs


def compare(base_path, new_path, bench):
    base, new = load_result_set(base_path), load_result_set(new_path)
    print("workload metric unit | base q1 median q3 | new q1 median q3 | bound verdict")
    for workload in sorted(set(base) & set(new)):
        b_runs, n_runs = base[workload], new[workload]
        for spec in bench["end_to_end"]:
            name = spec["name"]
            bv = [r["result"]["metrics"][name]["value"] for r in b_runs]
            nv = [r["result"]["metrics"][name]["value"] for r in n_runs]
            v = verdict(bv, nv, spec["bound"], spec["better"] == "lower",
                        [r["seed"] for r in b_runs], [r["seed"] for r in n_runs])
            b, n = quartiles(bv), quartiles(nv)
            print(f"{workload} {name} {spec['unit']} | "
                  + " ".join(f"{x:.4g}" for x in b) + " | "
                  + " ".join(f"{x:.4g}" for x in n) + f" | {spec['bound']} {v}")
        for label, runs in (("base", b_runs), ("new", n_runs)):
            walls = [p["wall_s"] for r in runs for p in r["passes"]]
            failed = sum(r["result"]["failed"] for r in runs)
            attempted = sum(r["result"]["attempted"] for r in runs)
            print(f"{workload} {label}: {describe_wall('wall_s', walls)}; "
                  f"fail_ratio {failed}/{attempted}; sha {runs[0]['environment']['git_sha']}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="append the run record to this JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = ap.parse_args(argv)
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.compare:
        return compare(*args.compare, bench)
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    return run(args, bench)


if __name__ == "__main__":
    sys.exit(main())

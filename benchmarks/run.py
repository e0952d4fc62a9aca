"""End-to-end and per-layer benchmark of the diracbvp CLI.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding `src/`).  The
benchmark drives the CLI as a user does: one fresh
`python -m diracbvp.cli <cmd> --config ... --out ... --workers 1` process
per command, closed loop, one command at a time.  It repeats the
workload's command cycle until S seconds have passed, then checks every
command's artifacts.

--trace 0 reports the end-to-end metrics, measured with no tracing.
--trace 1 alternates untraced cycles with cycles run through
`trace_cli.py`, which wraps each pipeline layer in a span, and reports the
per-layer metrics plus the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The line before it holds
the details: sample counts, `failed_frac`, per-command medians, the
artifact digest and the environment.  See benchmarks/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import trace_cli
import workloads

COMMAND_TIMEOUT_S = 150
HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")
WORK_ROOT = os.path.join(CHECKOUT, ".bench_work")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    """Command environment: the checkout's `src/`, BLAS at nproc threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


class Executed:
    """One finished command of a cycle."""

    def __init__(self, cmd, out_dir, wall_s, status, stderr, spans=None):
        self.cmd, self.out_dir, self.wall_s = cmd, out_dir, wall_s
        self.status, self.stderr, self.spans = status, stderr, spans
        self.problems = None

    def check(self):
        if self.status != 0:
            self.problems = ["exit status %s: %s"
                             % (self.status, self.stderr.strip()[-300:])]
        else:
            self.problems = checks.problems(self.cmd, self.out_dir)
        return not self.problems


def run_command(name, config, out_dir, env, spans_path=None):
    """Run `diracbvp <name>` to its exit; returns (wall_s, status, stderr)."""
    if spans_path is None:
        prefix = [sys.executable, "-m", "diracbvp.cli"]
    else:
        prefix = [sys.executable, os.path.join(HERE, "trace_cli.py"),
                  spans_path]
    argv = prefix + [name, "--config", config, "--out", out_dir,
                     "--workers", "1"]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, cwd=CHECKOUT,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=COMMAND_TIMEOUT_S)
        status, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        status, stderr = "timeout", "no exit within %d s" % COMMAND_TIMEOUT_S
    return time.perf_counter() - start, status, stderr


def run_cycle(commands, cycle_dir, env, traced=False):
    """Run every command of the workload once, in order."""
    done = []
    for i, cmd in enumerate(commands):
        out_dir = os.path.join(cycle_dir, "%02d" % i)
        spans = os.path.join(cycle_dir, "%02d.spans.json" % i) if traced \
            else None
        wall, status, stderr = run_command(cmd.name, cmd.config, out_dir,
                                           env, spans)
        done.append(Executed(cmd, out_dir, wall, status, stderr, spans))
    return done


def setup(workload, seed, work, env):
    """Generate the seeded inputs and run one untimed warm-up command."""
    start = time.perf_counter()
    inputs = tempfile.mkdtemp(prefix="inputs-", dir=work)
    commands = workloads.make_inputs(workload, seed, inputs)
    warm = os.path.join(inputs, "warmup.ini")
    with open(warm, "w", encoding="utf-8") as fh:
        fh.write("[bootstrap]\nn = 4\n")
    _, status, stderr = run_command("bootstrap", warm,
                                    os.path.join(inputs, "warmup"), env)
    if status != 0:
        raise RuntimeError("warm-up command exited with status %s: %s"
                           % (status, stderr.strip()[-300:]))
    return time.perf_counter() - start, commands


def artifact_digest(cycle):
    """SHA-256 over the cycle's artifacts and their paths; sizes in bytes."""
    digest, size = hashlib.sha256(), 0
    for i, done in enumerate(cycle):
        if not os.path.isdir(done.out_dir):
            continue  # the command failed before writing anything
        for name in sorted(os.listdir(done.out_dir)):
            with open(os.path.join(done.out_dir, name), "rb") as fh:
                data = fh.read()
            digest.update(("%02d/%s\0%d\0" % (i, name, len(data))).encode())
            digest.update(data)
            size += len(data)
    return digest.hexdigest(), size


def layer_metrics(cycle):
    """Per-layer totals of one traced cycle, summed over its commands."""
    totals = {name: [0, 0.0] for name in trace_cli.LAYERS}
    totals[trace_cli.ROOT] = [0, 0.0]
    import_s, models = 0.0, 0
    for done in cycle:
        with open(done.spans, encoding="utf-8") as fh:
            spans = json.load(fh)
        import_s += spans["import_s"]
        models += len(spans["models"])
        for name, (calls, self_s) in spans["layers"].items():
            totals[name][0] += calls
            totals[name][1] += self_s
    out = {}
    for name in trace_cli.LAYERS:
        out[name + ".calls"] = totals[name][0]
        out[name + ".self_s"] = totals[name][1]
    decompose_calls = totals["spectral.decompose"][0]
    out["cli.self_s"] = totals[trace_cli.ROOT][1]
    out["cli.import_s"] = import_s
    out["cli.artifact_bytes"] = artifact_digest(cycle)[1]
    out["scheme.iterations"] = sum(checks.iterations(d.cmd, d.out_dir)
                                   for d in cycle)
    out["spectral.decompose.calls_per_model"] = \
        decompose_calls / models if models else 0.0
    return out


def per_layer(timed, traced):
    """Medians over the traced cycles whose commands all passed."""
    per_cycle = [layer_metrics(c) for c in traced
                 if all(not d.problems for d in c)]
    if not per_cycle:
        return {}
    metrics = {name: statistics.median(m[name] for m in per_cycle)
               for name in per_cycle[0]}
    untraced_s = statistics.median(sum(d.wall_s for d in c) for c in timed)
    traced_s = statistics.median(sum(d.wall_s for d in c) for c in traced)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return metrics


def environment(env):
    info = {"nproc": nproc(),
            "blas_threads": {var: env[var] for var in THREAD_VARS},
            "python": platform.python_version(), "git_sha": None}
    try:
        import numpy
        import scipy
        info["numpy"], info["scipy"] = numpy.__version__, scipy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = "%s %s" % (blas.get("name"), blas.get("version"))
    except (ImportError, KeyError, TypeError) as exc:
        info["numpy_error"] = str(exc)
    git_dir = os.path.join(CHECKOUT, ".git")
    if os.path.isdir(git_dir):
        try:
            proc = subprocess.run(["git", "--git-dir", git_dir, "rev-parse",
                                   "HEAD"], capture_output=True, text=True)
            info["git_sha"] = proc.stdout.strip() or None
        except OSError:
            pass  # no git installed: the SHA stays unknown
    return info


def measure(args, work, env):
    seconds, commands = setup(args.workload, args.seed, work, env)
    setup_s = [seconds]

    timed, traced = [], []
    start, cycle_s = time.perf_counter(), 0.0
    # whole cycles keep the command mix fixed; the last one starts only if
    # at least half of it fits in the time left
    while not timed or time.perf_counter() - start + cycle_s / 2 \
            < args.seconds:
        begin = time.perf_counter()
        timed.append(run_cycle(commands, tempfile.mkdtemp(dir=work), env))
        if args.trace:
            traced.append(run_cycle(commands, tempfile.mkdtemp(dir=work),
                                    env, traced=True))
        # one more set-up per cycle: spread through the run, the set-up
        # samples see the same machine load as the commands
        setup_s.append(setup(args.workload, args.seed, work, env)[0])
        cycle_s = time.perf_counter() - begin
    peak_rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss \
        / 1024.0

    executed = [d for cycle in timed + traced for d in cycle]
    failed = [d for d in executed if not d.check()]
    digests = {artifact_digest(c)[0] for c in timed + traced}
    walls = [d.wall_s for cycle in timed for d in cycle]
    by_label = {}
    for cycle in timed:
        for d in cycle:
            by_label.setdefault(d.cmd.label, []).append(d.wall_s)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "failed_frac": len(failed) / len(executed),
        "samples": {"setup_s": len(setup_s), "cmd_p50_s": len(walls),
                    "points_per_s": len(walls), "peak_rss_mib": len(walls),
                    "cycles": len(timed), "traced_cycles": len(traced)},
        "per_command_p50_s": {k: statistics.median(v)
                              for k, v in by_label.items()},
        "artifact_sha256": artifact_digest(timed[0])[0],
        "artifacts_identical_across_cycles": len(digests) == 1,
        "errors": ["%s: %s" % (d.cmd.label, "; ".join(d.problems))
                   for d in failed[:5]],
        "environment": environment(env),
    }

    if args.trace:
        metrics = per_layer(timed, traced)
    else:
        metrics = {"setup_s": statistics.median(setup_s),
                   "cmd_p50_s": statistics.median(walls),
                   "points_per_s": sum(d.cmd.points for d in executed
                                       if not d.problems) / sum(walls),
                   "peak_rss_mib": peak_rss_mib}
    return details, executed, failed, metrics


UNITS = {"points_per_s": "1/s", "peak_rss_mib": "MiB",
         "cli.artifact_bytes": "B",
         "spectral.decompose.calls_per_model": "calls/model",
         "trace.overhead_frac": "fraction"}


def unit_of(name):
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "diracbvp", "cli.py")):
        print("error: no diracbvp sources under %s" % SRC, file=sys.stderr)
        return 2
    # on SIGTERM unwind through subprocess.run, which kills and reaps the
    # running command, and through the clean-up below
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed),
                            dir=WORK_ROOT)
    try:
        details, executed, failed, metrics = measure(args, work, child_env())
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": not failed, "attempted": len(executed),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

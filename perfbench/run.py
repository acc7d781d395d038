"""The residua benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload hb2-verify --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): hb2-verify, corpus-gen, kitt-routes, cli-qq.
The run draws its inputs from the recorded pool by `--seed`, sized by
`--seconds`, sets them up in a few rounds, and then runs every op once
per pass, in passes that fill `--seconds` (`--passes` fixes their
number instead).  Each pass is a child forked from the set-up process,
so every pass starts from the same state and none sees what an earlier
one cached.  Every output of every pass is checked against the digests
recorded in pool.json.

Times are scaled to a reference speed.  Other tenants of the shared VM
this was built on slow it down by up to 1.8x, in spells of seconds to
minutes, so raw wall times of the same code spread far past the bounds
in BENCHMARK.json.  A fixed pure-Python probe loop slows by about the
same factor, so the pass times it just before and just after every op.
An op's latency is the median over its runs of its wall seconds times
PROBE_REF_S / its probe seconds: about what it takes on the reference VM
when nothing else runs there.  The unscaled wall times and the median
probe are printed beside the metrics.

With `--trace 0` it reports the end-to-end metrics:
  setup_s      seconds from process start to the first timed op: the median
               start-up plus `import residua` of five fresh interpreters,
               plus the median round's input set-up
  sweep_s      the sum of the ops' (scaled) latencies: time to solution
               for the run's whole input set
  op_p50_ms    median op latency (nearest rank)
  op_tail_ms   the highest whole percentile with at least ten ops beyond it
  peak_rss_mb  peak resident set of a pass, or of its largest child for
               cli-qq
and prints `op_fail_ratio` (failed over attempted ops) beside them.

With `--trace 1` it first runs one untraced pass over the same inputs in
a child process, then installs the tracer (tracer.py), runs one probe op
through every layer (so no layer reads zero on any workload) and runs
one pass over the inputs traced; it reports the per-layer metrics, the
tracing overhead (traced minus untraced `sweep_s`), and compares the work
counts with those of the previous traced run of the same workload and
seed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `correct` is false when
any output disagrees with its check; `failed` counts those ops plus the
ops that raised or whose input degenerated (cli-qq draws with a = I).
"""

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

T0 = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
PROBE_LOOPS = 20000 # the probe loop's length: about 1.2 ms on the reference VM
PROBE_REF_S = 0.0012  # the probe's seconds on the reference VM when nothing else runs
DEADLINE_S = 170    # a pass still running this long after start is killed


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment() -> dict:
    cpu = "unknown"
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
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
    }


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n ops beyond it."""
    return max(50, math.floor(100 * (1 - 10 / n))) if n > 10 else 50


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def setup_rounds(wl):
    """Set up every round's inputs; returns (rounds, set-up seconds per
    round, check failures)."""
    rounds, seconds, bad = [], [], []
    for entries in wl.round_inputs:
        t0 = time.perf_counter()
        prepared, round_bad = wl.setup(entries)
        seconds.append(time.perf_counter() - t0)
        rounds.append(prepared)
        bad.extend(round_bad)
    return rounds, seconds, bad


def op_list(wl, rounds) -> list:
    """Every op of every round, in order, as (entry, prepared input, variant)."""
    return [(entry, inp, variant) for prepared in rounds for entry, inp in prepared
            for variant in wl.ops_of(entry)]


def probe_s() -> float:
    """Seconds a fixed pure-Python loop takes right now: the
    median of three runs."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOPS):
            x += i * i % 7
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def run_ops(wl, ops, tracer_out=None):
    """Run every op once.  Returns one [seconds, check failure,
    degenerate-input message, probe seconds] per op (seconds is None when
    the op raised; the probe is the mean of probe_s just before and just
    after the op) and the trace profiles child ops wrote into
    `tracer_out`."""
    results, profiles = [], []
    for i, (entry, inp, variant) in enumerate(ops):
        trace_to = None if tracer_out is None else tracer_out / f"op-{i}.json"
        before = probe_s()
        try:
            result = list(wl.run_op(entry, inp, variant, trace_to))
        except Exception:
            result = [None, f"{entry['family']} seed {entry['seed']} {variant}: "
                            "raised\n" + traceback.format_exc(limit=3), None]
        results.append(result + [(before + probe_s()) / 2])
        if trace_to is not None and trace_to.exists():
            profiles.append(json.loads(trace_to.read_text()))
            trace_to.unlink()
    return results, profiles


def forked_pass(wl, ops, timeout_s):
    """run_ops in a forked child, so that every pass starts from the same
    set-up state and nothing one pass caches is seen by the next.  Returns
    the results and the child's peak RSS in KiB (of its own children for a
    workload whose ops are subprocesses)."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            signal.alarm(max(1, int(timeout_s)))  # a stuck pass dies, and the run fails
            try:
                ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
            except (OSError, AttributeError):
                pass
            results, _ = run_ops(wl, ops)
            who = resource.RUSAGE_CHILDREN if wl.uses_children else resource.RUSAGE_SELF
            payload = {"results": results, "maxrss_kb": resource.getrusage(who).ru_maxrss}
            code = 0
        except BaseException:
            payload = {"error": traceback.format_exc()}
        try:
            with os.fdopen(write_fd, "w") as fh:
                fh.write(json.dumps(payload))
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    payload = json.loads(text) if text else {}
    if status != 0 or "results" not in payload:
        fail(f"a pass ended with wait status {status}:\n{payload.get('error', '')[-2000:]}")
    return payload["results"], payload["maxrss_kb"]


def run_passes(wl, ops, budget_s, passes=None):
    """Run every op once per pass; each pass is a fork of this process,
    and they run one at a time.  With `passes`, run that many.  Otherwise
    run the workload's `min_passes`, and more while the `budget_s` wall
    seconds still have room for one.  Returns each op's runs and the
    largest peak RSS of a pass, in KiB."""
    runs = [[] for _ in ops]
    t_start, last_s, peak_kb, k = time.perf_counter(), 0.0, 0, 0
    while k < (passes or math.inf):
        left_s = budget_s - (time.perf_counter() - t_start)
        if passes is None and k >= wl.min_passes and left_s < last_s:
            break
        t_pass = time.perf_counter()
        results, kb = forked_pass(wl, ops, DEADLINE_S - (time.perf_counter() - T0))
        last_s = time.perf_counter() - t_pass
        for op_runs, result in zip(runs, results):
            op_runs.append(result)
        peak_kb = max(peak_kb, kb)
        k += 1
    return runs, peak_kb


def gather(setup_s, setup_bad, runs) -> dict:
    """Combine each op's runs into the run's record.  The op's latency is
    the median over its runs of the run's wall seconds scaled by
    PROBE_REF_S / its probe seconds: the time it would have taken on a
    machine that runs the probe loop in PROBE_REF_S, which takes out the
    spells in which other tenants slow this machine down.  `wall` keeps
    the median unscaled wall seconds.  Every run counts as attempted."""
    rec = {"setup": setup_s, "latencies": [], "wall": [], "attempted": 0, "failed": 0,
           "check_failures": list(setup_bad), "degenerate": []}
    probes = []
    for op_runs in runs:
        timed = [(dt, probe) for dt, _bad, _deg, probe in op_runs if dt is not None]
        if timed:
            rec["latencies"].append(statistics.median(dt * PROBE_REF_S / probe
                                                      for dt, probe in timed))
            rec["wall"].append(statistics.median(dt for dt, _ in timed))
        probes.extend(probe for *_, probe in op_runs)
        for dt, bad, degenerate, _probe in op_runs:
            rec["attempted"] += 1
            if dt is None or bad is not None or degenerate is not None:
                rec["failed"] += 1
            if bad is not None and bad not in rec["check_failures"]:
                rec["check_failures"].append(bad)
            if degenerate is not None and degenerate not in rec["degenerate"]:
                rec["degenerate"].append(degenerate)
    rec["probe_median_s"] = statistics.median(probes)
    return rec


def import_seconds(env, repeats=5) -> float:
    """Median wall seconds for a fresh interpreter to start and import residua."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import residua"], env=env, check=True,
                       timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def end_to_end(rec, import_s, peak_rss_kb) -> dict:
    lat = sorted(rec["latencies"])
    q = tail_percentile(len(lat))
    return {
        "setup_s": {"value": import_s + statistics.median(rec["setup"]), "unit": "s"},
        "sweep_s": {"value": sum(lat), "unit": "s"},
        "op_p50_ms": {"value": 1000 * nearest_rank(lat, 50), "unit": "ms"},
        "op_tail_ms": {"value": 1000 * nearest_rank(lat, q), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_kb / 1024, "unit": "MB"},
    }, q


def untraced_sweep(args) -> float:
    """sweep_s of one untraced pass over the same inputs, run in a child."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--passes", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        fail(f"untraced comparison run failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]["sweep_s"]["value"]


def repeat_check(out_dir, args, metrics) -> list:
    """Compare this traced run's work counts with the previous traced run
    of the same workload, seed and size; returns the differing counts."""
    from tracer import work_counts

    path = out_dir / f"counts-{args.workload}-seed{args.seed}-{args.seconds}s.json"
    counts = work_counts(metrics)
    diffs = None
    if path.exists():
        before = json.loads(path.read_text())
        diffs = [f"{k}: {before.get(k)} -> {v}" for k, v in counts.items() if before.get(k) != v]
    path.write_text(json.dumps(counts, indent=1, sort_keys=True))
    return diffs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--passes", type=int,
                    help="run exactly this many passes instead of filling "
                         "--seconds; the inputs do not depend on it")
    args = ap.parse_args()
    if args.passes is not None and args.passes < 1:
        fail("--passes must be at least 1")

    if not (SRC / "residua" / "__init__.py").is_file():
        fail(f"no residua sources at {SRC}; run from a checkout of the repository")
    env = environment()
    sys.path.insert(0, str(SRC))
    import residua

    if Path(residua.__file__).resolve().parent != (SRC / "residua").resolve():
        fail(f"imported residua from {residua.__file__}, not from {SRC}")
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import OUT, WORKLOADS, child_env, layer_probe, load_pool

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](load_pool(), args.seed, args.seconds)
    print("env: " + json.dumps(env))
    print(f"workload {wl.name}: seed {args.seed}, {wl.units} units in "
          f"{len(wl.round_inputs)} rounds, {wl.n_ops} ops")

    if args.trace:
        from tracer import Tracer, layer_metrics, merge_profiles

        untraced_s = untraced_sweep(args)
        OUT.mkdir(exist_ok=True)
        children = None
        if wl.uses_children:
            children = OUT / f"trace-{args.workload}-children"
            children.mkdir(exist_ok=True)
        t0 = time.perf_counter()
        import residua.cli  # noqa: F401  (loaded before the tracer installs)

        cli_import_s = time.perf_counter() - t0
        tracer = Tracer()
        tracer.install()
        layer_probe(OUT)
        rounds, setup_s, setup_bad = setup_rounds(wl)
        ops = op_list(wl, rounds)
        results, child_profiles = run_ops(wl, ops, tracer_out=children)
        wl.teardown(rounds)
        rec = gather(setup_s, setup_bad, [[r] for r in results])
        profile = merge_profiles([tracer.profile()] + child_profiles)
        metrics = layer_metrics(profile, {
            "cli_import_s": cli_import_s + sum(p["import_s"] for p in child_profiles),
            "traced_sweep_s": sum(rec["latencies"]),
            "untraced_sweep_s": untraced_s,
        })
        tracer.dump_spans(OUT / f"trace-{args.workload}.spans")
        diffs = repeat_check(OUT, args, metrics)
        if diffs is None:
            print("repeat check: first traced run of this workload and seed")
        elif diffs:
            print("repeat check: work counts DIFFER from the previous traced run:")
            for line in diffs:
                print("  " + line)
        else:
            print("repeat check: work counts identical to the previous traced run")
    else:
        import_s = import_seconds(child_env())
        rounds, setup_s, setup_bad = setup_rounds(wl)
        try:
            runs, peak_kb = run_passes(wl, op_list(wl, rounds), args.seconds, args.passes)
        finally:
            wl.teardown(rounds)
        if not wl.uses_children:
            peak_kb = max(peak_kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        rec = gather(setup_s, setup_bad, runs)
        metrics, q = end_to_end(rec, import_s, peak_kb)
        n = len(rec["latencies"])
        print(f"op_tail_ms is p{q} of {n} timed ops ({n - math.ceil(q / 100 * n)} beyond it)")
        wall = sorted(rec["wall"])
        print(f"unscaled wall times: sweep {sum(wall):.6g} s, p50 "
              f"{1000 * nearest_rank(wall, 50):.6g} ms, p{q} {1000 * nearest_rank(wall, q):.6g} ms; "
              f"median probe {1000 * rec['probe_median_s']:.4g} ms "
              f"(reference {1000 * PROBE_REF_S:.4g} ms)")
        print(f"op_fail_ratio = {rec['failed']}/{rec['attempted']} = "
              f"{rec['failed'] / rec['attempted']:.4f} ratio")

    for line in rec["check_failures"]:
        print("CHECK FAILED: " + line)
    for line in rec["degenerate"]:
        print("DEGENERATE INPUT (failed op): " + line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not rec["check_failures"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()

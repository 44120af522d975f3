#!/usr/bin/env python3
"""roclk benchmark: build, run one workload, verify it, print one result line.

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 10 --trace 0

Run from the repository root.  The benchmark builds perfbench/ and the
library sources it links into .bench_build/, then runs the workload in
fresh processes of .bench_build/roclk_perfbench (see perfbench/README.md):

  --trace 0  one untraced run, six processes that only set up (setup_s is
             the median over them and the run), plus (serve_*) a
             fresh-process verifier of every served answer; prints the
             end-to-end metrics.
  --trace 1  an untraced and a traced run of half the time each, plus the
             ladder rungs, each in a fresh process; prints the per-layer
             metrics.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Metric names and units come from BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "roclk_perfbench")
WORKLOADS = ("mc_campaign", "serve_hot", "serve_cold")
DEFAULT_SEED = 1
CHILD_TIMEOUT_S = 150
# Set-up-only processes per end-to-end run, besides the run's own set-ups.
SETUP_PROCESSES = 6


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "expected_digests.json")) as f:
        expected = json.load(f)
    return spec, expected


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("the roclk sources are not beside perfbench/")
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", BUILD, "--target", "roclk_perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True, env=env)


def child(*args):
    """Runs one benchmark process; returns its JSON record."""
    proc = subprocess.run([BINARY, *map(str, args)], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(map(str, args[:3]))} exited with "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def git_sha():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


class Run:
    """One workload run: the record, its verification and its checks."""

    def __init__(self, workload, seed, seconds, workdir, trace, tag):
        self.workload = workload
        fingerprints = os.path.join(workdir, f"{tag}.fp")
        args = ["run", "--workload", workload, "--seed", seed,
                "--seconds", seconds, "--workdir", workdir,
                "--fingerprints", fingerprints]
        if trace:
            spans_dir = os.path.join(BUILD, "spans")
            os.makedirs(spans_dir, exist_ok=True)
            args += ["--trace", "--spans",
                     os.path.join(spans_dir, f"{workload}-{tag}.tsv")]
        self.record = child(*args)
        self.mismatches = 0
        self.problems = []
        if workload != "mc_campaign":
            verified = child("verify", "--workload", workload, "--seed", seed,
                             "--fingerprints", fingerprints)
            self.mismatches = verified["mismatches"]
            if verified["checked"] != self.record["scenarios_to_verify"]:
                self.problems.append("verifier read a short answer file")
            if not self.record["digest_complete"]:
                self.problems.append("digest prefix not fully answered")
            if self.record["latency_p99_beyond"] < 10:
                self.problems.append("fewer than 10 samples beyond p99")
        if self.mismatches:
            self.problems.append(f"{self.mismatches} answers differ from "
                                 "a fresh execute()")
        if self.record["failed"]:
            self.problems.append(f"{self.record['failed']} operations failed")

    @property
    def attempted(self):
        return self.record["attempted"]

    @property
    def failed(self):
        return self.record["failed"] + self.mismatches


def check_digest(run, seed, expected):
    if seed != expected["seed"]:
        return
    want = expected["digests"][run.workload]
    got = run.record["digest"]
    if got != want:
        run.problems.append(f"digest {got} != recorded {want}")


def summary_line(run, **extra):
    r = run.record
    keys = ("simd_backend", "hardware_concurrency", "threads", "seed",
            "digest", "wall_s", "latency_samples", "latency_p99_beyond",
            "throughput_by_group", "latency_p99_by_group_us",
            "attempted", "failed", "transport_failed", "refused",
            "disagreements", "diverged_iterations", "mismatched_lanes",
            "isolated_lanes", "setup_samples_s", "service_cache_hit_ratio",
            "service_accepted", "service_cache_hits", "service_simulations",
            "service_coalesced", "service_shed", "service_deadline_exceeded",
            "service_journal_appends", "service_journal_compactions",
            "service_journal_errors",
            "analysis_memo_hits", "analysis_memo_misses",
            "analysis_memo_entries", "traced_requests")
    info = {k: r[k] for k in keys if k in r}
    info["error_rate"] = run.failed / max(1, run.attempted)
    return json.dumps({"run": run.workload, **info, **extra})


def setup_figures(workload, seed, workdir):
    """setup_s of fresh processes that only set up, each in its own
    directory.  How fast one process sets up depends on where it lands on
    the host (the same process repeats its figure; the next one may not),
    so setup_s is the median over several processes."""
    figures = []
    for k in range(SETUP_PROCESSES):
        directory = os.path.join(workdir, f"setup-{k}")
        os.makedirs(directory)
        figures.append(child("setup", "--workload", workload, "--seed", seed,
                             "--workdir", directory)["setup_s"])
    return figures


def end_to_end(args, spec, expected, workdir):
    setup = setup_figures(args.workload, args.seed, workdir)
    run = Run(args.workload, args.seed, args.seconds, workdir, False, "run")
    check_digest(run, args.seed, expected)
    setup.append(run.record["setup_s"])
    print(summary_line(run, setup_process_s=setup))
    values = dict(run.record, setup_s=statistics.median(setup))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    return run.problems, run.attempted, run.failed, metrics


def per_layer(args, spec, expected, workdir):
    half = max(1.0, args.seconds / 2.0)
    base = Run(args.workload, args.seed, half, workdir, False, "base")
    traced = Run(args.workload, args.seed, half, workdir, True, "traced")
    for run in (base, traced):
        check_digest(run, args.seed, expected)
        print(summary_line(run))
    rungs = {name: child("rung", "--rung", name, "--seed", args.seed)
             for name in ("execute", "handle")}
    serve = args.workload != "mc_campaign"
    if serve:
        # The kernel layers, measured on one traced mc_campaign iteration.
        core_run = Run("mc_campaign", args.seed, 0, workdir, True, "core")
        traced.problems += core_run.problems
        core = core_run.record
        transport = traced.record
    else:
        core = traced.record
        transport = child("rung", "--rung", "session", "--seed", args.seed)
        rungs["session"] = transport
    for record in rungs.values():
        if record["failed"]:
            traced.problems.append(f"rung {record['rung']} failed")

    ex, ha = rungs["execute"], rungs["handle"]
    t = traced.record
    values = {
        "core.ensemble.clean_lane_cycles_per_s":
            core["core_ensemble_clean_lane_cycles_per_s"],
        "core.ensemble.faulted_lane_cycles_per_s":
            core["core_ensemble_faulted_lane_cycles_per_s"],
        "core.ensemble.isolated_lanes": core["isolated_lanes"],
        "core.loop.cycles_per_s": core["core_loop_cycles_per_s"],
        "common.thread_pool.speedup": core["common_thread_pool_speedup"],
        "service.execute.corner_us": ex["service_execute_corner_us"],
        "service.execute.grid_us": ex["service_execute_grid_us"],
        "service.execute.yield_us": ex["service_execute_yield_us"],
        "service.handle.hit_us": ha["service_handle_hit_us"],
        "service.handle.miss_overhead_us":
            ha["service_handle_miss_overhead_us"],
        "service.transport.request_us":
            transport["service_transport_request_us"],
        "service.session.serve_us": transport["service_session_serve_us"],
        "service.transport.response_us":
            transport["service_transport_response_us"],
        "service.client.self_us": transport["service_client_self_us"],
        "service.query_us": transport["service_query_us"],
        "service.cache.hit_ratio": t.get("service_cache_hit_ratio", 0),
        "service.simulations": t.get("service_simulations", 0),
        "service.coalesced": t.get("service_coalesced", 0),
        "service.shed": t.get("service_shed", 0),
        "service.journal.appends": t.get("service_journal_appends", 0),
        "service.journal.compactions": t.get("service_journal_compactions", 0),
        "service.journal.errors": t.get("service_journal_errors", 0),
        "analysis.memo.hit_ratio": t["analysis_memo_hit_ratio"],
        "analysis.memo.misses": t["analysis_memo_misses"],
        "analysis.memo.entries": t["analysis_memo_entries"],
        "error_rate": (base.failed + traced.failed) /
                      max(1, base.attempted + traced.attempted),
        # A traced request (serve) or iteration (mc) against the untraced
        # median of the same workload.
        "bench.trace_overhead_us":
            (t["service_query_us"] if serve else t["latency_p50_us"])
            - base.record["latency_p50_us"],
        "bench.latency_samples": base.record["latency_samples"],
    }
    if not serve and not t.get("serial_pass_identical", False):
        traced.problems.append("pool and serial passes differ")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer"]}
    return (base.problems + traced.problems,
            base.attempted + traced.attempted,
            base.failed + traced.failed, metrics)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workdir = os.path.join(BUILD, "work", f"{args.workload}-{os.getpid()}")
    try:
        spec, expected = load_spec()
        build()
        os.makedirs(workdir)
        print(json.dumps({"meta": {"git_sha": git_sha(),
                                   "workload": args.workload,
                                   "seed": args.seed,
                                   "seconds": args.seconds,
                                   "trace": args.trace}}))
        measure = per_layer if args.trace else end_to_end
        problems, attempted, failed, metrics = measure(args, spec, expected,
                                                       workdir)
    except (BenchError, OSError, KeyError, ValueError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        log(f"perfbench: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

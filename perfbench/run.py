"""solgrow benchmark: fixed CLI jobs on seeded catalog specs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-reference

Run from the root of a checkout; the program is ``src/solgrow`` of that
checkout (``PYTHONPATH=src``), so nothing needs installing.

Load model: a closed loop with one client. Each job is a fresh
``python -m solgrow.cli ...`` child process; the driver starts it, waits for
it with ``os.wait4`` and only then starts the next one. A pass runs every job
of the workload once. Passes repeat while another pass of the median pass
length still fits in ``--seconds``; there is always at least one.

Set-up writes the seeded specs (``specs.py``, a child process) and runs one
cold ``python -m solgrow.cli --help``; it is repeated ``SETUP_REPEATS`` times
and ``setup_s`` is the median.

With ``--trace 0`` every job runs untraced and the end-to-end metrics of
``BENCHMARK.json`` are reported, each the median over passes:

* ``wall_s``: summed wall time (``perf_counter`` around each child);
* ``cpu_s``: summed user+sys time from each child's rusage;
* ``peak_rss_mib``: the largest ``ru_maxrss`` among the pass's jobs;
* ``setup_s``: as above.

With ``--trace 1`` every job runs under ``tracer.py`` and the per-layer
metrics are reported (see ``summarize`` there): ``<layer>.<fn>.s`` is self
time summed over the pass, other suffixes are work counts or ratios.

Every job is checked: exit code and stdout / ``-o`` bytes against
``reference.json``, recorded at the commit that defined the benchmark; the
growth JSON ``digest`` field is checked against the ``spec_digest`` of the
spec actually written, since it is the only output that depends on the seed.

Output: one detail line (quartiles, sample counts, correctness digest,
per-job times), then the result line
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(HERE, os.pardir, "BENCHMARK.json")
REFERENCE_JSON = os.path.join(HERE, "reference.json")
WORK_DIR = ".bench_work"
SETUP_REPEATS = 5
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Job:
    """One CLI invocation; "@name" in args stands for the seeded spec file."""

    id: str
    args: tuple[str, ...]
    out: bool = False  # also pass -o <file> and check that file


WORKLOADS = {
    "finite-structure": [
        Job("analyze agl1(64)", ("analyze", "@agl1_64")),
        Job("analyze s4wrs2", ("analyze", "@s4wrs2")),
        Job("analyze s3wrs3", ("analyze", "@s3wrs3")),
        Job("mu s4wrs2 bruteforce", ("mu", "@s4wrs2", "--method", "bruteforce")),
        Job("certify s4wrs2", ("certify", "@s4wrs2")),
        Job("certify f2^3:c7", ("certify", "@f2_3_c7")),
        Job("certify f3^2:q8", ("certify", "@f3_2_q8")),
        Job("certify sl2(3)/center", ("certify", "@sl2_3", "--normal", "@sl2_3_center")),
    ],
    "growth-infinite": [
        Job("growth sanov r12", ("growth", "@sanov", "--radius", "12"), out=True),
        Job("growth lamplighter r20", ("growth", "@lamplighter", "--radius", "20")),
        Job("growth z2 r200 fit", ("growth", "@z2", "--radius", "200", "--fit"), out=True),
        Job(
            "growth heisenberg r24 fit",
            ("growth", "@heisenberg", "--radius", "24", "--fit"),
            out=True,
        ),
    ],
    "verify-cases": [Job("verify-cases", ("verify-cases",))],
}

# Summed wall time of one subcommand's jobs, reported on the detail line of
# the workloads that run it.
SUBCOMMAND_TIMES = {"analyze_s": "analyze", "mu_s": "mu"}


@dataclass
class JobRun:
    job: Job
    wall_s: float
    cpu_s: float
    rss_mib: float
    fingerprint: list
    ok: bool
    spans: dict | None = None


def spawn(argv: list[str], env: dict, stdout_path: str, stderr_path: str):
    """Run argv to completion; return (wall s, cpu s, peak RSS MiB, exit code)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    wall = time.perf_counter() - t0
    return (
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        os.waitstatus_to_exitcode(status),
    )


def sha256_file(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Bench:
    """Spec directory, child environment and job runner of one benchmark run."""

    def __init__(self, root: str, work: str, seed: int):
        self.seed = seed
        self.spec_dir = os.path.join(work, "specs")
        self.out_dir = os.path.join(work, "out")
        os.makedirs(self.out_dir)
        self.env = dict(os.environ)
        self.env.pop("SOLGROW_MAX_ELEMENTS", None)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.manifest: dict[str, str] = {}

    def _check_setup_step(self, what: str, rc: int, stderr_path: str) -> None:
        if rc != 0:
            with open(stderr_path, encoding="utf-8", errors="replace") as fh:
                raise RuntimeError(f"{what} exited with {rc}: {fh.read()[-2000:]}")

    def setup(self) -> float:
        """Write the seeded specs, then one cold CLI start; return seconds."""
        t0 = time.perf_counter()
        log = os.path.join(self.out_dir, "setup")
        argv = [sys.executable, os.path.join(HERE, "specs.py"),
                "--seed", str(self.seed), "--out", self.spec_dir]
        rc = spawn(argv, self.env, log + ".stdout", log + ".stderr")[3]
        self._check_setup_step("spec writer", rc, log + ".stderr")
        rc = spawn([sys.executable, "-m", "solgrow.cli", "--help"], self.env,
                   log + ".stdout", log + ".stderr")[3]
        self._check_setup_step("solgrow --help", rc, log + ".stderr")
        elapsed = time.perf_counter() - t0
        with open(os.path.join(self.spec_dir, "manifest.json"), encoding="utf-8") as fh:
            self.manifest = json.load(fh)
        return elapsed

    def run_job(self, job: Job, traced: bool, reference: dict | None) -> JobRun:
        stem = os.path.join(self.out_dir, "job")
        for suffix in (".stdout", ".stderr", ".out.json", ".spans.json"):
            if os.path.exists(stem + suffix):
                os.remove(stem + suffix)
        args = [os.path.join(self.spec_dir, a[1:] + ".json") if a.startswith("@") else a
                for a in job.args]
        if job.out:
            args += ["-o", stem + ".out.json"]
        if traced:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), stem + ".spans.json", "--"]
        else:
            argv = [sys.executable, "-m", "solgrow.cli"]
        wall, cpu, rss, rc = spawn(argv + args, self.env, stem + ".stdout", stem + ".stderr")
        fingerprint, ok = self.fingerprint(job, rc, stem)
        if reference is not None:
            ok = ok and reference.get(job.id) == fingerprint
        spans = None
        if traced and os.path.exists(stem + ".spans.json"):
            with open(stem + ".spans.json", encoding="utf-8") as fh:
                spans = json.load(fh)
        ok = ok and (spans is not None or not traced)
        return JobRun(job, wall, cpu, rss, fingerprint, ok, spans)

    def fingerprint(self, job: Job, rc: int, stem: str) -> tuple[list, bool]:
        """[exit code, stdout sha256, -o sha256] with the growth digest masked.

        The digest must equal the spec_digest of the spec file written for
        this job; the second value says whether it does.
        """
        ok = True
        out_hash = None
        if job.out:
            out_path = stem + ".out.json"
            try:
                with open(out_path, "rb") as fh:
                    raw = fh.read()
                digest = json.loads(raw).get("digest")
            except (OSError, ValueError):
                raw, digest = None, None
            if raw is not None and digest is not None:
                expected = self.manifest.get(job.args[1][1:])
                needle = f'"digest": "{digest}"'.encode()
                ok = digest == expected and raw.count(needle) == 1
                raw = raw.replace(needle, b'"digest": "<spec_digest>"')
            out_hash = None if raw is None else hashlib.sha256(raw).hexdigest()
        return [rc, sha256_file(stem + ".stdout"), out_hash], ok


def correctness_digest(fingerprints: dict[str, list]) -> str:
    """Digest of one pass's job fingerprints; equal for every seed."""
    return hashlib.sha256(json.dumps(fingerprints, sort_keys=True).encode()).hexdigest()


def summary(values: list[float]) -> dict:
    """Median, quartiles (statistics.quantiles, n=4) and sample count."""
    q1, q3 = (values[0], values[0]) if len(values) == 1 else statistics.quantiles(values, n=4)[::2]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values)}


def e2e_values(pass_runs: list[JobRun]) -> dict[str, float]:
    values = {
        "wall_s": sum(r.wall_s for r in pass_runs),
        "cpu_s": sum(r.cpu_s for r in pass_runs),
        "peak_rss_mib": max(r.rss_mib for r in pass_runs),
    }
    for name, subcommand in SUBCOMMAND_TIMES.items():
        times = [r.wall_s for r in pass_runs if r.job.args[0] == subcommand]
        if times:
            values[name] = sum(times)
    return values


def layer_value(s: dict, name: str) -> float:
    """One per-layer metric from a tracer.summarize() result.

    Names are "<span>.<field>": field "s" is self time, "calls" the span
    count, "peak_rss_mib" the largest RSS recorded at span end,
    "us_per_element" self time per counted element; any other field is a
    work count summed over spans. "trace.coverage" and "trace.overhead_s"
    describe the tracing itself.
    """
    if name == "trace.coverage":
        return s["coverage"]
    if name == "trace.overhead_s":
        return s["overhead_s"]
    span, _, field = name.rpartition(".")
    if field == "s":
        return s["self_s"].get(span, 0.0)
    if field == "calls":
        return s["calls"].get(span, 0)
    if field == "peak_rss_mib":
        return s["peak_rss_mib"].get(span, 0.0)
    if field == "us_per_element":
        elements = s["counts"].get(span, {}).get("elements", 0)
        return 1e6 * s["self_s"].get(span, 0.0) / elements if elements else 0.0
    return s["counts"].get(span, {}).get(field, 0)


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def measure(args, root: str, work: str) -> tuple[dict, dict]:
    spec = load_json(BENCHMARK_JSON)
    reference = load_json(REFERENCE_JSON)
    jobs = WORKLOADS[args.workload]
    traced = args.trace == 1
    bench = Bench(root, work, args.seed)
    setups = [bench.setup() for _ in range(1 if traced else SETUP_REPEATS)]

    passes: list[list[JobRun]] = []
    durations: list[float] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + statistics.median(durations) <= args.seconds:
        t0 = time.perf_counter()
        passes.append([bench.run_job(job, traced, reference) for job in jobs])
        durations.append(time.perf_counter() - t0)

    runs = [r for p in passes for r in p]
    failed = sum(not r.ok for r in runs)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "correctness_digest": correctness_digest({r.job.id: r.fingerprint for r in passes[0]}),
        "failed_jobs": sorted({r.job.id for r in runs if not r.ok}),
        "job_wall_s": {j.id: [r.wall_s for r in runs if r.job is j] for j in jobs},
    }
    if traced:
        per_pass = [tracer.summarize([r.spans for r in p if r.spans]) for p in passes]
        wanted = spec["per_layer"]
        samples = {m["name"]: [layer_value(s, m["name"]) for s in per_pass] for m in wanted}
    else:
        per_pass_e2e = [e2e_values(p) for p in passes]
        wanted = spec["end_to_end"]
        samples = {name: [v[name] for v in per_pass_e2e] for name in per_pass_e2e[0]}
        samples["setup_s"] = setups
    detail["summary"] = {name: summary(v) for name, v in samples.items()}
    metrics = {
        m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
        for m in wanted
    }
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }
    return detail, result


def record_reference(root: str, work: str) -> None:
    """Run every job once, untraced, and write reference.json."""
    bench = Bench(root, work, REFERENCE_SEED)
    bench.setup()
    reference = {}
    for jobs in WORKLOADS.values():
        for job in jobs:
            job_run = bench.run_job(job, traced=False, reference=None)
            if not job_run.ok or job_run.fingerprint[0] != 0:
                raise RuntimeError(f"job {job.id!r} failed: {job_run.fingerprint}")
            reference[job.id] = job_run.fingerprint
    with open(REFERENCE_JSON, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description="solgrow CLI benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="record reference.json from the current program")
    args = ap.parse_args()
    if not args.record_reference and args.workload is None:
        ap.error("--workload is required")

    # Turn SIGTERM into SystemExit so the running job is killed and reaped
    # (see spawn) and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "solgrow", "cli.py")):
        print("error: run from a solgrow checkout (src/solgrow/cli.py not found)",
              file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        if args.record_reference:
            record_reference(root, work)
            return 0
        detail, result = measure(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass  # another run still uses it
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

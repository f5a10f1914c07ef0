"""The catalog workload: ``repro serve`` under one closed-loop client.

Set-up builds the corpus (``corpus.py build``, its own process) and
starts ``repro serve`` with its defaults -- scheduler and access log on
-- in another process, until ``/health`` answers.  It is done
``SETUPS`` times and the last daemon is measured, so ``setup_s`` is a
median.  No HTTP request shares an interpreter with pipeline work, and
the daemon executes no job.

The measured schedule is fixed: one round per staged run dir, so every
run of the same code serves the same catalog, whatever its speed
(``--seconds`` does not change it).  A round drops one pre-built run
dir into the root, ``POST /scan``s, checks that ``/runs`` lists the new
id, then sends blocks of reads, each block one read per route in a
seeded order, one at a time.  After the last round a fixed set of
deterministic reads is digested with run ids replaced by aliases and
fingerprints, paths and wall-clock fields dropped.
"""

from __future__ import annotations

import http.client
import json
import random
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from urllib.parse import urlsplit

import common

SETUPS = 3
#: The schedule must end by then, or the run has no result: the whole
#: run must end inside 180 s.
SCHEDULE_LIMIT_S = 110.0
STARTUP_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0
REQUEST_TIMEOUT_S = 30.0

#: Response keys that are not outputs: code fingerprints, absolute
#: paths and file times differ between checkouts of the same code.
VOLATILE_KEYS = frozenset({
    "path", "origin", "code_fingerprint", "fingerprint", "recorded_at",
    "timings", "entry_id", "series_key", "extra", "rss_high_water_kib",
})


class RequestFailed(Exception):
    pass


def _default_sigint() -> None:
    # A shell starts background jobs with SIGINT ignored, and Python
    # then installs no KeyboardInterrupt handler: the daemon could not
    # shut down cleanly on SIGINT.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Daemon:
    """One ``repro serve`` process on a free port."""

    def __init__(self, root: Path, cwd: Path, env: dict, log: Path):
        self._log = log.open("w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli", "serve",
             "--root", str(root), "--port", "0"],
            cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=self._log,
            text=True, preexec_fn=_default_sigint,
        )
        self.host = self.port = None

    def wait_ready(self) -> None:
        """Read the bound address from the banner, then poll /health."""
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while self.port is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                raise common.BenchError("repro serve did not start")
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        remaining)
            if ready:
                line = self.proc.stdout.readline()
                if " on http://" in line:
                    url = urlsplit(line.split(" on ", 1)[1].split()[0])
                    self.host, self.port = url.hostname, url.port
        while True:
            try:
                status, _ = self.request("GET", "/health")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise common.BenchError(
                    "repro serve never answered /health"
                )
            time.sleep(0.01)

    def request(self, method: str, path: str, headers=None):
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            conn.request(method, path, headers=headers or {})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def peak_rss_mib(self) -> float:
        return common.proc_status_kib("VmHWM", str(self.proc.pid)) / 1024

    def stop(self) -> None:
        """SIGINT (the daemon's clean shutdown), then kill; always
        reaps the process."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Client:
    """The measuring client: every request is one operation."""

    def __init__(self, daemon: Daemon, spans: common.Spans):
        self.daemon = daemon
        self.spans = spans
        self.attempted = 0
        self.failed = 0
        self.latencies = {route: [] for route in common.ROUTES}

    def _send(self, method: str, path: str, span: str):
        """One request, in a span carrying the request id the daemon
        echoes into its access log."""
        self.attempted += 1
        request_id = f"perfbench-{self.attempted}"
        headers = {"X-Request-Id": request_id} if self.spans.enabled else {}
        try:
            with self.spans.span(span, path=path, request_id=request_id):
                status, body = self.daemon.request(method, path, headers)
        except OSError as error:
            self.failed += 1
            raise RequestFailed(f"{method} {path}: {error}") from None
        if not 200 <= status < 300:
            self.failed += 1
            raise RequestFailed(f"{method} {path}: HTTP {status}")
        return body

    def get(self, route: str, path: str, timed: bool = True) -> bytes:
        """One read; a transport error or non-2xx status is a failed
        operation and raises ``RequestFailed``."""
        started = time.perf_counter()
        body = self._send("GET", path, "api." + route)
        if timed:
            self.latencies[route].append(time.perf_counter() - started)
        return body

    def scan(self) -> float:
        started = time.perf_counter()
        self._send("POST", "/scan", "ingest.scan")
        return time.perf_counter() - started


def read_path(route: str, rng: random.Random, corpus: dict,
              known: list) -> str:
    """One read of ``route`` with seeded parameters over ``known`` ids."""
    if route == "runs":
        return rng.choice([
            "/runs", "/runs?limit=20",
            f"/runs?seed={corpus['seeds'][rng.choice(known)]}",
            f"/runs?experiment={rng.choice(corpus['inputs']['experiments'])}",
        ])
    if route == "run":
        return f"/runs/{rng.choice(known)}"
    if route == "fidelity":
        return f"/runs/{rng.choice(known)}/fidelity"
    if route == "compare":
        a, b = rng.sample(known, 2)
        return f"/compare?a={a}&b={b}"
    if route == "timeline":
        return rng.choice(["/timeline", "/timeline?source=run",
                           "/timeline?source=bench", "/timeline?limit=20"])
    if route == "dashboard":
        return rng.choice(["/dashboard", "/dashboard?format=text"])
    return "/" + route


def ingest(client: Client, corpus: dict, staging: Path, root: Path,
           run_id: str) -> float:
    """Drop ``run_id`` into the root, ``POST /scan``, and check that it
    is listed.  Returns the scan's latency."""
    (staging / run_id).rename(root / run_id)
    latency = client.scan()
    listed = json.loads(client.get(
        "runs", f"/runs?seed={corpus['seeds'][run_id]}", timed=False
    ))
    if run_id not in {r["run_id"] for r in listed["runs"]}:
        client.failed += 1
        raise RequestFailed(f"/runs does not list ingested {run_id}")
    return latency


def output_digest(client: Client, corpus: dict) -> str:
    """The fingerprint-free digest of a fixed set of reads."""
    aliases = corpus["aliases"]

    def read(route, path):
        return common.strip_volatile(
            json.loads(client.get(route, path, timed=False)), aliases,
            VOLATILE_KEYS,
        )

    def ordered(items):
        return sorted(items, key=common.digest)

    by_alias = sorted(corpus["base"] + corpus["staged"],
                      key=lambda run_id: aliases[run_id])
    sample = by_alias[:3] + by_alias[-3:]
    payload = {
        "runs": ordered(read("runs", "/runs")["runs"]),
        "series": ordered(read("series", "/series")["series"]),
        "timeline": ordered(
            read("timeline", "/timeline?source=run")["entries"]
        ),
        "manifests": [read("run", f"/runs/{r}") for r in sample],
        "fidelity": [read("fidelity", f"/runs/{r}/fidelity")
                     for r in sample],
        "compare": [
            read("compare", f"/compare?a={sample[i]}&b={sample[i + 1]}")
            for i in range(0, len(sample), 2)
        ],
    }
    return common.digest(payload)


def corpus_child(arguments: list, result: Path, env: dict,
                 cwd: Path) -> dict:
    """Run ``corpus.py`` in its own process; its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "corpus.py"), *arguments,
         "--result", str(result)],
        cwd=cwd, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise common.BenchError(
            f"corpus.py {arguments[0]} failed:\n{proc.stderr[-2000:]}"
        )
    return common.load_json(result)


def build_corpus(args, root: Path, staging: Path, work: Path,
                 env: dict, cwd: Path) -> dict:
    arguments = ["build", "--seed", str(args.seed), "--root", str(root),
                 "--staging", str(staging)]
    if args.tiny:
        arguments.append("--tiny")
    return corpus_child(arguments, work / "corpus.json", env, cwd)


def run(args, cwd: Path, work: Path, env: dict) -> dict:
    inputs = common.catalog_inputs(args.tiny)
    spans = common.Spans(enabled=bool(args.trace))
    setups = []
    aliases = []
    daemon = None
    try:
        for attempt in range(SETUPS):
            if daemon is not None:
                daemon.stop()
                daemon = None
            base = work / f"setup{attempt}"
            shutil.rmtree(work / f"setup{attempt - 1}", ignore_errors=True)
            root, staging = base / "root", base / "staging"
            started = time.monotonic()
            corpus = build_corpus(args, root, staging, base, env, cwd)
            aliases.append(corpus["aliases"])
            daemon = Daemon(root, cwd, env, base / "daemon.log")
            daemon.wait_ready()
            setups.append(time.monotonic() - started)
        client = Client(daemon, spans)
        outcome = measure(args, client, corpus, root, staging, inputs)
        digest = outcome.pop("digest")
        peak_rss_mib = daemon.peak_rss_mib()
    finally:
        if daemon is not None:
            daemon.stop()
    requests = outcome.pop("requests")
    outcome["metrics"] = {
        "run_s": requests["round_s"],
        "setup_s": common.median(setups),
        "peak_rss_mib": peak_rss_mib,
    }
    # Each set-up builds the corpus anew: the same seed must give the
    # same run ids.
    outcome["attempted"] += len(aliases) - 1
    if any(a != aliases[0] for a in aliases):
        outcome["failed"] += 1
        sys.stderr.write("catalog corpus differs between set-ups\n")
    expected = common.expected_digest("catalog", args.seed, args.tiny)
    if digest is not None and expected is not None and digest != expected:
        outcome["failed"] += 1
        sys.stderr.write(f"catalog digest {digest} != {expected}\n")
    stamp = {
        "code_fingerprint": corpus["code_fingerprint"],
        "inputs": {**corpus["inputs"], "base_runs": len(corpus["base"]),
                   "staged_runs": len(corpus["staged"]),
                   "bench_files": corpus["bench_files"]},
        "digest": digest, "pinned_digest": expected,
        "requests": requests,
    }
    if args.trace:
        indexes = corpus_child(["index", "--root", str(root)],
                               work / "index.json", env, cwd)
        layers = dict(indexes["layers"])
        layers.update(indexes["counts"][0])
        layers.update({
            "api.read_p50_ms": requests["read_p50_ms"],
            "api.read_p99_ms": requests["read_p99_ms"],
            "api.reads_per_s": requests["reads_per_s"],
            "api.scan_p50_ms": requests["scan_p50_ms"],
        })
        if any(c != indexes["counts"][0] for c in indexes["counts"]):
            outcome["failed"] += 1
            sys.stderr.write(f"index counts differ: {indexes['counts']}\n")
        for route, values in client.latencies.items():
            layers[f"api.{route}_p50_ms"] = (
                common.median(values) * 1000 if values else 0.0
            )
        outcome["metrics"] = layers
        stamp["events"] = spans.chrome_events(
            min((e["start"] for e in spans.events), default=0.0)
        )
    outcome["stamp"] = stamp
    return outcome


def logged(call, *args):
    """``call(*args)``, or None once its failure is counted and logged:
    one failed operation does not end the run."""
    try:
        return call(*args)
    except RequestFailed as error:
        sys.stderr.write(f"catalog: {error}\n")
        return None


def measure(args, client: Client, corpus: dict, root: Path,
            staging: Path, inputs: dict) -> dict:
    rng = random.Random(args.seed)
    known = list(corpus["base"])
    rounds, scans = [], []
    reads_s = 0.0
    started = time.monotonic()
    for run_id in corpus["staged"]:
        if time.monotonic() - started > SCHEDULE_LIMIT_S:
            raise common.BenchError(
                f"the catalog schedule overran {SCHEDULE_LIMIT_S:.0f} s"
            )
        round_started = time.perf_counter()
        scan_s = logged(ingest, client, corpus, staging, root, run_id)
        if scan_s is not None:
            scans.append(scan_s)
        known.append(run_id)
        reads_started = time.perf_counter()
        for _ in range(inputs["reads_per_round"] // len(common.ROUTES)):
            for route in rng.sample(common.ROUTES, len(common.ROUTES)):
                logged(client.get, route,
                       read_path(route, rng, corpus, known))
        reads_s += time.perf_counter() - reads_started
        rounds.append(time.perf_counter() - round_started)
    digest = logged(output_digest, client, corpus)
    reads = [v for values in client.latencies.values() for v in values]
    if not scans or not reads:
        raise common.BenchError("catalog completed no ingest or no read")
    if len(reads) < common.MIN_READS and not args.tiny:
        raise common.BenchError(
            f"{len(reads)} reads timed; a p99 needs {common.MIN_READS}"
        )
    return {
        "attempted": client.attempted,
        "failed": client.failed,
        "digest": digest,
        "requests": {
            "rounds": len(rounds),
            "reads": len(reads),
            "round_s": common.median(rounds),
            "read_p50_ms": common.median(reads) * 1000,
            "read_p99_ms": common.nearest_rank(reads, 99) * 1000,
            "reads_per_s": len(reads) / reads_s,
            "scan_p50_ms": common.median(scans) * 1000,
        },
    }

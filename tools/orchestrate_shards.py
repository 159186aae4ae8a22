#!/usr/bin/env python3
"""Fan a campaign out over k local processes, then merge and report.

A one-machine version of the k-machine workflow README describes, in two
flavors:

Static striping (default): run the same campaign spec as k disjoint shards
(netcons_campaign --shard i/k, each streaming records into its own
directory), wait for all of them, fold the records into the exact
single-run summary (netcons_merge), compact the generations into one
archival stream (netcons_merge --compact), and emit the distribution
report (netcons_report).

    orchestrate_shards.py --shards 4 --out campaign-out --bin-dir build \\
        -- --protocols cycle-cover,global-star --ns 32,64 --trials 1000

Dynamic fabric (--fabric k): start one netcons_serve daemon (cache under
--out), POST the spec as a "dispatch": "fabric" job, and launch k local
netcons_worker processes that pull trial-range leases from the daemon
over HTTP (work-stealing; see docs/serving-api.md). A worker that dies
mid-run forfeits only its in-flight leases — they requeue once its
heartbeat deadline passes (10 s), and the served summary stays
byte-identical to an unsharded run. --kill-one SIGKILLs one worker as soon
as the first trial record lands on disk, which is exactly the robustness
property CI gates on.

    orchestrate_shards.py --fabric 3 --kill-one --out fabric-out \\
        --bin-dir build -- --protocols cycle-cover --ns 32 --trials 1000

Everything after `--` is the campaign spec (units, ns, trials, seed,
faults, ...): passed verbatim to netcons_campaign / netcons_worker, and
translated into the daemon's submission document in fabric mode. Do not
pass --shard/--records/--json there; the orchestrator owns those. Because
shards and leases are deterministic grid slices with position-derived
seeds, the merged outputs are byte-identical to an unsharded run of the
same spec — independent of k and of worker deaths.

Outputs under --out:
    records/      static mode: per-shard trial-record JSONL streams
    serve-cache/  fabric mode: the daemon's cache (the job spool while it runs)
    compact.jsonl the deduplicated, canonically ordered record stream
    summary.json / summary.csv   the campaign summary
    report.json / report.csv / report-ecdf.csv   distributions (netcons_report)

Exit status: 0 on success (even with trial-level failures, which are data),
2 on bad usage, 1 when a process dies unexpectedly or merge/report fail.

Stdlib only -- CI runners need nothing installed.
"""

import argparse
import http.client
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time


def run_tool(cmd):
    """Run a merge/report step, echoing the command line."""
    print("+", " ".join(str(part) for part in cmd), flush=True)
    return subprocess.run([str(part) for part in cmd]).returncode


def report(args, out):
    """The distribution report over out/compact.jsonl (unless skipped)."""
    if args.skip_report:
        return 0
    return 1 if run_tool([args.report_bin, out / "compact.jsonl", "--bins", args.bins,
                          "--json", out / "report.json", "--csv", out / "report.csv",
                          "--ecdf-csv", out / "report-ecdf.csv"]) else 0


def fold_records(args, out, records):
    """Merge + compact + report over whatever landed in the records dir."""
    if run_tool([args.merge_bin, records, "--json", out / "summary.json",
                 "--csv", out / "summary.csv"]) != 0:
        return 1
    if run_tool([args.merge_bin, "--compact", out / "compact.jsonl", records,
                 "--quiet"]) != 0:
        return 1
    return report(args, out)


def run_static(args, spec, out, records):
    """The classic --shard i/k fan-out."""
    children = []
    for shard in range(args.shards):
        cmd = [str(args.campaign_bin), *spec,
               "--shard", f"{shard}/{args.shards}",
               "--records", str(records), "--quiet"]
        print("+", " ".join(cmd), flush=True)
        children.append((shard, subprocess.Popen(cmd)))

    failures = 0
    exit_ones = []
    for shard, child in children:
        code = child.wait()
        # Exit 1 from a shard is ambiguous: trial-level failures
        # (non-convergence is data, recorded and merged like any other
        # outcome) share the code with real early deaths (unwritable
        # records, resume corruption). The merge's completeness check below
        # is the arbiter: a shard that died early leaves missing trials and
        # fails the merge. Anything other than 0/1 is an unambiguous error.
        if code not in (0, 1):
            print(f"shard {shard}/{args.shards} exited with status {code}",
                  file=sys.stderr)
            failures += 1
        elif code == 1:
            exit_ones.append(shard)
            print(f"note: shard {shard}/{args.shards} exited 1 — trial-level "
                  "failures were recorded, OR the shard died early (see its "
                  "output above); the merge below will fail on missing trials "
                  "if it was a death")
    if failures:
        return 1

    code = fold_records(args, out, records)
    if code != 0 and exit_ones:
        print(f"merge failed after shard(s) {exit_ones} exited 1: those "
              "shards likely died before finishing (not trial-level "
              "failures)", file=sys.stderr)
    if code == 0:
        print(f"done: {args.shards} shards -> {out}")
    return code


def full_pipe():
    """(read fd, write fd) of a pipe whose buffer is already full, so a
    child writing to it blocks on its first write."""
    read_fd, write_fd = os.pipe()
    os.set_blocking(write_fd, False)
    try:
        while True:
            os.write(write_fd, b"x" * 4096)
    except BlockingIOError:
        pass
    os.set_blocking(write_fd, True)
    return read_fd, write_fd


def first_record_landed(records):
    """True once some worker has streamed at least one trial record (file
    with more than the header line)."""
    for path in records.glob("*.jsonl"):
        try:
            if path.read_bytes().count(b"\n") >= 2:
                return True
        except OSError:
            pass
    return False


# Campaign spec flags -> submission-document fields (docs/serving-api.md).
LIST_FIELDS = {"--protocols": "protocols", "--processes": "processes",
               "--schedulers": "schedulers", "--scheduler": "schedulers",
               "--faults": "faults", "--engine": "engines"}
INT_FIELDS = {"--trials": "trials", "--seed": "seed"}
PARAM_FIELDS = {"--k": "k", "--c": "c", "--d": "d"}


def spec_document(spec):
    """The fabric job's submission document for CLI spec flags, or None
    (with a message) for a flag that is not part of the campaign spec."""
    document = {"dispatch": "fabric"}
    if len(spec) % 2:
        print("fabric mode expects FLAG VALUE pairs after --", file=sys.stderr)
        return None
    for flag, value in zip(spec[::2], spec[1::2]):
        if flag in LIST_FIELDS:
            document[LIST_FIELDS[flag]] = value.split(",")
        elif flag == "--ns":
            document["ns"] = [int(n) for n in value.split(",")]
        elif flag in INT_FIELDS:
            document[INT_FIELDS[flag]] = int(value)
        elif flag in PARAM_FIELDS:
            document.setdefault("params", {})[PARAM_FIELDS[flag]] = int(value)
        else:
            print(f"{flag} is not a campaign spec flag (fabric mode)", file=sys.stderr)
            return None
    return document


def request(port, method, target, body=None):
    """One daemon call; returns (status, body bytes)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request(method, target, body=body)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def job_state(port, job):
    """The fabric job's state, and the status body for diagnostics."""
    _, body = request(port, "GET", f"/v1/campaigns/{job}")
    return json.loads(body)["state"], body


def run_fabric(args, spec, out):
    """netcons_serve + k workers pulling HTTP leases, optionally killing one."""
    document = spec_document(spec)
    if document is None:
        return 2
    serve_cmd = [str(args.serve_bin), "--cache", str(out / "serve-cache"),
                 "--port", "0", "--max-idle", "120", "--quiet"]
    print("+", " ".join(serve_cmd), flush=True)
    daemon = subprocess.Popen(serve_cmd, stdout=subprocess.PIPE, text=True)
    try:
        return drive_fabric(args, spec, out, daemon, document)
    finally:
        daemon.terminate()
        daemon.wait()


def drive_fabric(args, spec, out, daemon, document):
    # The daemon announces its kernel-assigned port on stdout.
    match = re.search(r"listening on [^:]*:(\d+)", daemon.stdout.readline())
    if not match:
        print("netcons_serve never announced its port", file=sys.stderr)
        return 1
    port = int(match.group(1))
    status, body = request(port, "POST", "/v1/campaigns", json.dumps(document))
    if status not in (200, 202):
        print(f"submit answered {status}: {body.decode()}", file=sys.stderr)
        return 1
    job = json.loads(body)["id"]
    records = out / "serve-cache" / "jobs" / job / "records"

    workers = []
    stuck = full_pipe() if args.kill_one else None
    for index in range(args.fabric):
        cmd = [str(args.worker_bin), *spec, "--connect", f"127.0.0.1:{port}"]
        print("+", " ".join(cmd), flush=True)
        # The doomed worker's stderr is a full pipe: it blocks on its first
        # progress line, written after its first lease executed and before
        # the next lease call reports it done, so the kill lands mid-lease
        # however fast the trials are.
        doomed = stuck is not None and index == 0
        workers.append(subprocess.Popen(cmd, stderr=stuck[1] if doomed else None))

    if args.kill_one:
        # SIGKILL once the first record lands: no drain, no goodbye — the
        # exact crash the lease requeue (after the deadline) must absorb.
        victim = workers[0]
        deadline = time.monotonic() + 60
        while (time.monotonic() < deadline and victim.poll() is None
               and not first_record_landed(records)
               and job_state(port, job)[0] in ("queued", "running")):
            time.sleep(0.05)
        print(f"+ kill -9 {victim.pid}  # killing worker 1 of {args.fabric}",
              flush=True)
        victim.send_signal(signal.SIGKILL)
        victim.wait()
        for fd in stuck:
            os.close(fd)

    failures = 0
    for index, worker in enumerate(workers):
        code = worker.wait()
        if args.kill_one and index == 0:
            print(f"worker {index + 1} exited {code} (killed on purpose)")
        elif code != 0:
            print(f"worker {index + 1} exited with status {code}", file=sys.stderr)
            failures += 1
    if failures:
        return 1

    # Workers drain once every trial is committed; the daemon then folds
    # the spool into its cache entry.
    state, body = job_state(port, job)
    while state in ("queued", "running"):
        time.sleep(0.05)
        state, body = job_state(port, job)
    if state != "done":
        print(f"fabric job {job} ended {state}: {body.decode()}", file=sys.stderr)
        return 1
    for artifact, name in (("summary", "summary.json"),
                           ("summary.csv", "summary.csv"),
                           ("records", "compact.jsonl")):
        status, body = request(port, "GET", f"/v1/campaigns/{job}/{artifact}")
        if status != 200:
            print(f"GET {artifact} answered {status}", file=sys.stderr)
            return 1
        (out / name).write_bytes(body)
    if report(args, out) != 0:
        return 1
    killed = " (one worker killed mid-run)" if args.kill_one else ""
    print(f"done: netcons_serve + {args.fabric} workers{killed} -> {out}")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--shards", type=int, default=2,
                        help="number of local static-shard processes (default 2)")
    parser.add_argument("--fabric", type=int, default=0, metavar="K",
                        help="use the dynamic fabric instead: one netcons_serve "
                             "plus K local netcons_worker processes")
    parser.add_argument("--kill-one", action="store_true",
                        help="fabric mode: SIGKILL one worker once the first "
                             "record lands (robustness gate)")
    parser.add_argument("--bin-dir", default="build",
                        help="directory holding the netcons_* binaries (default build)")
    parser.add_argument("--out", default="campaign-out",
                        help="output directory (default campaign-out)")
    parser.add_argument("--bins", default="fd",
                        help="report histogram binning: fd or a bin count (default fd)")
    parser.add_argument("--skip-report", action="store_true",
                        help="merge only; skip the distribution report")
    parser.add_argument("campaign", nargs=argparse.REMAINDER,
                        help="-- followed by netcons_campaign spec flags")
    args = parser.parse_args()

    spec = args.campaign
    if spec and spec[0] == "--":
        spec = spec[1:]
    if (args.fabric < 0 or args.shards < 1 or not spec
            or (args.kill_one and args.fabric < 2)):
        parser.print_usage(sys.stderr)
        print("need a campaign spec after --, --shards >= 1 (or --fabric >= 1; "
              ">= 2 with --kill-one)", file=sys.stderr)
        return 2
    for owned in ("--shard", "--records", "--resume", "--json", "--csv",
                  "--connect", "--port"):
        if owned in spec:
            print(f"{owned} belongs to the orchestrator; pass only the campaign spec",
                  file=sys.stderr)
            return 2

    bin_dir = pathlib.Path(args.bin_dir)
    args.campaign_bin = bin_dir / "netcons_campaign"
    args.merge_bin = bin_dir / "netcons_merge"
    args.report_bin = bin_dir / "netcons_report"
    args.serve_bin = bin_dir / "netcons_serve"
    args.worker_bin = bin_dir / "netcons_worker"
    needed = [args.report_bin]
    needed += ([args.serve_bin, args.worker_bin] if args.fabric
               else [args.campaign_bin, args.merge_bin])
    for binary in needed:
        if not binary.exists():
            print(f"missing binary: {binary} (build the tree first)", file=sys.stderr)
            return 2

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.fabric:
        return run_fabric(args, spec, out)
    records = out / "records"
    records.mkdir(exist_ok=True)
    return run_static(args, spec, out, records)


if __name__ == "__main__":
    sys.exit(main())

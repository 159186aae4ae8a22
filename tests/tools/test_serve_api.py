#!/usr/bin/env python3
"""End-to-end serving-API contract, registered with ctest.

Launches the real netcons_serve daemon on a kernel-assigned loopback port
and drives the netcons-serve-v2 API with stdlib http.client, checking the
guarantees docs/serving-api.md makes and CI relies on:

  * POST /v1/campaigns accepts a spec, returns its fingerprint id, and a
    poll loop on GET /v1/campaigns/{id} reaches "done";
  * the served summary / summary.csv are byte-identical to what
    `netcons_campaign --json/--csv` emits for the same spec, the served
    records are byte-identical to `netcons_merge --compact` over the CLI
    spool, and the served report is byte-identical to
    `netcons_report --json` (the determinism contract);
  * re-POSTing the identical spec answers 200 with "cached": true —
    no trials run again;
  * malformed documents -- including a 2 MB run of nested "[" -- get a
    400 netcons-serve-v2 error envelope,
    unknown ids and endpoints a 404, artifact requests on unfinished
    jobs a 409, and GET /v1/metrics snapshots the serve.* counters.

Usage: test_serve_api.py NETCONS_SERVE NETCONS_CAMPAIGN NETCONS_MERGE \
           NETCONS_REPORT

Stdlib only.
"""

import http.client
import json
import pathlib
import subprocess
import sys
import tempfile
import time
import unittest

SERVE, CAMPAIGN, MERGE, REPORT = (str(pathlib.Path(p).resolve())
                                  for p in sys.argv[1:5])

SPEC = {"protocols": ["cycle-cover"], "ns": [16, 24], "trials": 6, "seed": 7}
SPEC_ARGS = ["--protocols", "cycle-cover", "--ns", "16,24",
             "--trials", "6", "--seed", "7"]


def request(port, method, target, body=None):
    """One request; returns (status, headers, body bytes). A bytes body is
    sent verbatim, anything else as JSON."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        payload = body
        if body is not None and not isinstance(body, bytes):
            payload = json.dumps(body).encode()
        connection.request(method, target, body=payload)
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


class ServeApiTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.dir = tempfile.TemporaryDirectory(prefix="netcons_serve_api_")
        cls.root = pathlib.Path(cls.dir.name)
        (cls.root / "cli").mkdir()

        cls.daemon = subprocess.Popen(
            [SERVE, "--cache", str(cls.root / "cache"), "--port", "0",
             "--quiet"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        announce = cls.daemon.stdout.readline().strip()
        assert announce.startswith("netcons_serve listening on "), announce
        cls.port = int(announce.rsplit(":", 1)[1])

        # The CLI artifacts the daemon's bytes must match.
        cli = cls.root / "cli"
        result = subprocess.run(
            [CAMPAIGN, *SPEC_ARGS, "--json", "summary.json", "--csv",
             "summary.csv", "--records", "records", "--quiet"],
            cwd=cli, capture_output=True, text=True, timeout=240)
        assert result.returncode == 0, result.stderr
        result = subprocess.run(
            [MERGE, "records", "--compact", "records.jsonl", "--quiet"],
            cwd=cli, capture_output=True, text=True, timeout=240)
        assert result.returncode == 0, result.stderr
        result = subprocess.run(
            [REPORT, "records.jsonl", "--json", "report.json", "--quiet"],
            cwd=cli, capture_output=True, text=True, timeout=240)
        assert result.returncode == 0, result.stderr

    @classmethod
    def tearDownClass(cls):
        cls.daemon.terminate()
        try:
            cls.daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            cls.daemon.kill()
            cls.daemon.wait()
        cls.dir.cleanup()

    def submit_and_wait(self):
        status, _, body = request(self.port, "POST", "/v1/campaigns", SPEC)
        self.assertIn(status, (200, 202), body)
        document = json.loads(body)
        self.assertEqual(document["schema"], "netcons-serve-v2")
        job = document["id"]
        self.assertRegex(job, r"^[0-9a-f]{16}$")
        deadline = time.monotonic() + 240
        while time.monotonic() < deadline:
            status, _, body = request(self.port, "GET", f"/v1/campaigns/{job}")
            self.assertEqual(status, 200, body)
            polled = json.loads(body)
            self.assertEqual(polled["schema"], "netcons-serve-v2")
            if polled["state"] == "done":
                self.assertEqual(polled["trials_done"],
                                 polled["trials_total"])
                return job, document
            self.assertIn(polled["state"], ("queued", "running"), body)
            time.sleep(0.05)
        self.fail("campaign never reached done")

    def test_served_artifacts_match_cli_bytes(self):
        job, _ = self.submit_and_wait()
        for artifact, cli_name, content_type in (
                ("summary", "summary.json", "application/json"),
                ("summary.csv", "summary.csv", "text/csv"),
                ("records", "records.jsonl", "application/x-ndjson"),
                ("report", "report.json", "application/json")):
            status, headers, body = request(
                self.port, "GET", f"/v1/campaigns/{job}/{artifact}")
            self.assertEqual(status, 200, body)
            self.assertEqual(headers["Content-Type"], content_type)
            expected = (self.root / "cli" / cli_name).read_bytes()
            self.assertEqual(body, expected,
                             f"{artifact} differs from the CLI bytes")

    def test_identical_resubmit_is_a_cache_hit(self):
        self.submit_and_wait()
        status, _, body = request(self.port, "POST", "/v1/campaigns", SPEC)
        self.assertEqual(status, 200, body)
        document = json.loads(body)
        self.assertTrue(document["cached"], body)
        self.assertEqual(document["state"], "done")

    def test_error_envelopes(self):
        for method, target, body, expect in (
                ("POST", "/v1/campaigns", {"nonsense": 1}, 400),
                ("GET", "/v1/campaigns/ffffffffffffffff", None, 404),
                ("GET", "/v1/campaigns/ffffffffffffffff/summary", None, 404),
                ("GET", "/v1/nope", None, 404),
                ("DELETE", "/v1/campaigns", None, 405)):
            status, _, raw = request(self.port, method, target, body)
            self.assertEqual(status, expect, (target, raw))
            envelope = json.loads(raw)
            self.assertEqual(envelope["schema"], "netcons-serve-v2")
            self.assertEqual(envelope["error"]["status"], expect)
            self.assertTrue(envelope["error"]["message"])

    def test_bad_spec_reports_the_builder_diagnostic(self):
        status, _, raw = request(self.port, "POST", "/v1/campaigns",
                                 {"protocols": ["no-such-protocol"],
                                  "ns": [8]})
        self.assertEqual(status, 400, raw)
        self.assertIn("no-such-protocol",
                      json.loads(raw)["error"]["message"])

    def test_deeply_nested_body_is_a_400_and_the_daemon_survives(self):
        status, _, raw = request(self.port, "POST", "/v1/campaigns",
                                 b"[" * (2 << 20))
        self.assertEqual(status, 400, raw[:200])
        envelope = json.loads(raw)
        self.assertEqual(envelope["schema"], "netcons-serve-v2")
        self.assertIn("nesting too deep", envelope["error"]["message"])
        status, _, body = request(self.port, "GET", "/v1/metrics")
        self.assertEqual(status, 200, body)

    def test_metrics_snapshot_counts_requests(self):
        request(self.port, "GET", "/v1/metrics")
        status, _, body = request(self.port, "GET", "/v1/metrics")
        self.assertEqual(status, 200, body)
        snapshot = json.loads(body)
        self.assertEqual(snapshot["schema"], "netcons-metrics-v1")
        self.assertGreaterEqual(snapshot["counters"]["serve.requests"], 2)


if __name__ == "__main__":
    sys.argv = sys.argv[:1]  # unittest.main must not see the binary paths
    unittest.main()

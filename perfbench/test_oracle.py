#!/usr/bin/env python3
"""Self-test of the benchmark's oracle and determinism.

    python3 perfbench/test_oracle.py

Run from the root of the repository; builds dpc_perfbench first (see run.py).
A corrupted expectation (one flipped byte, one write dropped from the
shadow) must make every workload's run fail with a named mismatch; two
seeds must give two different op streams that both verify clean; and one
seed run twice must give the same op stream, the same modelled percentiles
(all but cache-buffered-hot) and the same per-op counter deltas
(kvfs-direct-8k, dfs-ec-1m).
"""
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

WORKLOADS = ["kvfs-direct-8k", "cache-buffered-hot", "meta-fsync-smallfile",
             "dfs-ec-1m"]
SHORT = {"kvfs-direct-8k": 600, "cache-buffered-hot": 600,
         "meta-fsync-smallfile": 60, "dfs-ec-1m": 40}


class OracleTest(unittest.TestCase):
    exe = None

    @classmethod
    def setUpClass(cls):
        cls.exe = str(run.build())

    def drive(self, workload, seed, *extra):
        return subprocess.run(
            [self.exe, "--workload", workload, "--seed", str(seed),
             "--ops", str(SHORT[workload]), "--setups", "1", "--trace", "0",
             *extra],
            capture_output=True, text=True, timeout=300)

    def assert_mismatch(self, workload, inject):
        p = self.drive(workload, 7, "--inject", inject)
        self.assertNotEqual(p.returncode, 0, f"{workload}/{inject} passed")
        self.assertRegex(p.stderr,
                         rf"MISMATCH workload={re.escape(workload)} op=\S+ "
                         r".*offset=\d+")
        self.assertNotIn('"correct"', p.stdout)

    def test_flipped_byte_fails_every_workload(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assert_mismatch(w, "flip-byte")

    def test_dropped_write_fails_every_workload(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assert_mismatch(w, "drop-write")

    def test_other_seed_other_stream_still_clean(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                hashes = []
                for seed in (1, 2):
                    p = self.drive(w, seed)
                    self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                    result = json.loads(p.stdout.strip().splitlines()[-1])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    hashes.append(
                        re.search(r"op-stream hash (\w+)", p.stderr).group(1))
                self.assertNotEqual(hashes[0], hashes[1])

    def test_same_seed_same_stream(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                p = subprocess.run(
                    [self.exe, "--workload", w, "--seed", "3",
                     "--ops", str(SHORT[w] * 3), "--setups", "1",
                     "--check-determinism"],
                    capture_output=True, text=True, timeout=300)
                self.assertEqual(p.returncode, 0, p.stdout + p.stderr[-2000:])
                self.assertRegex(p.stdout,
                                 r"op-stream hash: \w+ / \w+  identical")
                # With one client thread and no write-back cache in the
                # path, every modelled percentile and every per-op counter
                # delta repeats exactly. The mail spool's two threads share
                # the KVFS caches and the WAL, so there only the modelled
                # percentiles of a short run must repeat.
                if w != "cache-buffered-hot":
                    self.assertNotRegex(p.stdout, r"model_\S+: .* DIFFERS")
                if w in ("kvfs-direct-8k", "dfs-ec-1m"):
                    self.assertNotRegex(p.stdout, r"per-op \S+: .* DIFFERS")
                    self.assertRegex(p.stdout, r"per-op \S+: .* identical")


if __name__ == "__main__":
    unittest.main(verbosity=2)

#!/usr/bin/env python3
"""Smoke test of the benchmark: one tiny cell per workload, both modes.

    python3 perfbench/test_smoke.py

run.py itself rejects a result whose metric names or units differ from
BENCHMARK.json; this test adds that every run is correct, that no cell
failed (cell_fail_ratio is 0), that the traced run passed the identity
gate with no bad packets, and that provenance is printed.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
PROVENANCE_KEYS = {"commit", "source_digest", "build_type", "hrmc_tracing",
                   "hardware_concurrency", "threads", "workload_seed",
                   "cells_per_run"}


def smoke(workload, trace):
    r = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if r.returncode != 0:
        raise AssertionError(f"run.py exited {r.returncode}:\n{r.stderr}")
    lines = r.stdout.splitlines()
    prov = next(l for l in lines if l.startswith("provenance "))
    return json.loads(prov.split(" ", 1)[1]), json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def test_end_to_end(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                prov, res = smoke(w, 0)
                self.assertLessEqual(PROVENANCE_KEYS, set(prov))
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                m = res["metrics"]
                self.assertEqual(m["cell_ok_ratio"]["value"], 1)
                for name, v in m.items():
                    self.assertGreater(v["value"], 0, name)

    def test_traced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                prov, res = smoke(w, 1)
                self.assertLessEqual(PROVENANCE_KEYS, set(prov))
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                m = {k: v["value"] for k, v in res["metrics"].items()}
                self.assertEqual(m["harness.cell_fail_ratio"], 0)
                self.assertEqual(m["harness.rig_identity"], 1)
                self.assertEqual(m["wire.bad_packets"], 0)
                self.assertGreaterEqual(m["sim.rest_self_s"], 0)
                self.assertGreater(m["proto.rx_self_s"], 0)


if __name__ == "__main__":
    unittest.main()

"""Workload definitions and the config documents generated from a seed.

A workload is a closed loop: one client runs a fixed list of entries (one
campaign or one sweep each) as a *round*, then the next round, until the
measuring time is up.  Round r uses master seed ``1000 * seed + r % cycle``,
so the inputs follow from the workload seed alone.  ``cycle`` is larger
than the rounds a run gets through at the commit that added the
benchmark, so every round decodes fresh frames; a much faster program
wraps round and repeats inputs, whose statistics must then repeat too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1
CODE = Path("tests") / "data" / "reg3x6_504x1008.alist"
CHUNK = 512     # run_campaign's default chunk size; early stops fall on its multiples

# Parameters of acceptance criteria 07-08 (float) and 11 (quantized).
_SG = dict(theta=-0.9, w=1.0, t_max=100)
_MG = dict(theta=-0.5, w=1.0, t_max=100)
_AT = dict(theta=-0.6, lam=0.99, w=1.0, t_max=100)
_SN = dict(theta=-0.9, eta=1.0, w=0.75, t_max=100)
_MN = dict(theta=-0.9, lam=0.99, eta=0.95, w=0.75, t_max=100)
_SMN = dict(_MN, t_max=300, smoothing_window=64)
_Q4 = dict(theta=-0.7, lam=0.99, eta=0.95, w=0.75, t_max=100, noise_policy="shift_chain")


@dataclass(frozen=True)
class Entry:
    """One campaign (or one sweep) of a round, as its JSON config describes it."""

    decoder: str
    params: dict
    ebn0_db: tuple
    frames: int
    error_target: int | None = None
    quantizer: dict | None = None
    sweep: tuple | None = None      # (parameter, grid) for run_sweep
    workers: int = 1

    @property
    def key(self) -> str:
        """Variant name used by the per-variant throughput metrics."""
        if self.quantizer:
            return f"{self.decoder}-q{self.quantizer['q_bits']}"
        return self.decoder

    @property
    def grid(self) -> tuple:
        return tuple(self.sweep[1]) if self.sweep else (None,)

    def config(self, code_path: str, seed: int) -> dict:
        doc = {"code": code_path, "decoder": self.decoder, "params": self.params,
               "ebn0_db": list(self.ebn0_db), "frames": self.frames, "seed": seed,
               "error_target": self.error_target}
        if self.quantizer:
            doc["quantizer"] = self.quantizer
        return doc


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    entries: tuple
    cycle: int          # distinct rounds before the inputs repeat
    trace_rounds: int   # rounds the traced run replays

    @property
    def workers(self) -> int:
        return max(e.workers for e in self.entries)


WORKLOADS = {w.name: w for w in (
    Workload(
        "waterfall-float",
        "six float bit-flip variants at 3.0 dB, 70-100 iterations a frame: "
        "syndrome ops, iid draws, gdbf steps and the decode loop do nearly all the work",
        tuple(Entry(d, p, (3.0,), 40) for d, p in (
            ("sgdbf", _SG), ("mgdbf", _MG), ("atgdbf", _AT),
            ("sngdbf", _SN), ("mngdbf", _MN), ("smngdbf", _SMN))),
        cycle=64, trace_rounds=4),
    Workload(
        "quantized-minsum-4db",
        "Q4 shift-chain mngdbf and min-sum at 4.0 dB: the only workload running "
        "to_index, shift-chain draws and min-sum; short frames expose fixed per-frame costs",
        (Entry("mngdbf", _Q4, (4.0,), 128, quantizer={"q_bits": 4, "y_max": 1.75}),
         Entry("minsum", {"t_max": 10}, (4.0,), 256)),
        cycle=128, trace_rounds=8),
    Workload(
        "sweep-early-stop",
        "eta sweep of float mngdbf at 3.0/3.5 dB on 2 workers with a small error "
        "target: pool start-up, chunk submission and the early-stop path dominate",
        # One sweep per SNR point keeps each timed call near 5 s, so the
        # calibration between calls samples the machine's speed often enough.
        tuple(Entry("mngdbf", _MN, (ebn0,), 1024, error_target=20,
                    sweep=("eta", (0.85, 0.95)), workers=2) for ebn0 in (3.0, 3.5)),
        cycle=8, trace_rounds=1),
)}


def round_seed(seed: int, round_index: int, cycle: int) -> int:
    return 1000 * seed + round_index % cycle


def write_configs(workload: Workload, seed: int, root: Path, out_dir: Path) -> list:
    """Write one JSON config per entry (round 0's seed) and return their paths."""
    code_path = str((root / CODE).resolve())
    paths = []
    for i, entry in enumerate(workload.entries):
        path = out_dir / f"entry{i}.json"
        path.write_text(json.dumps(entry.config(code_path, round_seed(seed, 0, workload.cycle)),
                                   indent=2) + "\n")
        paths.append(str(path))
    return paths

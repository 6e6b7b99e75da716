"""The benchmark's traced run finds every layer boundary it wraps.

``perfbench/measure.py`` wraps functions where the harness and the decoder
classes look them up.  A refactor that moves one of those names leaves the
benchmark running but reads that layer as 0, with only a "not found" line
on stderr; this test makes such a move fail here instead.
"""

from pathlib import Path

import pytest

from ngdbf import harness
from ngdbf.channel import QuantizerSpec, ebn0_to_sigma
from ngdbf.codes import load_alist
from ngdbf.harness import DecoderSetup, NgdbfParams

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Every span the per-layer metrics are computed from that still has a caller.
# (codes.syndrome_sums has none: the engine sums syndromes in its own arrays.)
SPANS = ("harness.decode_frame", "harness.frame_rng", "channel.transmit", "minsum.decode",
         "codes.syndrome", "noisy.draw", "channel.to_index")

# The names the tracer still wraps that no longer exist: frames start inside
# gdbf.decode_batch, which also decodes every frame perturbed by per-step draws,
# so the core.init_state and core.decode layers read 0.
MISSING = ["trace: ngdbf.harness.init_state not found; core.init_state is not traced",
           "trace: ngdbf.harness.decode not found; core.decode is not traced"]


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def not_found(err: str) -> list:
    return [line for line in err.splitlines() if "not found" in line]


def test_every_benchmark_span_is_recorded(bench_code, tmp_path, perfbench, capsys):
    from measure import install
    from tracer import Tracer

    params = NgdbfParams(theta=-0.9, lam=0.99, eta=0.95, w=0.75, t_max=5)
    setups = [DecoderSetup(name, params) for name in harness.VARIANTS if name != "smngdbf"]
    setups += [DecoderSetup("smngdbf", params.replace(smoothing_window=5)),
               DecoderSetup("mngdbf", params, QuantizerSpec(4, 1.75))]
    tracer = Tracer()
    install(tracer, tmp_path)
    try:
        stats = [(setup, harness.decode_chunk(bench_code, setup, 0.8, 2.5, 1, 0, 0, 1))
                 for setup in setups]
        # The wrapped decode_frame decodes a block: each range above is one, and so
        # is this two-frame range.
        noisy = next(setup for setup in setups if setup.variant == "sngdbf")
        chunk = harness.decode_chunk(bench_code, noisy, 0.8, 2.5, 1, 0, 0, 2)
    finally:
        tracer.restore()
    assert not_found(capsys.readouterr().err) == MISSING
    assert [name for name in SPANS if not tracer.calls[name]] == []
    assert tracer.calls["harness.decode_frame"] == len(setups) + 1
    # One noisy.draw span per step of a block perturbed by iid draws: a block
    # steps until its last frame stops.
    perturbed = [frame for setup, frame in stats if setup.perturbed]
    assert len(perturbed) == 4
    assert tracer.calls["noisy.draw"] == (
        sum(int(frame.iterations.max()) for frame in perturbed) + int(chunk.iterations.max()))


def test_every_workload_decodes_frames_through_decode_frame(tmp_path, perfbench, capsys):
    # The traced run divides per-frame layers and harness.useful_frame_frac by
    # the frames the wrapped decode_frame saw, so each workload must send some.
    from measure import install
    from tracer import Tracer
    from workloads import WORKLOADS, write_configs

    for name, workload in WORKLOADS.items():
        configs = [harness.load_config(path)
                   for path in write_configs(workload, 1, PERFBENCH.parent, tmp_path)]
        tracer = Tracer()
        install(tracer, tmp_path)
        try:
            for config in configs:
                sigma = ebn0_to_sigma(config.ebn0_db[0], float(config.code.rate))
                harness.decode_chunk(config.code, config.setup, sigma, config.y_max,
                                     config.master_seed, 0, 0, 2)
        finally:
            tracer.restore()
        assert tracer.calls["harness.decode_frame"] >= 1, name
    assert set(not_found(capsys.readouterr().err)) == set(MISSING)


def test_load_config_reads_the_code_through_harness_load_alist(monkeypatch, tmp_path, perfbench):
    # The traced codes.load_alist layer wraps harness.load_alist, so
    # load_config must look the loader up there, once per config.
    from workloads import WORKLOADS, write_configs

    calls = []

    def counting(path):
        calls.append(path)
        return load_alist(path)

    monkeypatch.setattr(harness, "load_alist", counting)
    workload = WORKLOADS["waterfall-float"]
    config = harness.load_config(write_configs(workload, 1, PERFBENCH.parent, tmp_path)[0])
    assert len(calls) == 1 and config.code.n == 1008

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
from ngdbf.harness import DecoderSetup, NgdbfParams

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Every span the per-layer metrics are computed from that still has a caller.
SPANS = ("harness.decode_frame", "harness.frame_rng", "channel.transmit", "core.decode",
         "minsum.decode", "codes.syndrome", "codes.syndrome_sums", "noisy.draw",
         "channel.to_index")

# The one name the tracer still wraps that no longer exists: frames start
# inside gdbf.decode, so its core.init_state layer reads 0.
MISSING = ["trace: ngdbf.harness.init_state not found; core.init_state is not traced"]


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
        stats = [(setup, harness.decode_frame(bench_code, setup, 0.8, 2.5, 1, 0, 0))
                 for setup in setups]
        # Pool workers' perturbed frames are counted through the wrapped
        # decode_frame; a noise-free range is decoded as one batch instead.
        noisy = next(setup for setup in setups if setup.variant == "sngdbf")
        chunk = harness.decode_chunk(bench_code, noisy, 0.8, 2.5, 1, 0, 0, 2)
    finally:
        tracer.restore()
    assert not_found(capsys.readouterr().err) == MISSING
    assert [name for name in SPANS if not tracer.calls[name]] == []
    assert tracer.calls["harness.decode_frame"] == len(setups) + 2
    # One core.decode span per frame perturbed by iid draws, and its counter
    # holds exactly those frames' iterations.
    perturbed = [frame for setup, frame in stats
                 if setup.variant != "minsum" and not setup.batched]
    assert tracer.calls["core.decode"] == len(perturbed) + 2
    assert tracer.counters["core.decode.iterations"] == (
        sum(frame.iterations for frame in perturbed) + int(chunk.iterations.sum()))


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

"""The benchmark's traced run finds every layer boundary it wraps.

``perfbench/measure.py`` wraps functions where the harness and the decoder
classes look them up.  A refactor that moves one of those names leaves the
benchmark running but reads that layer as 0, with only a "not found" line
on stderr; this test makes such a move fail here instead.
"""

from pathlib import Path

from ngdbf import harness
from ngdbf.channel import QuantizerSpec
from ngdbf.harness import DecoderSetup, NgdbfParams

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Every span the benchmark's per-layer metrics are computed from.
SPANS = ("harness.decode_frame", "harness.frame_rng", "channel.transmit", "core.init_state",
         "core.decode", "minsum.decode", "codes.syndrome", "codes.syndrome_sums",
         "noisy.draw", "channel.to_index", "gdbf.step", "noisy.quantized_step")


def test_every_benchmark_span_is_recorded(bench_code, tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from measure import install
    from tracer import Tracer

    params = NgdbfParams(theta=-0.9, lam=0.99, eta=0.95, w=0.75, t_max=5)
    setups = [DecoderSetup(name, params) for name in harness.VARIANTS if name != "smngdbf"]
    setups += [DecoderSetup("smngdbf", params.replace(smoothing_window=5)),
               DecoderSetup("mngdbf", params, QuantizerSpec(4, 1.75))]
    tracer = Tracer()
    install(tracer, tmp_path)
    try:
        for setup in setups:
            harness.decode_frame(bench_code, setup, 0.8, 2.5, 1, 0, 0)
        # Pool workers' perturbed frames are counted through the wrapped
        # decode_frame; a noise-free range is decoded as one batch instead.
        noisy = next(setup for setup in setups if setup.variant == "sngdbf")
        harness.decode_chunk(bench_code, noisy, 0.8, 2.5, 1, 0, 0, 2)
    finally:
        tracer.restore()
    assert "not found" not in capsys.readouterr().err
    assert [name for name in SPANS if not tracer.calls[name]] == []
    assert tracer.calls["harness.decode_frame"] == len(setups) + 2
    # One step span per decode iteration: a step that called another traced
    # step would count its iterations twice in the per-layer split.
    steps = tracer.calls["gdbf.step"] + tracer.calls["noisy.quantized_step"]
    assert steps == tracer.counters["core.decode.iterations"]

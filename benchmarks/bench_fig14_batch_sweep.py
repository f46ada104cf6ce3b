"""Fig. 14 — batch-size sweep (1–32) of throughput and energy/token.

Geomean over the Llama family, normalized to an 8×8 systolic array at
batch 1.  Checks the headline: Mugi peaks at batch 8 (its column count),
systolic/SIMD arrays peak only at batch = dim, and Mugi's energy/token
beats the baselines at the service batch of 8.  Every design's peak
batch at seq 4096 is pinned in ``BENCH_paper.json``.
"""

from conftest import once

from repro.analysis.experiments import batch_sweep
from repro.analysis.tables import render_table


def test_fig14_batch_sweep(benchmark, save_result, paper_claims):
    points = once(benchmark, batch_sweep.run,
                  batches=(1, 2, 4, 8, 16, 32), seq_lens=(128, 1024, 4096))
    norm = batch_sweep.normalize(points)

    rows = []
    for design, by_seq in sorted(norm.items()):
        for seq_len, by_batch in sorted(by_seq.items()):
            for batch, metrics in sorted(by_batch.items()):
                rows.append([design, seq_len, batch,
                             f"{metrics['throughput']:.2f}x",
                             f"{metrics['energy_per_token']:.3f}x"])
    table = render_table(
        ["Design", "Seq len", "Batch", "Norm throughput",
         "Norm energy/token"],
        rows, title="Fig. 14: batch sweep vs SA (8) at batch 1, "
                    "geomean over Llama family")
    save_result("fig14_batch_sweep", table)

    assert {design: batch_sweep.peak_batch(points, design, 4096)
            for design in norm} == paper_claims["fig14_peak_batch_seq4096"]

    # Mugi reaches (95% of) its peak at batch 8; SA (16) needs 16.
    for seq_len in (128, 1024, 4096):
        assert batch_sweep.peak_batch(points, "Mugi (256)", seq_len) <= 8
        assert batch_sweep.peak_batch(points, "SA (16)", seq_len) >= 16

    # At the paper's operating point (batch 8), Mugi (256) leads SA (16)
    # in both throughput and energy per token.
    def cell(design, batch, seq_len=4096):
        return norm[design][seq_len][batch]

    assert cell("Mugi (256)", 8)["throughput"] > \
        1.5 * cell("SA (16)", 8)["throughput"]
    assert cell("Mugi (256)", 8)["energy_per_token"] < \
        cell("SA (16)", 8)["energy_per_token"]

    # SA and SD throughput closely overlap (Fig. 14 caption).
    assert abs(cell("SA (16)", 8)["throughput"]
               - cell("SD (16)", 8)["throughput"]) < 0.05

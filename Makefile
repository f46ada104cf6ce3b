# Convenience entry points (CI runs the same commands).
PY ?= python
export PYTHONPATH := src

.PHONY: test lint demos bench-gate bench-baseline sweep-smoke \
	search-smoke serving-claims paper-claims

test:
	$(PY) -m pytest -x -q

lint:
	ruff check src tests benchmarks examples

demos:
	$(PY) examples/serving_demo.py
	$(PY) examples/parallel_serving_demo.py
	$(PY) examples/paged_serving_demo.py
	$(PY) examples/cluster_serving_demo.py
	$(PY) examples/autoscaling_serving_demo.py
	$(PY) examples/auto_config_demo.py
	$(PY) examples/quickstart.py
	$(PY) examples/accelerator_comparison.py
	$(PY) examples/carbon_footprint.py
	$(PY) examples/design_space_exploration.py
	$(PY) examples/extensions_showcase.py
	$(PY) examples/llm_accuracy.py

# Compare fixed-seed serving benchmarks against BENCH_serving.json.
bench-gate:
	$(PY) benchmarks/gate.py --check

# Intentional perf change? Regenerate the baseline and commit it.
# Serial by construction: gate.py refuses --jobs > 1 here so baseline
# wall clocks always come from uncontended runs.
bench-baseline:
	$(PY) benchmarks/gate.py --update-baseline

# The serving headlines (paged KV 1.41x, prefix-affinity 1.73x, the
# reactive autoscaler at 0.74x cost), the auto_config search headline
# (the hand-picked fleet on the searched frontier, grid == halving
# through one memo, via the registry and 2-worker spawn pools) and
# Table 3's ratios, asserted by their benches.  pytest's default
# pattern never collects bench_*.py, so the files are named explicitly.
serving-claims:
	$(PY) -m pytest benchmarks/bench_serving_load.py \
		benchmarks/bench_paged_serving.py \
		benchmarks/bench_cluster_serving.py \
		benchmarks/bench_autoscaling_serving.py \
		benchmarks/bench_auto_config.py \
		benchmarks/bench_table3_end_to_end.py --benchmark-disable -q

# The paper's figure and ablation claims asserted by their benches:
# every Fig. bench, both ablation benches, and the parallel-scaling
# sweep.  About 40 s on a 2-vCPU host, most of it Fig. 4 training its
# four model families (Figs. 6 and 7 reuse the trained decoder LM).
paper-claims:
	$(PY) -m pytest benchmarks/bench_fig04_distributions.py \
		benchmarks/bench_fig06_accuracy_sweep.py \
		benchmarks/bench_fig07_per_layer_tuning.py \
		benchmarks/bench_fig08_relative_error.py \
		benchmarks/bench_fig11_nonlinear_iso_area.py \
		benchmarks/bench_fig12_gemm_iso_area.py \
		benchmarks/bench_fig13_breakdown.py \
		benchmarks/bench_fig14_batch_sweep.py \
		benchmarks/bench_fig15_carbon.py \
		benchmarks/bench_fig16_latency_breakdown.py \
		benchmarks/bench_fig17_noc_scaling.py \
		benchmarks/bench_ablation_design_choices.py \
		benchmarks/bench_ablation_extensions.py \
		benchmarks/bench_parallel_scaling.py --benchmark-disable -q

# Two-worker end-to-end smoke of the multiprocess sweep executor.
sweep-smoke:
	$(PY) -m repro.serve.sweep --jobs 2 --requests 120

# CI-sized auto-configuration search (halving, 2 workers): the whole
# session — every rung, the full-fidelity stage, and the hand-picked
# re-score — runs through one persistent SweepExecutor, so this also
# smokes pool reuse, the worker trace cache, and the outcome memo
# end-to-end with real workers.
search-smoke:
	$(PY) -m repro.analysis.experiments auto_config --smoke

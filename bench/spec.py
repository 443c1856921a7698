"""The benchmark's definition; `run.py --write-spec` renders it as BENCHMARK.json."""

from __future__ import annotations

from spans import COUNTERS, SPAN_NAMES
from workloads import WHY

COMMAND = ["python3", "bench/run.py"]
RUN_SECONDS = 30

# Every workload reports every end-to-end metric, so only metrics that all
# three workloads have are gated; the per-command rates are per-layer below.
# Times are scaled to a fixed machine speed (speed.py).
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "flow_s", "unit": "s", "better": "lower", "bound": 0.22},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.12},
]

# per-command rates and results, from the untraced rounds of a traced run;
# 0 on a workload that does not run the command
STAGE_METRICS = {
    "train_frames_per_s": ("frames/s", "higher"),
    "train_loss_end": ("loss", "lower"),
    "gen_sentences_per_s": ("sentences/s", "higher"),
    "gen_nld": ("NLD", "lower"),
    "eval_pairs_per_s": ("pairs/s", "higher"),
    "human_pairs_per_s": ("pairs/s", "higher"),
}


def per_layer() -> list[dict]:
    out = []
    for span in SPAN_NAMES:
        out += [{"name": f"{span}.calls", "unit": "count", "better": "lower"},
                {"name": f"{span}.self_ms", "unit": "ms", "better": "lower"},
                {"name": f"{span}.ms_p50", "unit": "ms", "better": "lower"}]
    out += [{"name": name, "unit": unit, "better": "lower"} for name, unit in COUNTERS.items()]
    out += [{"name": "trace.overhead_ms", "unit": "ms", "better": "lower"},
            {"name": "trace.overhead_share", "unit": "ratio", "better": "lower"}]
    out += [{"name": name, "unit": unit, "better": better}
            for name, (unit, better) in STAGE_METRICS.items()]
    return out


def benchmark() -> dict:
    return {
        "command": COMMAND,
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WHY.items()],
        "end_to_end": END_TO_END,
        "per_layer": per_layer(),
    }

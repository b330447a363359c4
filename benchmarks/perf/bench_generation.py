"""Before/after timings for the batched generation engine.

Runs the synthesis hot paths twice — once with the legacy object-walk engine,
once with the compiled CSR engine — asserts that both produce **identical
tables for identical seeds** (the engines share one RNG protocol and compute
bit-identical mass matrices, so the outputs must match exactly, not just
statistically), and records the timings to ``BENCH_generation.json``.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.bench_generation --rows 50000
    PYTHONPATH=src python -m benchmarks.perf.bench_generation --smoke   # CI-sized

The ``speedup`` column is object-engine time divided by compiled-engine time.
Guided sampling scores each distinct context once and memoises the scores
per column, above both backbones, so its end-to-end speedup no longer
isolates the backbones.  The >=10x acceptance bar therefore applies to the
``backbone`` section, which times ``dense_masses`` and ``token_masses``
directly on 4096 inputs each, like those their callers send (see
:func:`run_backbone`); it is checked in both modes.  The ``multi_token``
section samples a table whose categories are multi-token labels, as after
GReaTER's understandability mapping, and times a cold first call (empty
score memos) and warm calls on each engine.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from pathlib import Path

import numpy as np

from repro.frame.table import Table
from repro.great.synthesizer import GReaTConfig, GReaTSynthesizer
from repro.llm.engine import ObjectBackbone
from repro.llm.finetune import FineTuneConfig
from repro.llm.ngram_model import ModelConfig
from repro.llm.sampler import SamplerConfig
from repro.relational.parent_child import ParentChildConfig, ParentChildSynthesizer

#: The section counted toward the >=10x acceptance bar.
TARGET_PATH = "backbone"
#: Compiled-over-object speedup every backbone call must reach.
BACKBONE_TARGET = 10.0
#: Contexts per backbone call in the ``backbone`` section.
BACKBONE_LANES = 4096

_CITIES = ["austin", "boston", "denver", "seattle", "miami", "portland",
           "chicago", "phoenix", "atlanta", "nashville", "tucson", "omaha"]
_DEVICES = ["phone", "tablet", "desktop", "watch", "console", "kiosk"]
_GENRES = ["country", "rock", "folk", "grunge", "jazz", "blues", "pop", "metal"]
_LABEL_WORDS = ["listens", "mostly", "late", "at", "night", "on", "weekends", "with",
                "friends", "and", "family", "in", "the", "city", "centre", "suburbs",
                "while", "commuting", "to", "work", "heavy", "light", "user", "of",
                "new", "releases", "classic", "albums", "live", "sessions"]


def _training_table(n_rows: int, seed: int) -> Table:
    """A mixed categorical/int table with realistic per-column cardinalities."""
    rng = random.Random(seed)
    names = ["person_{}".format(i) for i in range(40)]
    return Table({
        "name": [rng.choice(names) for _ in range(n_rows)],
        "city": [rng.choice(_CITIES) for _ in range(n_rows)],
        "device": [rng.choice(_DEVICES) for _ in range(n_rows)],
        "genre": [rng.choice(_GENRES) for _ in range(n_rows)],
        "clicks": [rng.randrange(30) for _ in range(n_rows)],
        "rating": [rng.randrange(1, 6) for _ in range(n_rows)],
    })


def _labelled_table(n_rows: int, seed: int) -> Table:
    """:func:`_training_table` with every text category replaced by a label
    of 3 to 10 words, as GReaTER's understandability mapping produces."""
    table = _training_table(n_rows, seed)
    rng = random.Random(seed + 1)
    columns = {}
    for name in table.column_names:
        values = table.column(name).values
        if isinstance(values[0], str):
            labels = {value: "{} {}".format(value, " ".join(rng.choices(
                _LABEL_WORDS, k=rng.randrange(2, 10)))) for value in sorted(set(values))}
            values = [labels[value] for value in values]
        columns[name] = values
    return Table(columns)


def _parent_child_tables(n_subjects: int, seed: int) -> tuple[Table, Table]:
    rng = random.Random(seed)
    subjects = ["user_{}".format(i) for i in range(n_subjects)]
    parent = Table({
        "user_id": subjects,
        "city": [rng.choice(_CITIES) for _ in subjects],
        "device": [rng.choice(_DEVICES) for _ in subjects],
    })
    child_records = []
    for subject in subjects:
        for _ in range(rng.randrange(1, 4)):
            child_records.append({
                "user_id": subject,
                "genre": rng.choice(_GENRES),
                "clicks": rng.randrange(30),
            })
    return parent, Table.from_records(child_records,
                                      columns=["user_id", "genre", "clicks"])


def _backbone(engine: str, strategy: str, seed: int) -> GReaTConfig:
    model = ModelConfig(order=6, smoothing=0.005,
                        interpolation=(0.42, 0.24, 0.14, 0.1, 0.06, 0.04))
    fine_tune = FineTuneConfig(epochs=3, batches=3, seed=seed, model=model)
    sampler = SamplerConfig(temperature=0.85, top_k=12, seed=seed, engine=engine)
    return GReaTConfig(fine_tune=fine_tune, sampler=sampler,
                       sampling_strategy=strategy, seed=seed)


# -- benchmark bodies: each returns (timed_callable, result_to_compare) -------------

def bench_guided_sample(engine: str, rows: int, seed: int):
    synth = GReaTSynthesizer(_backbone(engine, "guided", seed))
    synth.fit(_training_table(400, seed))
    return lambda: synth.sample(rows, seed=seed + 1).to_records()


def bench_free_sample(engine: str, rows: int, seed: int):
    synth = GReaTSynthesizer(_backbone(engine, "free", seed))
    synth.fit(_training_table(400, seed))
    n = max(rows // 10, 1)  # free generation retries internally; keep runtime sane
    return lambda: synth.sample(n, seed=seed + 1).to_records()


def bench_parent_child_sample(engine: str, rows: int, seed: int):
    parent, child = _parent_child_tables(200, seed)
    config = ParentChildConfig(parent=_backbone(engine, "guided", seed),
                               child=_backbone(engine, "guided", seed), seed=seed)
    synth = ParentChildSynthesizer(config).fit(parent, child, "user_id")
    n_parents = max(rows // 20, 1)  # ~2 children per parent on average
    def body():
        parent_table, child_table, flat = synth.sample_all(n_parents, seed=seed + 1)
        return parent_table.to_records() + child_table.to_records() + flat.to_records()
    return body


def run_multi_token(rows: int, seed: int, repeats: int) -> dict:
    """Guided sampling of multi-token labels: a cold first call, then warm calls."""
    timings: dict[str, dict] = {}
    outputs: dict[str, list] = {}
    for engine in ("object", "compiled"):
        synth = GReaTSynthesizer(_backbone(engine, "guided", seed))
        synth.fit(_labelled_table(400, seed))
        start = time.perf_counter()
        cold = synth.sample(rows, seed=seed + 1).to_records()
        cold_s = time.perf_counter() - start
        warm_s = float("inf")
        for repeat in range(max(repeats, 3)):
            start = time.perf_counter()
            warm = synth.sample(rows, seed=seed + 2 + repeat).to_records()
            warm_s = min(warm_s, time.perf_counter() - start)
        timings[engine] = {"cold_s": round(cold_s, 6), "warm_s": round(warm_s, 6)}
        outputs[engine] = cold + warm
    candidates = next(iter(synth._candidate_token_ids.values()))
    return {
        **timings,
        "rows": rows,
        "tokens_per_candidate": round(
            sum(len(tokens) for tokens in candidates) / len(candidates), 2),
        "identical_output": outputs["object"] == outputs["compiled"],
    }


class _RecordingBackbone:
    """Passes backbone calls through, keeping every ``token_masses`` argument."""

    def __init__(self, backbone):
        self.backbone = backbone
        self.token_calls: list[tuple] = []

    def dense_masses(self, contexts, lengths):
        return self.backbone.dense_masses(contexts, lengths)

    def token_masses(self, contexts, lengths, tokens):
        self.token_calls.append((contexts, lengths, tokens))
        return self.backbone.token_masses(contexts, lengths, tokens)


def run_backbone(seed: int, repeats: int) -> dict:
    """``dense_masses``/``token_masses`` of both backbones, each call on
    :data:`BACKBONE_LANES` inputs like those its main caller sends.

    ``dense_masses`` (every free-generation step) gets full-width windows
    of text the model generated; ``token_masses`` (guided scoring only)
    gets the candidate windows guided scoring builds for the multi-token
    labels, recorded while sampling with cold score memos.
    """
    synth = GReaTSynthesizer(_backbone("compiled", "guided", seed))
    synth.fit(_labelled_table(400, seed))
    model = synth.model
    width = model.config.order - 1
    windows = [sequence[end - width:end]
               for sequence in synth.engine.generate_ids_batch(BACKBONE_LANES // 8, seed=seed)
               for end in range(width, len(sequence))]
    picks = np.random.default_rng(seed).choice(len(windows), size=BACKBONE_LANES,
                                               replace=len(windows) < BACKBONE_LANES)
    contexts = np.array(windows, dtype=np.int64)[picks]
    lengths = np.full(BACKBONE_LANES, width, dtype=np.int64)
    recorder = _RecordingBackbone(synth.engine._backbone)
    synth.engine._backbone = recorder
    for round_seed in range(seed, seed + 64):
        if sum(call[0].shape[0] for call in recorder.token_calls) >= BACKBONE_LANES:
            break
        for candidates in synth._candidate_token_ids.values():
            candidates.memo.clear()
        synth.sample(512, seed=round_seed)
    synth.engine._backbone = recorder.backbone
    token_args = [np.concatenate(parts)[:BACKBONE_LANES]
                  for parts in zip(*recorder.token_calls)]
    backbones = {"object": ObjectBackbone(model), "compiled": model.compiled_model()}
    calls = {"dense_masses": lambda backbone: backbone.dense_masses(contexts, lengths),
             "token_masses": lambda backbone: backbone.token_masses(*token_args)}
    report: dict = {"lanes": BACKBONE_LANES}
    for name, call in calls.items():
        best = dict.fromkeys(backbones, float("inf"))
        results = {}
        # alternate the backbones so both see the same phases of a busy host
        for _ in range(max(repeats, 7)):
            for kind, backbone in backbones.items():
                start = time.perf_counter()
                results[kind] = call(backbone)
                best[kind] = min(best[kind], time.perf_counter() - start)
        report[name] = {
            "object_s": round(best["object"], 6),
            "compiled_s": round(best["compiled"], 6),
            "speedup": round(best["object"] / best["compiled"], 2),
            "identical_output": bool(np.array_equal(results["object"], results["compiled"])),
        }
    return report


BENCHMARKS = [
    ("guided_sample", bench_guided_sample),
    ("free_sample", bench_free_sample),
    ("parent_child_sample", bench_parent_child_sample),
]


def run(rows: int, seed: int = 7, repeats: int = 1, multi_token_rows: int = 2000) -> dict:
    """Run every benchmark on both engines and return the report dict."""
    results: dict[str, dict] = {}
    outputs: dict[str, dict] = {"object": {}, "compiled": {}}
    timings: dict[str, dict] = {"object": {}, "compiled": {}}

    for engine in ("object", "compiled"):
        for name, build in BENCHMARKS:
            body = build(engine, rows, seed)
            best = float("inf")
            for _ in range(max(repeats, 1)):
                start = time.perf_counter()
                outputs[engine][name] = body()
                best = min(best, time.perf_counter() - start)
            timings[engine][name] = best

    for name, _ in BENCHMARKS:
        identical = outputs["object"][name] == outputs["compiled"][name]
        object_s = timings["object"][name]
        compiled_s = timings["compiled"][name]
        results[name] = {
            "object_s": round(object_s, 6),
            "compiled_s": round(compiled_s, 6),
            "speedup": round(object_s / compiled_s, 2) if compiled_s > 0 else float("inf"),
            "identical_output": identical,
            "generated_rows": len(outputs["compiled"][name]),
        }

    multi_token = run_multi_token(multi_token_rows, seed, repeats)
    backbone = run_backbone(seed, repeats)
    backbone_calls = [backbone[name] for name in ("dense_masses", "token_masses")]
    return {
        "rows": rows,
        "seed": seed,
        "numpy_version": np.__version__,
        "benchmarks": results,
        "multi_token": multi_token,
        "backbone": backbone,
        "all_identical": (all(entry["identical_output"] for entry in results.values())
                          and multi_token["identical_output"]
                          and all(call["identical_output"] for call in backbone_calls)),
        "target_path": TARGET_PATH,
        "meets_10x_target": all(call["speedup"] >= BACKBONE_TARGET
                                for call in backbone_calls),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the object vs compiled generation engines."
    )
    parser.add_argument("--rows", type=int, default=50_000,
                        help="rows generated by the guided-sampling path (default 50000)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (500 rows, 200 multi-token rows)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=1,
                        help="timing repetitions per benchmark (best-of)")
    parser.add_argument("--out", type=Path, default=Path("BENCH_generation.json"),
                        help="output JSON path (default ./BENCH_generation.json)")
    args = parser.parse_args(argv)

    rows = 500 if args.smoke else args.rows
    report = run(rows, seed=args.seed, repeats=args.repeats,
                 multi_token_rows=200 if args.smoke else max(rows // 25, 1))
    report["mode"] = "smoke" if args.smoke else "full"
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    width = max(len(name) for name, _ in BENCHMARKS)
    print(f"rows={rows}  (object vs compiled generation engine)")
    line = "{}{:<{width}}  object {:>9.3f}s  compiled {:>9.3f}s  speedup {:>7.2f}x  identical={}"
    for name, _ in BENCHMARKS:
        entry = report["benchmarks"][name]
        print(line.format(" ", name, entry["object_s"], entry["compiled_s"], entry["speedup"],
                          entry["identical_output"], width=width))
    multi = report["multi_token"]
    print("multi-token guided: {} rows, {} tokens/candidate, identical={}".format(
        multi["rows"], multi["tokens_per_candidate"], multi["identical_output"]))
    for phase in ("cold", "warm"):
        object_s = multi["object"][phase + "_s"]
        compiled_s = multi["compiled"][phase + "_s"]
        print(line.format(" ", phase, object_s, compiled_s, object_s / compiled_s,
                          multi["identical_output"], width=width))
    print("backbone calls on {} contexts:".format(report["backbone"]["lanes"]))
    for name in ("dense_masses", "token_masses"):
        entry = report["backbone"][name]
        print(line.format("*", name, entry["object_s"], entry["compiled_s"], entry["speedup"],
                          entry["identical_output"], width=width))
    print("wrote {}".format(args.out))

    if not report["all_identical"]:
        print("ERROR: engines disagree on at least one generated table or mass array")
        return 1
    if not report["meets_10x_target"]:
        print("ERROR: a backbone call did not reach the {:.0f}x target".format(BACKBONE_TARGET))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

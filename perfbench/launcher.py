"""Start ``repro.cli serve`` with extra spans around layer entry points.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/launcher.py --registry DIR --digest HEX --trace FILE ...

The arguments are those of ``serve``.  Before the CLI builds the worker
pool, the public functions below are wrapped in ``repro.obs.trace.span``;
the pool forks its workers from this process, so the workers run the
wrapped functions too and ship their spans back over the result pipe into
the same trace file, next to the program's own spans.  While tracing is
off every wrapper calls straight through.
"""

from __future__ import annotations

import functools
import sys

import numpy as np

from repro import cli
from repro.llm.engine import GuidedBatchSession
from repro.obs import trace as obs
from repro.schema.multitable import EdgeSynthesizer
from repro.serving import server, workers


def _wrap(owner, attr: str, name: str, attrs=None) -> None:
    """Replace ``owner.attr`` with a version timed as span *name*.

    *attrs*, if given, maps the call's arguments to span attributes; it
    runs before the span starts, so its cost stays out of the span.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        if not obs.enabled():
            return original(*args, **kwargs)
        with obs.span(name, attrs=attrs(*args, **kwargs) if attrs else None) as sp:
            result = original(*args, **kwargs)
            if isinstance(result, bytes):
                sp.set_attr("bytes", len(result))
            return result

    setattr(owner, attr, traced)


def _choose_counts(session, token_lists, *args, **kwargs) -> dict:
    """Lanes, candidates, candidate tokens and distinct contexts of one call."""
    keys = np.concatenate([session.contexts, session.lengths[:, None]], axis=1)
    return {"lanes": int(session.n_lanes),
            "candidates": len(token_lists),
            "candidate_tokens": int(sum(len(tokens) for tokens in token_lists)),
            "distinct_contexts": int(len(np.unique(keys, axis=0)))}


def install() -> None:
    _wrap(server, "table_payload", "server.table_payload")
    _wrap(workers.WorkerPool, "sample_blocks", "pool.dispatch")
    _wrap(workers.WorkerPool, "sample_database", "pool.dispatch")
    _wrap(workers, "encode_table", "ipc.encode")
    _wrap(workers, "decode_table", "ipc.decode",
          attrs=lambda blob: {"bytes": len(blob)})
    _wrap(GuidedBatchSession, "choose", "engine.choose", attrs=_choose_counts)
    _wrap(GuidedBatchSession, "extend_rows", "engine.extend_rows")
    _wrap(EdgeSynthesizer, "sample_children", "schema.sample_children")


if __name__ == "__main__":
    install()
    sys.exit(cli.main(["serve", *sys.argv[1:]]))

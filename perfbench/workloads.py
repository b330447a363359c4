"""The workloads: what each one fits, how it is served, what it requests,
and how its answers are checked.

The training inputs are fixed per workload, so every run fits and serves
the same artifact.  The fitted model's shape swings with its training
data (on the 40-user DIGIX-like trial, rows per subject more than double
between data seeds), which would make runs with different seeds measure
different work.  ``--seed`` draws the request list: every request gets its
own sampling seed, so the result cache never answers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

#: Seed of the warm-up request; no request in a list uses it.
WARMUP_SEED = 0
#: Fit seed of the DIGIX-like trial (the CLI's default seed).
DIGIX_FIT_SEED = 7
#: Users per task of the DIGIX-like trial.
DIGIX_USERS = 40
#: Size and seed of the 5-table retail-like database.
RETAIL_CUSTOMERS = 130
RETAIL_DATA_SEED = 0
RETAIL_FIT_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    #: "stream" (POST /sample_table with ``stream``) or "database"
    #: (POST /sample_database)
    endpoint: str
    #: subjects per request; ``None`` asks for the training size
    n: int | None
    #: ``serve --block-size``
    block_size: int
    #: closed-loop client threads
    clients: int
    #: a timed run completes at least this many requests; the output
    #: digest covers exactly these, and peak memory is read after them
    min_requests: int
    #: length of the fixed request list of a traced run
    trace_requests: int


#: Two workloads, so that runs of 50 s take about as long in total as three
#: workloads of 30 s did; longer runs average over more of the host's slow
#: phases.  A buffered DIGIX workload (n=128 in 64-subject blocks) was
#: dropped: it serves the same artifact through the same layers as
#: digix-stream, and its few multi-second requests per run made it the
#: most expensive to steady.
WORKLOADS = {
    "digix-stream": Workload("digix-stream", "stream", 16, 8, 1, 8, 6),
    "retail-db": Workload("retail-db", "database", None, 64, 2, 200, 100),
}


def request_seeds(workload: Workload, seed: int, count: int) -> list[int]:
    """*count* distinct request seeds drawn from the workload seed."""
    rng = random.Random("{}:{}".format(workload.name, seed))
    seen = {WARMUP_SEED}
    seeds = []
    while len(seeds) < count:
        value = rng.randrange(1, 2**31)
        if value not in seen:
            seen.add(value)
            seeds.append(value)
    return seeds


def fit_argv(workload: Workload, registry: Path, workdir: Path) -> list[str]:
    """``repro.cli`` arguments that fit the workload's artifact into *registry*
    (writing the training CSVs the CLI reads, for the retail database)."""
    if workload.name.startswith("digix"):
        return ["fit", "--pipeline", "greater", "--registry", str(registry),
                "--users-per-task", str(DIGIX_USERS),
                "--semantic-level", "understandability",
                "--seed", str(DIGIX_FIT_SEED)]
    data_dir = workdir / "retail-csv"
    if not data_dir.is_dir():
        from repro.datasets.relational import RetailConfig, generate_retail_like
        from repro.frame.io import write_csv

        data_dir.mkdir()
        tables = generate_retail_like(RetailConfig(n_customers=RETAIL_CUSTOMERS,
                                                   seed=RETAIL_DATA_SEED))
        for name, table in tables.items():
            write_csv(table, data_dir / "{}.csv".format(name))
    return ["run", "--pipeline", "multitable", "--data-dir", str(data_dir),
            "--registry", str(registry), "--seed", str(RETAIL_FIT_SEED)]


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class Reference:
    """The in-process answers of the served artifact, and the output checks."""

    def __init__(self, workload: Workload, registry: Path, digest: str):
        from repro.registry import Registry
        from repro.serving import ServingConfig, SynthesisService

        fitted, digest = Registry(registry).load(digest, mmap=True)
        self.workload = workload
        self.service = SynthesisService(
            fitted, ServingConfig(block_size=workload.block_size, cache_bytes=0),
            digest=digest)
        self.foreign_keys = (list(fitted.graph.foreign_keys)
                             if workload.endpoint == "database" else [])

    def answer(self, seed: int):
        """What the server must answer for *seed*, as parsed JSON."""
        from repro.serving.server import table_payload

        service, workload = self.service, self.workload
        if workload.endpoint == "stream":
            answer = [table_payload(block)
                      for block in service.iter_sample_table(workload.n, seed=seed)]
        else:
            answer = {"tables": {name: table_payload(table) for name, table
                                 in service.sample_database(workload.n, seed=seed).items()}}
        return json.loads(json.dumps(answer))

    def checker(self, first_seed: int):
        """A check for every answer; the answer to *first_seed* must also
        equal the in-process answer row for row."""
        expected = self.answer(first_seed)
        expected_text = canonical(expected)
        endpoint = self.workload.endpoint
        if endpoint == "stream":
            columns = expected[0]["columns"]
            chunks = len(expected)
        else:
            columns = {name: table["columns"] for name, table in expected["tables"].items()}
        foreign_keys = self.foreign_keys

        def check(outcome, parsed) -> list[str]:
            problems = []
            if endpoint == "stream":
                tables = {"chunk {}".format(i): chunk for i, chunk in enumerate(parsed)}
                expected_columns = {name: columns for name in tables}
                if len(parsed) != chunks:
                    problems.append("{} chunks, expected {}".format(len(parsed), chunks))
            else:
                tables = parsed["tables"]
                expected_columns = columns
                if sorted(tables) != sorted(columns):
                    problems.append("tables {} != {}".format(sorted(tables), sorted(columns)))
            for name, table in tables.items():
                if table["columns"] != expected_columns.get(name):
                    problems.append("{}: columns {} differ from the artifact's".format(
                        name, table["columns"]))
            for fk in foreign_keys:
                keys = {row[fk.parent_column] for row in tables[fk.parent_table]["rows"]}
                dangling = sum(1 for row in tables[fk.table]["rows"]
                               if row[fk.column] is not None and row[fk.column] not in keys)
                if dangling:
                    problems.append("{}: {} dangling keys".format(fk.edge_name, dangling))
            outcome.rows = sum(len(table["rows"]) for table in tables.values())
            if outcome.rows == 0:
                problems.append("no rows")
            if outcome.seed == first_seed and canonical(parsed) != expected_text:
                problems.append("answer differs from the in-process SynthesisService")
            return problems

        return check

"""Per-layer attribution of a traced run: self times that add up to wall time.

Each benchmark request becomes one tree.  Its root is the client's view
of the request (send until the answer is parsed); under it hang the
server's ``server.request`` span tree, read from the trace file by the
request's trace id, and the client's JSON-parse intervals
(``client.decode``).

A span's self time is its duration minus the part of it that its children
cover.  Parts of one request can run at once (the server decodes block 1
while the worker samples block 2; the client parses chunk k while the
server samples chunk k+1), so an instant covered by several children is
split equally between the working children that cover it.  A queue-wait
child only gets the instants no working sibling covers: waiting behind
the request's own earlier block is not time the request lost to the
queue.  With that rule every instant of the client's wall time belongs to
exactly one span, so the self times sum to the wall time; what the root
keeps (connection, request write, response read) is ``unattributed``.
"""

from __future__ import annotations

from collections import defaultdict

CLIENT_ROOT = "unattributed"
CLIENT_DECODE = "client.decode"


def _is_wait(name: str) -> bool:
    return name.endswith("queue_wait")


class Node:
    __slots__ = ("name", "start", "end", "attrs", "children")

    def __init__(self, name: str, start: float, end: float, attrs: dict | None = None):
        self.name, self.start, self.end = name, float(start), float(end)
        self.attrs = attrs or {}
        self.children: list[Node] = []


def build_trees(spans: list[dict], requests: list[dict]) -> tuple[list[Node], list[str]]:
    """One tree per request.  *requests* carry ``trace_id``, ``send_us``,
    ``end_us`` and ``decode`` (client parse intervals)."""
    by_trace: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_trace[span["trace_id"]].append(span)
    trees, problems = [], []
    for request in requests:
        root = Node(CLIENT_ROOT, request["send_us"], request["end_us"])
        group = by_trace.get(request["trace_id"], [])
        nodes = {span["span_id"]: Node(span["name"], span["start_us"],
                                       span["start_us"] + span["duration_us"],
                                       span.get("attrs"))
                 for span in group}
        servers = [span for span in group if span["name"] == "server.request"]
        if len(servers) != 1:
            problems.append("trace {} holds {} server.request spans".format(
                request["trace_id"], len(servers)))
        for span in group:
            parent = nodes.get(span.get("parent_id"))
            if parent is None and span["name"] != "server.request":
                problems.append("span {} of trace {} has no parent in the trace".format(
                    span["name"], request["trace_id"]))
            (parent or root).children.append(nodes[span["span_id"]])
        for start, end in request["decode"]:
            root.children.append(Node(CLIENT_DECODE, start, end))
        trees.append(root)
    return trees, problems


def self_times(root: Node) -> dict[str, float]:
    """Self time per span name (microseconds) for one tree; sums to the
    root's duration."""
    totals: dict[str, float] = defaultdict(float)
    _attribute(root, [(root.start, root.end, 1.0)], totals)
    return totals


def _attribute(node: Node, shares: list[tuple[float, float, float]],
               totals: dict[str, float]) -> None:
    """Give *node* the instants of *shares* no child covers; hand the rest
    down.  *shares* are ``(start, end, weight)`` pieces of this node's
    interval with the fraction of each instant that this node owns."""
    children = []
    for child in node.children:
        start, end = max(child.start, node.start), min(child.end, node.end)
        if end > start:
            children.append((child, start, end))
    cuts = {point for start, end, _ in shares for point in (start, end)}
    cuts.update(point for _, start, end in children for point in (start, end))
    cuts = sorted(cuts)
    handed: dict[int, list] = defaultdict(list)
    own = 0.0
    piece = 0
    for left, right in zip(cuts, cuts[1:]):
        while piece < len(shares) and shares[piece][1] <= left:
            piece += 1
        if piece == len(shares) or shares[piece][0] > left:
            continue  # not an instant this node owns any part of
        weight = shares[piece][2]
        active = [slot for slot, (_, start, end) in enumerate(children)
                  if start <= left and end >= right]
        working = [slot for slot in active if not _is_wait(children[slot][0].name)]
        takers = working or active
        if not takers:
            own += weight * (right - left)
            continue
        for slot in takers:
            handed[slot].append((left, right, weight / len(takers)))
    totals[node.name] += own
    for slot, pieces in handed.items():
        _attribute(children[slot][0], pieces, totals)


def walk(root: Node):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)

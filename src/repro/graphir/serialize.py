"""GraphIR JSON serialization (Yosys-JSON-inspired interchange format).

Lets circuit graphs be stored, diffed, and exchanged without re-running
elaboration:

.. code-block:: json

    {
      "format": "repro-graphir",
      "version": 1,
      "name": "mac8",
      "nodes": [{"id": 0, "type": "io", "width": 8, "label": "a"}, ...],
      "edges": [[0, 2], [1, 2], ...]
    }
"""

from __future__ import annotations

import json
import os

from .compiled import CompiledGraph, GraphBuilder

__all__ = ["to_json", "from_json", "save_graph", "load_graph"]

_FORMAT = "repro-graphir"
_VERSION = 1


def to_json(graph: CompiledGraph, indent: int | None = None) -> str:
    """Serialize a circuit graph to a JSON string."""
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "name": graph.name,
        "nodes": [
            {"id": i, "type": t, "width": w, "label": label}
            for i, (t, w, label) in enumerate(zip(
                graph.type_names, graph.widths.tolist(), graph.labels))
        ],
        "edges": [[src, dst] for src, dst in graph.edges()],
    }
    return json.dumps(doc, indent=indent)


def from_json(text: str) -> CompiledGraph:
    """Parse a graph serialized by :func:`to_json`.

    Node ids are preserved, so path records and activity maps referring
    to the original graph remain valid on the loaded copy.
    """
    doc = json.loads(text)
    if doc.get("format") != _FORMAT:
        raise ValueError(f"not a {_FORMAT} document: format={doc.get('format')!r}")
    if doc.get("version") != _VERSION:
        raise ValueError(f"unsupported version {doc.get('version')!r}")

    builder = GraphBuilder(doc.get("name", "design"))
    for node in sorted(doc["nodes"], key=lambda n: n["id"]):
        new_id = builder.add_node(node["type"], node["width"], node.get("label", ""))
        if new_id != node["id"]:
            raise ValueError(
                f"non-contiguous node ids not supported: {node['id']} -> {new_id}")
    for src, dst in doc["edges"]:
        builder.add_edge(src, dst)
    return builder.compile()


def save_graph(graph: CompiledGraph, path: str | os.PathLike) -> None:
    """Write a graph to a ``.json`` file."""
    with open(path, "w") as f:
        f.write(to_json(graph, indent=1))


def load_graph(path: str | os.PathLike) -> CompiledGraph:
    """Load a graph written by :func:`save_graph`."""
    with open(path) as f:
        return from_json(f.read())

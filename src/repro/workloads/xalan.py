"""xalan: an XSLT-style XML transformer (DaCapo).

The kernel parses deterministic synthetic XML documents into an element
tree, applies template rules (tag renaming, attribute filtering,
subtree flattening), and serializes the result — the parse/transform/
serialize profile of the real xalan.  Used for Figure 6 overhead and
the E3 temperature-casing runs (one transformed document is the
paper's example of a unit of work).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.workloads.base import ES, FT, MG, TaskResult, Workload

_SCALE = 12.0


@dataclass
class _Element:
    tag: str
    attrs: Dict[str, str] = field(default_factory=dict)
    children: List["_Element"] = field(default_factory=list)
    text: str = ""


_TAGS = ("row", "entry", "item", "meta", "cell", "group")


def _gen_document(rng: random.Random, depth: int = 3,
                  fanout: int = 5) -> _Element:
    root = _Element("doc")
    stack = [(root, 0)]
    while stack:
        node, level = stack.pop()
        if level >= depth:
            node.text = f"v{rng.randrange(1_000)}"
            continue
        for _ in range(1 + rng.randrange(fanout)):
            child = _Element(_TAGS[rng.randrange(len(_TAGS))],
                             {"id": str(rng.randrange(10_000))})
            node.children.append(child)
            stack.append((child, level + 1))
    return root


def _serialize(node: _Element, out: List[str]) -> int:
    """Render to XML text, returning the node count."""
    attrs = "".join(f' {k}="{v}"' for k, v in node.attrs.items())
    out.append(f"<{node.tag}{attrs}>")
    count = 1
    if node.text:
        out.append(node.text)
    for child in node.children:
        count += _serialize(child, out)
    out.append(f"</{node.tag}>")
    return count


def _parse(text: str) -> int:
    """A real tag-level XML scanner (validates nesting); returns the
    number of elements scanned."""
    stack: List[str] = []
    count = 0
    index = 0
    while index < len(text):
        if text[index] != "<":
            index += 1
            continue
        end = text.index(">", index)
        token = text[index + 1:end]
        if token.startswith("/"):
            opened = stack.pop()
            assert opened == token[1:], "malformed XML"
        else:
            tag = token.split(" ", 1)[0]
            stack.append(tag)
            count += 1
        index = end + 1
    assert not stack, "unbalanced XML"
    return count


def _transform(node: _Element) -> int:
    """Apply template rules in place; returns nodes touched."""
    touched = 1
    if node.tag == "entry":
        node.tag = "item"
    node.attrs = {k: v for k, v in node.attrs.items() if k != "id"}
    flattened: List[_Element] = []
    for child in node.children:
        touched += _transform(child)
        if child.tag == "meta" and not child.children:
            continue  # filter empty metadata
        if child.tag == "group":
            flattened.extend(child.children)  # flatten groups
        else:
            flattened.append(child)
    node.children = flattened
    return touched


class Xalan(Workload):
    name = "xalan"
    description = "transformer"
    systems = ("A",)
    cloc = 169_927
    ent_changes = 33

    workload_kind = "XML documents"
    workload_labels = {ES: "250", MG: "800", FT: "1600"}
    qos_kind = "template passes"
    qos_labels = {ES: "1", MG: "2", FT: "3"}

    # One counted op = one element visit, full corpus.
    work_scale = 2.3e-2

    supports_temperature = True
    e3_units = 240

    _SIZES = {ES: 250, MG: 800, FT: 1600}
    _QOS = {ES: 1, MG: 2, FT: 3}
    _THRESHOLDS = {MG: 450, FT: 1000}

    def execute(self, platform, size: float, qos: float,
                seed: int = 0) -> TaskResult:
        documents = max(1, int(size / _SCALE))
        passes = max(1, int(qos))
        rng = random.Random(seed * 313 + documents)
        visited = 0
        out_bytes = 0
        for _ in range(documents):
            doc = _gen_document(rng)
            text_parts: List[str] = []
            nodes = _serialize(doc, text_parts)
            text = "".join(text_parts)
            platform.io_bytes(len(text))
            visited += _parse(text)
            for _ in range(passes):
                visited += _transform(doc)
            rendered: List[str] = []
            _serialize(doc, rendered)
            out_bytes += sum(len(part) for part in rendered)
            visited += nodes
        self.charge(platform, visited * _SCALE * 3.0)
        platform.io_bytes(out_bytes * _SCALE)
        return TaskResult(units_done=documents,
                          detail={"elements": float(visited)})

    def execute_unit(self, platform, qos: float, seed: int = 0) -> None:
        """E3 unit: transform one batch of documents (one 'XML file')."""
        self.execute(platform, self._SIZES[FT] / 8.0, qos, seed=seed)

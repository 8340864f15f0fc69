"""Strict parsing of tagged model output.

Model responses carry their payload inside XML-ish tags (`<Title>...</Title>`,
`<Section-1>...</Section-1>`). Tag names match case-sensitively; whitespace
inside a tag is trimmed; nesting or unbalanced markers are rejected rather
than guessed at.
"""

from __future__ import annotations

import re


class TagError(Exception):
    """A reply that breaks the tag protocol, or that a parse cannot use (such
    as an empty text or an odd verdict); AgentRuntime.ask re-asks it."""


def _scan_blocks(output: str, base: str, numbered: bool) -> list[tuple[int | None, str]]:
    """Return (index, inner text) of every well-formed block, in order.

    Blocks are <base>...</base> with index None or, when numbered,
    <base-k>...</base-k> with index k. Raises TagError on any stray, nested,
    mismatched or out-of-order marker.
    """
    marker = re.compile(rf"<(/?){re.escape(base)}" + (r"-(\d+)>" if numbered else ">"))

    def unclosed(index: int | None, detail: str) -> TagError:
        name = f"{base}-{index}" if numbered else base
        return TagError(f"tag <{name}>: {detail}")

    blocks: list[tuple[int | None, str]] = []
    open_index: int | None = None
    open_end: int | None = None
    for match in marker.finditer(output):
        index = int(match.group(2)) if numbered else None
        if not match.group(1):
            if open_end is not None:
                raise unclosed(open_index, "nested block" if numbered else "nested same-name tag")
            open_index, open_end = index, match.end()
        else:
            if open_end is None:
                raise unclosed(index, "closing marker without opener")
            if index != open_index:
                raise unclosed(open_index, f"closed by mismatched index {index}")
            blocks.append((index, output[open_end : match.start()]))
            open_end = None
    if open_end is not None:
        raise unclosed(open_index, "opening marker never closed")
    return blocks


def extract_tag(output: str, tag_name: str) -> str:
    """The trimmed contents of the one <tag_name>...</tag_name> block."""
    contents = [text.strip() for _, text in _scan_blocks(output, tag_name, numbered=False)]
    if not contents:
        raise TagError(f"tag <{tag_name}> not found in output")
    if len(contents) > 1:
        raise TagError(f"tag <{tag_name}> expected exactly once, found {len(contents)}")
    return contents[0]


def extract_sections(output: str, tag_base: str = "Section") -> list[tuple[int, str]]:
    """Parse all <Base-k>...</Base-k> blocks, requiring indices 1..m in order
    and some text in each block."""
    blocks = [(k, text.strip()) for k, text in _scan_blocks(output, tag_base, numbered=True)]
    if not blocks:
        raise TagError(f"no <{tag_base}-k> blocks found in output")
    found = [k for k, _ in blocks]
    if found != list(range(1, len(found) + 1)):
        raise TagError(f"<{tag_base}-k> indices must start at 1 and increase by 1, found {found}")
    for k, text in blocks:
        if not text:
            raise TagError(f"block <{tag_base}-{k}> is empty")
    return blocks


def render_sections(blocks: list[tuple[int, str]], tag_base: str = "Section") -> str:
    """Inverse of extract_sections; used when exporting collected trees."""
    return "\n\n".join(f"<{tag_base}-{k}> {text} </{tag_base}-{k}>" for k, text in blocks)

"""Strict parsing of tagged model output.

Model responses carry their payload inside XML-ish tags (`<Title>...</Title>`,
`<Section-1>...</Section-1>`). Tag names match case-sensitively; whitespace
inside a tag is trimmed; nesting or unbalanced markers are rejected rather
than guessed at.
"""

from __future__ import annotations

import re


class TagError(Exception):
    """Base class for tag-protocol parse failures."""


class TagMissingError(TagError):
    def __init__(self, tag_name: str):
        self.tag_name = tag_name
        super().__init__(f"tag <{tag_name}> not found in output")


class TagDuplicatedError(TagError):
    def __init__(self, tag_name: str, count: int):
        self.tag_name = tag_name
        self.count = count
        super().__init__(f"tag <{tag_name}> expected exactly once, found {count}")


class TagUnclosedError(TagError):
    def __init__(self, tag_name: str, detail: str = "unbalanced tag markers"):
        self.tag_name = tag_name
        super().__init__(f"tag <{tag_name}>: {detail}")


class NoSectionsError(TagError):
    def __init__(self, tag_base: str):
        self.tag_base = tag_base
        super().__init__(f"no <{tag_base}-k> blocks found in output")


class NonContiguousIndicesError(TagError):
    def __init__(self, tag_base: str, found: list[int]):
        self.tag_base = tag_base
        self.found = found
        super().__init__(
            f"<{tag_base}-k> indices must start at 1 and increase by 1, found {found}"
        )


class EmptyBlockError(TagError):
    def __init__(self, tag_name: str):
        self.tag_name = tag_name
        super().__init__(f"block <{tag_name}> is empty")


def _scan_blocks(output: str, base: str, numbered: bool) -> list[tuple[int | None, str]]:
    """Return (index, inner text) of every well-formed block, in order.

    Blocks are <base>...</base> with index None or, when numbered,
    <base-k>...</base-k> with index k. Raises TagUnclosedError on any stray,
    nested, mismatched or out-of-order marker.
    """
    marker = re.compile(rf"<(/?){re.escape(base)}" + (r"-(\d+)>" if numbered else ">"))

    def name(index: int | None) -> str:
        return f"{base}-{index}" if numbered else base

    blocks: list[tuple[int | None, str]] = []
    open_index: int | None = None
    open_end: int | None = None
    for match in marker.finditer(output):
        index = int(match.group(2)) if numbered else None
        if not match.group(1):
            if open_end is not None:
                raise TagUnclosedError(
                    name(open_index), "nested block" if numbered else "nested same-name tag"
                )
            open_index, open_end = index, match.end()
        else:
            if open_end is None:
                raise TagUnclosedError(name(index), "closing marker without opener")
            if index != open_index:
                raise TagUnclosedError(name(open_index), f"closed by mismatched index {index}")
            blocks.append((index, output[open_end : match.start()]))
            open_end = None
    if open_end is not None:
        raise TagUnclosedError(name(open_index), "opening marker never closed")
    return blocks


def extract_tag(output: str, tag_name: str) -> str:
    """The trimmed contents of the one <tag_name>...</tag_name> block."""
    contents = [text.strip() for _, text in _scan_blocks(output, tag_name, numbered=False)]
    if not contents:
        raise TagMissingError(tag_name)
    if len(contents) > 1:
        raise TagDuplicatedError(tag_name, len(contents))
    return contents[0]


def wrap_tag(content: str, tag_name: str) -> str:
    return f"<{tag_name}>{content}</{tag_name}>"


def extract_sections(output: str, tag_base: str = "Section") -> list[tuple[int, str]]:
    """Parse all <Base-k>...</Base-k> blocks, requiring indices 1..m in order
    and some text in each block."""
    blocks = [(k, text.strip()) for k, text in _scan_blocks(output, tag_base, numbered=True)]
    if not blocks:
        raise NoSectionsError(tag_base)
    found = [k for k, _ in blocks]
    if found != list(range(1, len(found) + 1)):
        raise NonContiguousIndicesError(tag_base, found)
    for k, text in blocks:
        if not text:
            raise EmptyBlockError(f"{tag_base}-{k}")
    return blocks


def render_sections(blocks: list[tuple[int, str]], tag_base: str = "Section") -> str:
    """Inverse of extract_sections; used when exporting collected trees."""
    return "\n\n".join(f"<{tag_base}-{k}> {text} </{tag_base}-{k}>" for k, text in blocks)

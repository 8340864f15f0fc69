from __future__ import annotations

import pytest
from hypothesis import given
import hypothesis.strategies as st

from patentgen.tags import TagError, extract_sections, extract_tag, render_sections
from helpers import wrap_tag


def test_extracts_trimmed_content():
    assert extract_tag("<Result> Pass </Result>", "Result") == "Pass"


def test_extracts_from_surrounding_text():
    assert extract_tag("pre <Title>A Widget</Title> post", "Title") == "A Widget"


def test_duplicate_rejected_for_exactly_one():
    with pytest.raises(TagError, match=r"^tag <Title> expected exactly once, found 2$"):
        extract_tag("<Title>A</Title><Title>B</Title>", "Title")


def test_missing_tag():
    with pytest.raises(TagError, match=r"^tag <Title> not found in output$"):
        extract_tag("no tags here", "Title")


def test_unclosed_tag():
    with pytest.raises(TagError, match=r"^tag <Title>: opening marker never closed$"):
        extract_tag("<Title>never closed", "Title")


def test_stray_close_rejected():
    with pytest.raises(TagError, match=r"^tag <Title>: closing marker without opener$"):
        extract_tag("</Title> then <Title>x</Title>", "Title")


def test_nested_same_name_rejected():
    with pytest.raises(TagError, match=r"^tag <T>: nested same-name tag$"):
        extract_tag("<T>a<T>b</T></T>", "T")


def test_tag_names_case_sensitive():
    with pytest.raises(TagError, match=r"^tag <Summary>: opening marker never closed$"):
        # lowercase closer does not close the uppercase opener
        extract_tag("<Summary>s</summary>", "Summary")


def test_similar_tag_names_do_not_match():
    assert extract_tag("<Titles>no</Titles><Title>yes</Title>", "Title") == "yes"


_content = st.text(max_size=60).filter(lambda s: "<Tag>" not in s and "</Tag>" not in s)


@given(content=_content)
def test_wrap_extract_round_trip(content):
    assert extract_tag(wrap_tag(content, "Tag"), "Tag") == content.strip()


def test_sections_parse_in_order():
    out = extract_sections("<Section-1> one </Section-1>\n<Section-2> two </Section-2>")
    assert out == [(1, "one"), (2, "two")]


def test_sections_non_contiguous():
    with pytest.raises(TagError, match=r"^<Section-k> indices must start at 1 and increase by 1, "
                                       r"found \[1, 3\]$"):
        extract_sections("<Section-1>a</Section-1><Section-3>b</Section-3>")


def test_sections_out_of_order_rejected():
    with pytest.raises(TagError, match=r"found \[2, 1\]$"):
        extract_sections("<Section-2>b</Section-2><Section-1>a</Section-1>")


def test_sections_empty():
    with pytest.raises(TagError, match=r"^no <Section-k> blocks found in output$"):
        extract_sections("nothing tagged")


@pytest.mark.parametrize("output, base, named", [
    ("<Section-1> a </Section-1><Section-2>  \n </Section-2>", "Section", "Section-2"),
    ("<Subsection-1> </Subsection-1>", "Subsection", "Subsection-1"),
])
def test_sections_with_an_empty_block_rejected(output, base, named):
    with pytest.raises(TagError, match=rf"^block <{named}> is empty$"):
        extract_sections(output, tag_base=base)


def test_sections_mismatched_close_rejected():
    with pytest.raises(TagError, match=r"^tag <Section-1>: closed by mismatched index 2$"):
        extract_sections("<Section-1>a</Section-2>")


def test_sections_custom_base():
    out = extract_sections("<Subsection-1>g</Subsection-1>", tag_base="Subsection")
    assert out == [(1, "g")]


@given(texts=st.lists(st.text(min_size=1, max_size=20).filter(
    lambda s: "<" not in s and ">" not in s and s.strip()), min_size=1, max_size=6))
def test_sections_render_parse_round_trip(texts):
    blocks = list(enumerate((t.strip() for t in texts), start=1))
    assert extract_sections(render_sections(blocks)) == blocks


@given(texts=st.lists(st.text(min_size=1, max_size=20).filter(
    lambda s: "<" not in s and ">" not in s and s.strip()), min_size=1, max_size=6))
def test_section_indices_always_one_to_m(texts):
    rendered = render_sections(list(enumerate((t.strip() for t in texts), start=1)))
    indices = [k for k, _ in extract_sections(rendered)]
    assert indices == list(range(1, len(texts) + 1))


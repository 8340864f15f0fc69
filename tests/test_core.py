from __future__ import annotations

import pytest
from hypothesis import given
import hypothesis.strategies as st

from patentgen.core import (
    CANONICAL_QUESTIONS,
    DEFAULT_SECTION_ORDER,
    Draft,
    DraftQA,
    DraftValidationError,
    EmptySectionError,
    GuidelineNode,
    PGTree,
    PatentDoc,
    SectionPlan,
    draft_from_record,
    draft_to_record,
    make_draft,
    patent_from_record,
    patent_to_record,
    patent_to_text,
    render_draft,
)


def test_render_contains_all_questions_in_order(draft):
    text = render_draft(draft)
    positions = [text.index(CANONICAL_QUESTIONS[i]) for i in range(1, 6)]
    assert positions == sorted(positions)


def test_render_is_deterministic(draft):
    assert render_draft(draft) == render_draft(draft)


def test_render_preserves_answer_content_exactly_once():
    answers = {i: f"answer {i}" for i in range(1, 6)}
    answers[3] = "The marker XYZZY appears in the solution."
    text = render_draft(make_draft(answers))
    assert text.count("XYZZY") == 1


# Injectivity holds on answers free of the structural "Question" marker the
# renderer itself introduces.
_answer = st.text(min_size=1, max_size=40).filter(
    lambda s: s.strip() and "Question" not in s
)
_answers = st.tuples(_answer, _answer, _answer, _answer, _answer)


@given(a=_answers, b=_answers)
def test_render_injective_on_answers(a, b):
    ra = render_draft(make_draft(dict(enumerate(a, start=1))))
    rb = render_draft(make_draft(dict(enumerate(b, start=1))))
    if a != b:
        assert ra != rb
    else:
        assert ra == rb


def test_draft_rejects_missing_question():
    with pytest.raises(DraftValidationError, match="missing question 4"):
        Draft(
            qa=tuple(
                DraftQA(i, CANONICAL_QUESTIONS[i], f"answer {i}") for i in (1, 2, 3, 5)
            )
        )


def test_draft_rejects_non_canonical_question_text():
    with pytest.raises(DraftValidationError, match="canonical"):
        DraftQA(1, "What problem do you solve?", "answer")


def test_question_text_tolerates_whitespace_differences():
    spaced = "What  is the technical problem that this patent aims\nto solve? "
    qa = DraftQA(1, spaced, "answer")
    assert qa.question_id == 1


def test_draft_rejects_empty_answer():
    with pytest.raises(DraftValidationError, match="empty"):
        DraftQA(2, CANONICAL_QUESTIONS[2], "   ")


def test_draft_record_round_trip(draft):
    assert draft_from_record(draft_to_record(draft)) == draft


def test_draft_record_defaults_question_text():
    record = {"qa": [{"question_id": i, "answer_text": f"a{i}"} for i in range(1, 6)]}
    loaded = draft_from_record(record)
    assert loaded.qa[0].question_text == CANONICAL_QUESTIONS[1]


@pytest.mark.parametrize(
    "record, named",
    [
        ({"qa": "x"}, "no 'qa' list"),
        ({"qa": {"question_id": 1}}, "no 'qa' list"),
        (["qa"], "no 'qa' list"),
        ({"qa": ["x"]}, "not an object"),
        ({"qa": [{"question_id": 1, "answer_text": 5}]}, "must be strings"),
        ({"qa": [{"question_id": 1, "answer_text": None}]}, "must be strings"),
        ({"qa": [{"question_id": 1, "question_text": 5, "answer_text": "a"}]}, "must be strings"),
        ({"qa": [{"question_id": True, "answer_text": "a"}]}, "bad question_id"),
        ({"qa": [], "source_id": 7}, "source_id must be a string, got 7"),
        ({"qa": [], "source_id": None}, "source_id must be a string"),
    ],
    ids=["qa_string", "qa_object", "record_list", "entry_string", "answer_int", "answer_null",
         "question_int", "question_id_bool", "source_id_int", "source_id_null"],
)
def test_draft_record_of_the_wrong_shape_is_a_validation_error(record, named):
    with pytest.raises(DraftValidationError, match=named):
        draft_from_record(record)


SECTIONS = dict(
    title="T", abstract="A", background="B", summary="S", claims="C", description="D"
)


def test_assemble_default_order_puts_description_before_claims():
    doc = PatentDoc(**SECTIONS)
    text = patent_to_text(doc)
    assert text.index("# DESCRIPTION") < text.index("# CLAIMS")
    assert doc.section_order == DEFAULT_SECTION_ORDER


def test_assemble_order_override_is_a_passthrough():
    order = ("title", "abstract", "background", "summary", "claims", "description")
    doc = PatentDoc(**SECTIONS, section_order=order)
    text = patent_to_text(doc)
    assert text.index("# CLAIMS") < text.index("# DESCRIPTION")


def test_assemble_rejects_empty_section():
    bad = dict(SECTIONS, claims=" ")
    with pytest.raises(EmptySectionError) as err:
        PatentDoc(**bad)
    assert err.value.section == "claims"


def test_assemble_rejects_bad_order():
    with pytest.raises(Exception, match="permutation"):
        PatentDoc(**SECTIONS, section_order=("title",) * 6)


_section_text = st.text(min_size=1, max_size=30).filter(lambda s: s.strip())


@given(parts=st.tuples(*[_section_text] * 6))
def test_assemble_then_extract_round_trips(parts):
    names = ("title", "abstract", "background", "summary", "claims", "description")
    doc = PatentDoc(**dict(zip(names, parts)))
    assert tuple(doc.section(n) for n in names) == parts


def test_patent_record_round_trip():
    doc = PatentDoc(**SECTIONS)
    loaded = patent_from_record(patent_to_record(doc))
    for name in SECTIONS:
        assert loaded.section(name) == doc.section(name)
    assert loaded.section_order == doc.section_order


def test_patent_record_has_schema_version():
    record = patent_to_record(PatentDoc(**SECTIONS))
    assert record["schema_version"] == "patent-doc-v1"
    assert record["status"] == "complete"


def test_pgtree_counts_nodes():
    tree = PGTree(
        sections=(
            SectionPlan(1, "first", (GuidelineNode(1, 1, "a"), GuidelineNode(1, 2, "b"))),
            SectionPlan(2, "second", (GuidelineNode(2, 1, "c"),)),
        )
    )
    assert tree.node_count == 3
    assert [n.node_id for n in tree.nodes()] == [(1, 1), (1, 2), (2, 1)]


def test_pgtree_rejects_duplicate_nodes():
    with pytest.raises(Exception, match="duplicate"):
        PGTree(
            sections=(
                SectionPlan(1, "x", (GuidelineNode(1, 1, "a"), GuidelineNode(1, 1, "b"))),
            )
        )

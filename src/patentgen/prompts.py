"""Prompt template registry.

Each template lives in an asset file with a tiny front-matter block naming
its id and required slots. The body of every asset is pinned by a sha256
embedded below, so editing a prompt is an explicit, reviewable change: the
edit fails loudly until the hash here is updated too.

Slot names map the pipeline's moving parts onto template placeholders:

    draft            rendered inventor draft
    reference        rendered reference bundle (five components + draft)
    tree_overview    rendered guideline tree
    guideline        one subsection guideline
    retrieved        retrieval output for the current subsection
    subsection       the subsection text under review/refinement
    feedback         examiner advice fed back to the writer
    answer           one draft answer under quality review
    record           full patent record text (inventor simulation)
    description      full patent description (tree collection)
    section_overview one first-level section overview (expansion)
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from importlib import resources


class PromptKitError(Exception):
    pass


class MissingSlotError(PromptKitError):
    def __init__(self, template_id: str, slot: str):
        self.template_id = template_id
        self.slot = slot
        super().__init__(f"template {template_id!r}: required slot {slot!r} is unbound")


class PromptAssetError(PromptKitError):
    pass


# sha256 of each template body (asset content after the front-matter).
TEMPLATE_HASHES: dict[str, str] = {
    "title_writer": "ed3f23ba2791317419149dd13431f1da010af12275bc749219f13cdcdf7e2b76",
    "abstract_writer": "3f27e85cf58130c495c3a621c5f653a45d915b95b2826e18c8b4f1fb765830f6",
    "background_writer": "22063e438224ab8994f07dfc59c2ad65dbdb16e855246d0d712e91f76c478cf9",
    "summary_writer": "2e257ae898e9cd29c71d1eded18d5dffaab2908ffba7bb663248b9ca9a764566",
    "claims_writer": "14fb831e1ae2acb99dcecd6470f2b6dff605947c2c3704814eec53345d683691",
    "planner": "b093af2b031fcd92fced96376d9456ba045905d9ebca0a0793b194af17771adb",
    "section_expand": "c456367afeb38f01110a7d4c1af1bb820c14ce755418beeb16edd86be0af0f4b",
    "pgtree_collect": "f8c90575afe165ed8a1a2f2fc28702882c621c2247f2643b481a72a1af5b6b80",
    "retrieval": "2bca643feb75eb53ad9b107bdc30233255379d7df8c826086ebe33a760cab6e3",
    "description_write": "387dbb6f960766a8cdca1b7fec2c7b5aaaade36fc7761a322f72e9bf95d98839",
    "description_refine": "c7947305272e76e83644c18405e03e883b1473262847069008b9113605010260",
    "examiner_review": "6d9907c82056b54319fa25580347fdaef10978fee8ca53b8de05dc36418b1b16",
    "draft_quality_q1": "2e53083472cecfa196a1aaae8873996ef6ec0d05be115cb96af0c8e57c49d380",
    "draft_quality_q2": "d8d6fa6c3c443651694d0720249396f125b7ee1418afeef5c2c4aa0ce7016369",
    "draft_quality_q3": "b6b218a6d0736f1b24cd7b45a7cb486c04200b687277a863258f64def1977a82",
    "draft_quality_q4": "69ecbd78544a866ef67eaf1e3ed77510f50bbd0664dd875bbff2812f1b337f6e",
    "draft_quality_q5": "9d4d944ad514fbb1bd7dfa2b6d92a80e6758aaa20e1cd6a90b15a7a2ef362623",
    "inventor_q1": "84d438a33ad256cec0e75ada3f5ec03450aaecd4484bea058e6ab7aa042192fa",
    "inventor_q2": "efdb758cf3492b65771e4a7fc1e8b733d3164dc680b0fab4442b9bdc9d17bcf3",
    "inventor_q3": "d34201ddbb8309cc459724a2b90754b82dbd5a3b72f9758c5f7f9220b8f2c67d",
    "inventor_q4": "bd8a4a482b31ca3e9106fb905c50aca70610dc673079371d3eb0d9583ebe6aa3",
    "inventor_q5": "350a4c02c7dcdfe6d9959d66f7cc0cb828fcaa49fc5639bf7624340b12e45f86",
    "zero_shot_full": "e901894f3f751686be91eae7326dd42d73bb034a977527be935d0c28b3cd429f",
}

TEMPLATE_IDS = tuple(TEMPLATE_HASHES)

_SLOT_RE = re.compile(r"\{([a-z][a-z0-9_]*)\}")


@dataclass(frozen=True)
class PromptTemplate:
    template_id: str
    body: str
    required_slots: frozenset[str]

    def render(self, **bindings: str) -> str:
        """Substitute every slot in a single pass.

        Values are inserted verbatim; brace sequences inside a value are never
        re-expanded, so rendered output cannot contain live slot markers.
        """
        for slot in sorted(self.required_slots):
            if slot not in bindings:
                raise MissingSlotError(self.template_id, slot)
        return _SLOT_RE.sub(lambda m: bindings[m.group(1)], self.body)


def _parse_asset(text: str, name: str) -> PromptTemplate:
    match = re.match(r"---\nid: (.+)\nslots: (.*)\n---\n", text)
    if not match:
        raise PromptAssetError(f"asset {name!r} has a malformed front-matter block")
    template_id = match.group(1).strip()
    slots = frozenset(s.strip() for s in match.group(2).split(",") if s.strip())
    body = text[match.end():]
    if body.endswith("\n"):
        body = body[:-1]
    expected = TEMPLATE_HASHES.get(template_id)
    if expected is None:
        raise PromptAssetError(f"asset {name!r} declares unknown template id {template_id!r}")
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if digest != expected:
        raise PromptAssetError(
            f"template {template_id!r} body hash {digest[:12]} does not match the "
            f"pinned hash {expected[:12]}; update TEMPLATE_HASHES if the edit is intended"
        )
    body_slots = set(_SLOT_RE.findall(body))
    if body_slots != set(slots):
        raise PromptAssetError(
            f"template {template_id!r}: front-matter slots {sorted(slots)} do not match "
            f"body slots {sorted(body_slots)}"
        )
    return PromptTemplate(template_id=template_id, body=body, required_slots=slots)


class PromptRegistry:
    """Loads and verifies every template asset once, then serves renders."""

    def __init__(self):
        self._templates: dict[str, PromptTemplate] = {}
        root = resources.files("patentgen").joinpath("assets/prompts")
        for template_id in TEMPLATE_IDS:
            text = root.joinpath(f"{template_id}.txt").read_text(encoding="utf-8")
            template = _parse_asset(text, f"{template_id}.txt")
            if template.template_id != template_id:
                raise PromptAssetError(
                    f"asset file {template_id}.txt declares id {template.template_id!r}"
                )
            self._templates[template_id] = template

    def get(self, template_id: str) -> PromptTemplate:
        try:
            return self._templates[template_id]
        except KeyError:
            raise PromptAssetError(f"unknown template id {template_id!r}") from None

    def render(self, template_id: str, **bindings: str) -> str:
        return self.get(template_id).render(**bindings)

    def ids(self) -> tuple[str, ...]:
        return tuple(self._templates)


_default_registry: PromptRegistry | None = None


def default_registry() -> PromptRegistry:
    global _default_registry
    if _default_registry is None:
        _default_registry = PromptRegistry()
    return _default_registry

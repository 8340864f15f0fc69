"""End-to-end orchestration: short components, guideline tree, then the
retrieve/write/review/refine loop per subsection, and final assembly.

The examiner loop is bounded by max_refine_rounds; a subsection that keeps
failing (or whose verdicts stay unparseable) is accepted with a warning so a
long run never dies on one stubborn node. Aborts persist everything finished
so far into the run directory.

The calls of a run have a fixed shape: the five component writers and the
planner read only the draft; each section expansion reads the draft and its
section's overview; each node's retrieve/write/review/refine chain reads its
own node, the tree overview, the draft and the reference, never a sibling's
text. So a run is two agents.run_tasks calls, as wide as the largest
max_inflight among the gateways: the five components beside one plan task,
which runs its sections' expansions as tasks of its own, then one task per
guideline node. The output is the same at any width.
"""

from __future__ import annotations

import json
import typing
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path

from .agents import (
    AgentBinding,
    AgentError,
    AgentRuntime,
    COMPONENT_ROLES,
    MalformedVerdictError,
    default_bindings,
    run_tasks,
)
from .core import (
    DEFAULT_SECTION_ORDER,
    ConfigError,
    CoreError,
    Draft,
    GuidelineNode,
    PatentDoc,
    PGTree,
    Reference,
    RefinementRound,
    ReviewVerdict,
    RunRecord,
    SectionPlan,
    SubsectionDraft,
    check_section_order,
    draft_to_record,
    dump_json,
    load_json,
    new_run_record,
    patent_to_record,
    patent_to_text,
    render_draft,
)
from .gateway import (BackendConfig, GatewayError, LlmGateway, RequestError, ResponseCache,
                      build_gateway, user_request)
from .prompts import PromptRegistry, default_registry
from .tags import TagError, extract_tag

SCHEMA_VERSION_PIPELINE_CONFIG = "pipeline-config-v1"

EXPANSION_OFF = "off"
EXPANSION_PER_SECTION = "per_section_call"


class PipelineError(Exception):
    pass


class PipelineAborted(PipelineError):
    """An agent hard error stopped the run; partial artifacts were persisted."""

    def __init__(self, cause: Exception, run_dir: Path | None):
        self.cause = cause
        self.run_dir = run_dir
        super().__init__(f"pipeline aborted: {cause}")


@dataclass(frozen=True)
class PipelineConfig:
    max_refine_rounds: int = 3
    pgtree_expansion: str = EXPANSION_PER_SECTION
    section_order: tuple[str, ...] = DEFAULT_SECTION_ORDER

    def __post_init__(self):
        if self.max_refine_rounds < 0:
            raise PipelineError("max_refine_rounds must be >= 0")
        if self.pgtree_expansion not in (EXPANSION_OFF, EXPANSION_PER_SECTION):
            raise PipelineError(f"unknown pgtree_expansion {self.pgtree_expansion!r}")
        check_section_order(self.section_order)

    def to_record(self) -> dict:
        record = asdict(self)
        record["section_order"] = list(self.section_order)
        record["schema_version"] = SCHEMA_VERSION_PIPELINE_CONFIG
        return record

    @staticmethod
    def from_record(record: dict) -> "PipelineConfig":
        """A run config's pipeline block, or a run dir's config.json."""
        if isinstance(record, dict):
            record = {k: v for k, v in record.items() if k != "schema_version"}
        return config_record(PipelineConfig(), record, "pipeline")


def config_record(base, record: dict, where: str, fixed: tuple[str, ...] = ()):
    """base, a config dataclass, with the fields the JSON object record names
    set to its values. Each value must have its field's type (an int passes
    for a float, a list for a tuple, a bool for nothing), and the dataclass
    checks the ranges. Every fault is a ConfigError naming `where` and the key."""
    if not isinstance(record, dict):
        raise ConfigError(f"{where} must be a JSON object, got {record!r}")
    annotations = {f.name: f.type for f in fields(base) if f.name not in fixed}
    if set(record) - set(annotations):
        raise ConfigError(f"{where}: unknown keys {sorted(set(record) - set(annotations))}")
    hints = typing.get_type_hints(type(base))
    values = {}
    for key, value in record.items():
        is_tuple = typing.get_origin(hints[key]) is tuple
        if is_tuple:
            ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
        else:
            allowed = typing.get_args(hints[key]) or (hints[key],)
            ok = isinstance(value, allowed + ((int,) if float in allowed else ()))
        if not ok or isinstance(value, bool):
            raise ConfigError(f"{where}.{key}: expected {annotations[key]}, got {value!r}")
        values[key] = tuple(value) if is_tuple else value
    try:
        return replace(base, **values)
    except (AgentError, CoreError, GatewayError, PipelineError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_run_config(config_file: str | None, mock_playbook: str | None = None,
                    backend: str | None = None):
    """A run config file as (gateways, agent bindings, PipelineConfig); a bad
    value is a ConfigError naming its key. mock_playbook replaces the backends
    with one scripted mock, and backend names the one used as "default"."""
    config: dict = {}
    if config_file:
        try:
            config = load_json(Path(config_file))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {config_file}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {config_file} must be a JSON object")
    backends, agents = config.get("backends"), config.get("agents", {})
    if mock_playbook:
        backends = {"default": {"kind": "mock", "playbook_path": str(mock_playbook)}}
    if not backends:
        raise ConfigError("no backends configured; pass --config or --mock-playbook")
    if not isinstance(backends, dict) or not isinstance(agents, dict):
        raise ConfigError("backends and agents must be JSON objects")
    cache_dir = config.get("cache_dir")
    if cache_dir is not None and not isinstance(cache_dir, str):
        raise ConfigError(f"cache_dir: expected str or null, got {cache_dir!r}")

    gateways = {}
    for name, record in backends.items():
        backend_cfg = config_record(BackendConfig(name=name), record, f"backends.{name}", ("name",))
        try:
            gateway = build_gateway(backend_cfg)
        except (ConfigError, RequestError, OSError, ValueError) as exc:
            raise ConfigError(f"backends.{name}: {exc}") from exc
        if cache_dir:
            gateway.cache = ResponseCache(Path(cache_dir) / name)
        gateways[name] = gateway
    chosen = backend or ("default" if "default" in gateways else next(iter(gateways)))
    if chosen not in gateways:
        raise ConfigError(f"backend {chosen!r} not present in config")
    gateways["default"] = gateways[chosen]

    bindings = default_bindings()
    for role, record in agents.items():
        if role not in bindings:
            raise ConfigError(f"unknown agent role {role!r}; expected one of {list(bindings)}")
        bindings[role] = config_record(bindings[role], record, f"agents.{role}", ("role",))
    for role, binding in bindings.items():
        gateway = gateways.get(binding.backend)
        if gateway is None:
            raise ConfigError(f"agents.{role}.backend: no backend named {binding.backend!r}")
        limit = gateway.config.max_tokens_limit
        if binding.max_tokens > limit:
            raise ConfigError(f"agents.{role}.max_tokens: {binding.max_tokens} exceeds the "
                              f"max_tokens_limit {limit} of backend {binding.backend!r}")

    return gateways, bindings, PipelineConfig.from_record(config.get("pipeline", {}))


def plan_section(
    index: int,
    overview: str,
    cfg: PipelineConfig,
    expander=None,
    warn=None,
) -> SectionPlan:
    """Grow one first-level section into its guideline nodes.

    With expansion off the section becomes a single guideline node. With
    per-section expansion, expander(overview) gives numbered subsection
    guidelines; a section whose expansion fails to parse falls back to a
    single node, with a warning passed to warn.
    """
    if cfg.pgtree_expansion == EXPANSION_PER_SECTION and expander is not None:
        try:
            nodes = tuple(
                GuidelineNode(section_index=index, subsection_index=j, guideline_text=text)
                for j, text in expander(overview)
            )
            return SectionPlan(section_index=index, section_overview=overview, subsections=nodes)
        except TagError as exc:
            if warn is not None:
                warn(f"section {index}: expansion failed ({exc}); falling back to one node")
    node = GuidelineNode(section_index=index, subsection_index=1, guideline_text=overview)
    return SectionPlan(section_index=index, section_overview=overview, subsections=(node,))


class PatentPipeline:
    def __init__(
        self,
        gateways: dict[str, LlmGateway],
        bindings: dict[str, AgentBinding] | None = None,
        registry: PromptRegistry | None = None,
        run_dir: Path | str | None = None,
    ):
        self.gateways = gateways
        self.bindings = bindings or default_bindings()
        self.registry = registry or default_registry()
        self.run_dir = Path(run_dir) if run_dir is not None else None

    def run(self, draft: Draft, cfg: PipelineConfig) -> PatentDoc:
        record = new_run_record(model_id=self.gateways["default"].config.model_id)
        runtime = AgentRuntime(gateways=self.gateways, bindings=self.bindings,
                               registry=self.registry, recorder=record)
        # Each task stores its result as it finishes, so an abort persists
        # whatever finished.
        components: dict[str, str] = {}
        tree: PGTree | None = None
        subs: dict[tuple[int, int], SubsectionDraft] = {}

        def write(role, rt):
            components[role] = rt.write_component(role, draft)

        def plan(rt):
            nonlocal tree
            sections = run_tasks(rt, [partial(_expand_section, index, overview, draft, cfg)
                                      for index, overview in rt.plan_first_level(draft)])
            tree = PGTree(sections=tuple(sections))

        def write_node(node, reference, rt):
            subs[node.node_id] = self._one_subsection(node, reference, tree, draft, cfg, rt)

        try:
            run_tasks(runtime, [partial(write, role) for role in COMPONENT_ROLES] + [plan])
            reference = Reference(**components, draft=draft)
            nodes = tree.nodes()
            run_tasks(runtime, [partial(write_node, node, reference) for node in nodes])
            doc = PatentDoc(**components,
                            description="\n\n".join(subs[node.node_id].text for node in nodes),
                            section_order=cfg.section_order, generation_meta=record)
        except (AgentError, CoreError, GatewayError, TagError) as exc:
            self._persist(draft, cfg, record, components, tree, subs, error=exc)
            raise PipelineAborted(exc, self.run_dir) from exc
        self._persist(draft, cfg, record, components, tree, subs, doc=doc)
        return doc

    def _one_subsection(self, node, reference, tree, draft, cfg, runtime):
        warn = runtime.recorder.warn
        retrieved = runtime.retrieve(node, reference)
        if not retrieved:
            warn(f"node {node.node_id}: empty retrieval")
        text = runtime.write_subsection(node, retrieved, tree, draft)
        verdict, malformed = self._review(runtime, node, text, draft)
        history = [RefinementRound(text=text, verdict=verdict)]
        while not malformed and not verdict.passed and len(history) <= cfg.max_refine_rounds:
            revised = runtime.refine(node, text, verdict.advice, tree)
            no_change = revised == text
            if no_change:
                warn(f"node {node.node_id}: refinement round {len(history)} unchanged")
            text = revised
            verdict, malformed = self._review(runtime, node, text, draft)
            history.append(RefinementRound(text=text, verdict=verdict, no_change=no_change))
        sub = SubsectionDraft(node=node.node_id, history=tuple(history))
        if sub.accepted_with_warning:
            warn(f"node {node.node_id}: accepted with warning after "
                 f"{sub.rounds_used} refinement rounds")
        return sub

    @staticmethod
    def _review(runtime, node, text, draft):
        """Review once; an unparseable verdict fails only this subsection."""
        try:
            return runtime.review(node, text, draft), False
        except MalformedVerdictError as exc:
            runtime.recorder.warn(f"node {node.node_id}: {exc}")
            return ReviewVerdict(result="Fail", advice="unparseable verdict after retries"), True

    def _persist(self, draft, cfg, record, components, tree, subs, doc=None, error=None):
        if self.run_dir is None:
            return
        run_dir = self.run_dir
        run_dir.mkdir(parents=True, exist_ok=True)
        dump_json(cfg.to_record(), run_dir / "config.json")
        dump_json(draft_to_record(draft), run_dir / "draft.json")
        (run_dir / "draft.txt").write_text(render_draft(draft) + "\n", encoding="utf-8")
        with (run_dir / "calls.jsonl").open("w", encoding="utf-8") as fh:
            for entry in record.to_records():
                fh.write(json.dumps(entry) + "\n")
        if components:
            dump_json(components, run_dir / "components.json")
        if tree is not None:
            dump_json(asdict(tree), run_dir / "pgtree.json")
        if subs:
            sub_dir = run_dir / "subsections"
            sub_dir.mkdir(exist_ok=True)
            for sub in subs.values():
                i, j = sub.node
                dump_json(subsection_to_record(sub), sub_dir / f"sec{i:02d}_sub{j:02d}.json")
        dump_json({"warnings": record.warnings}, run_dir / "warnings.json")
        if doc is not None:
            (run_dir / "patent.txt").write_text(patent_to_text(doc), encoding="utf-8")
            (run_dir / "patent_body.txt").write_text(
                patent_to_text(doc, headers=False), encoding="utf-8"
            )
            dump_json(patent_to_record(doc), run_dir / "patent.json")
        dump_json(
            {"status": "complete" if doc is not None else "partial",
             "error": None if error is None else str(error)},
            run_dir / "status.json",
        )


def _expand_section(index, overview, draft, cfg, runtime):
    return plan_section(index, overview, cfg,
                        lambda text: runtime.expand_section(draft, text), runtime.recorder.warn)


def subsection_to_record(sub: SubsectionDraft) -> dict:
    return {
        "node": list(sub.node),
        "text": sub.text,
        "rounds_used": sub.rounds_used,
        "accepted_with_warning": sub.accepted_with_warning,
        "final_verdict": {"result": sub.final_verdict.result, "advice": sub.final_verdict.advice},
        "history": [
            {
                "text": r.text,
                "result": r.verdict.result,
                "advice": r.verdict.advice,
                "no_change": r.no_change,
            }
            for r in sub.history
        ],
    }


# --- zero-shot baseline ------------------------------------------------------

ZERO_SHOT_TAGS = {
    "title": "Title",
    "abstract": "Abstract",
    "background": "Background",
    "summary": "Summary",
    "claims": "Claims",
    "description": "Full Description",
}


@dataclass(frozen=True)
class ZeroShotResult:
    raw: str
    sections: dict
    missing: tuple[str, ...]

    @property
    def complete(self) -> bool:
        return not self.missing


def parse_zero_shot_output(raw: str) -> ZeroShotResult:
    """Pull whatever sections are present out of a one-shot patent dump."""
    body = raw
    try:
        body = extract_tag(raw, "Patent")
    except TagError:
        pass
    sections: dict[str, str] = {}
    missing: list[str] = []
    for name, tag in ZERO_SHOT_TAGS.items():
        try:
            text = extract_tag(body, tag)
        except TagError:
            missing.append(name)
            continue
        if text:
            sections[name] = text
        else:
            missing.append(name)
    return ZeroShotResult(raw=raw, sections=sections, missing=tuple(missing))


def run_zero_shot(
    gateway: LlmGateway,
    draft: Draft,
    registry: PromptRegistry | None = None,
    recorder: RunRecord | None = None,
    max_tokens: int = 16384,
) -> ZeroShotResult:
    registry = registry or default_registry()
    prompt = registry.render("zero_shot_full", draft=render_draft(draft))
    resp = gateway.complete(
        user_request(
            prompt,
            model_id=gateway.config.model_id,
            max_tokens=max_tokens,
            request_tag="zero_shot",
        ),
        recorder=recorder,
    )
    return parse_zero_shot_output(resp.content)

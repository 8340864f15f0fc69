"""End-to-end orchestration: short components, guideline tree, then the
retrieve/write/review/refine loop per subsection, and final assembly.

The examiner loop is bounded by max_refine_rounds; a subsection that keeps
failing (or whose verdicts stay unparseable) is accepted with a warning so a
long run never dies on one stubborn node.

A PatentPipeline is an AgentRuntime with a run directory, so a run obeys the
runtime it is given, a bench's stop rule included. A run cut short by any
exception, an interrupt too, persists what finished with status partial; an
agent, gateway or tag error is raised as PipelineAborted, anything else
unchanged.

The calls of a run have a fixed shape: the five component writers and the
planner read only the draft; each section expansion reads the draft and its
section's overview; each node's retrieve/write/review/refine chain reads its
own node, the tree overview, the draft and the reference, never a sibling's
text. So a run is two agents.run_tasks calls. The first is two tasks, each
a fan-out as wide as the largest max_inflight among the gateways: the five
component writers, and beside them the plan, which runs its sections'
expansions as tasks of its own. So the planner, which heads the longest
chain, does not wait for a component to finish. The second is one task per
guideline node, each on a runner of its own, so one node's chain holds no
other node back and the gateways alone bound the sends. The output is the
same at any width.
"""

from __future__ import annotations

import typing
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path

from .agents import (
    AgentBinding,
    AgentError,
    AgentRuntime,
    COMPONENT_ROLES,
    default_bindings,
    run_tasks,
)
from .core import (
    DEFAULT_SECTION_ORDER,
    SECTION_NAMES,
    SECTION_TAGS,
    ConfigError,
    Draft,
    GuidelineNode,
    PatentDoc,
    PGTree,
    RefinementRound,
    ReviewVerdict,
    SectionPlan,
    SubsectionDraft,
    draft_to_record,
    json_text,
    jsonl_text,
    load_json,
    make_dir,
    new_run_record,
    patent_to_record,
    patent_to_text,
    render_draft,
    render_pgtree,
    render_reference,
    write_files,
)
from .gateway import BackendConfig, GatewayError, LlmGateway, ResponseCache, build_gateway
from .tags import TagError, extract_tag

SCHEMA_VERSION_PIPELINE_CONFIG = "pipeline-config-v1"

EXPANSION_OFF = "off"
EXPANSION_PER_SECTION = "per_section_call"


class PipelineAborted(Exception):
    """An agent, gateway or tag error, its __cause__, stopped the run; what
    finished was persisted."""


@dataclass(frozen=True)
class PipelineConfig:
    max_refine_rounds: int = 3
    pgtree_expansion: str = EXPANSION_PER_SECTION
    section_order: tuple[str, ...] = DEFAULT_SECTION_ORDER

    def __post_init__(self):
        if self.max_refine_rounds < 0:
            raise ConfigError("max_refine_rounds must be >= 0")
        if self.pgtree_expansion not in (EXPANSION_OFF, EXPANSION_PER_SECTION):
            raise ConfigError(f"unknown pgtree_expansion {self.pgtree_expansion!r}")
        if sorted(self.section_order) != sorted(SECTION_NAMES):
            raise ConfigError(f"section_order must be a permutation of {SECTION_NAMES}, "
                              f"got {self.section_order}")

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
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_run_config(config_file: str | None, mock_playbook: str | None = None,
                    backend: str | None = None):
    """A run config file as (gateways, agent bindings, PipelineConfig); a bad
    value is a ConfigError naming its key. mock_playbook replaces the backends
    with one scripted mock, and backend names the one used as "default"."""
    config: dict = {}
    if config_file:
        config = load_json(config_file, "config")
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
        except ConfigError as exc:
            raise ConfigError(f"backends.{name}: {exc}") from exc
        if cache_dir:
            try:
                gateway.cache = ResponseCache(Path(cache_dir) / name)
            except OSError as exc:
                raise ConfigError(f"cannot open cache_dir {cache_dir}: {exc}") from exc
        gateways[name] = gateway
    chosen = backend or ("default" if "default" in gateways else next(iter(gateways)))
    if chosen not in gateways:
        raise ConfigError(f"backend {chosen!r} not present in config")
    gateways["default"] = gateways[chosen]

    bindings = default_bindings()
    for role, record in agents.items():
        if role not in bindings:
            raise ConfigError(f"unknown agent role {role!r}; expected one of {list(bindings)}")
        bindings[role] = config_record(bindings[role], record, f"agents.{role}")
    for role, binding in bindings.items():
        check_binding(binding, gateways, f"agents.{role}")

    return gateways, bindings, PipelineConfig.from_record(config.get("pipeline", {}))


def check_binding(binding: AgentBinding, gateways: dict[str, LlmGateway], where: str) -> None:
    """A ConfigError naming `where` unless binding's backend is one of
    gateways and its max_tokens is within that backend's max_tokens_limit."""
    gateway = gateways.get(binding.backend)
    if gateway is None:
        raise ConfigError(f"{where}.backend: no backend named {binding.backend!r}")
    limit = gateway.config.max_tokens_limit
    if binding.max_tokens > limit:
        raise ConfigError(f"{where}.max_tokens: {binding.max_tokens} exceeds the "
                          f"max_tokens_limit {limit} of backend {binding.backend!r}")


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


@dataclass
class PatentPipeline(AgentRuntime):
    """An AgentRuntime that drafts whole patents into run_dir, when one is set."""

    run_dir: Path | None = None

    def run(self, draft: Draft, cfg: PipelineConfig) -> PatentDoc:
        """The patent drafted from draft. A run_dir that cannot be a
        directory is a ConfigError before any call."""
        if self.run_dir is not None:
            make_dir(self.run_dir)
        record = new_run_record(model_id=self.gateways["default"].config.model_id)
        runtime = replace(self, recorder=record)
        # Each prompt slot's text is rendered once per run.
        draft_text = render_draft(draft)
        # Each task stores its result as it finishes, so an abort persists
        # whatever finished.
        components: dict[str, str] = {}
        tree: PGTree | None = None
        subs: dict[tuple[int, int], SubsectionDraft] = {}

        def write(role, rt):
            components[role] = rt.write_component(role, draft_text)

        def write_components(rt):
            run_tasks(rt, [partial(write, role) for role in COMPONENT_ROLES])

        def expand(index, overview, rt):
            return plan_section(index, overview, cfg, partial(rt.expand_section, draft_text),
                                rt.recorder.warn)

        def plan(rt):
            nonlocal tree
            sections = run_tasks(rt, [partial(expand, index, overview)
                                      for index, overview in rt.plan_first_level(draft_text)])
            tree = PGTree(sections=tuple(sections))

        def write_node(node, rt):
            subs[node.node_id] = rt._one_subsection(node, reference, tree_text, draft_text, cfg)

        try:
            run_tasks(runtime, [write_components, plan])
            reference = render_reference(components, draft_text)
            tree_text = render_pgtree(tree)
            nodes = tree.nodes()
            run_tasks(runtime, [partial(write_node, node) for node in nodes], runners=len(nodes))
            doc = PatentDoc(**components,
                            description="\n\n".join(subs[node.node_id].text for node in nodes),
                            section_order=cfg.section_order, generation_meta=record)
        except BaseException as exc:
            self._persist(draft, draft_text, cfg, record, components, tree, subs, error=exc)
            if isinstance(exc, (AgentError, GatewayError, TagError)):
                raise PipelineAborted(f"pipeline aborted: {exc}") from exc
            raise
        self._persist(draft, draft_text, cfg, record, components, tree, subs, doc=doc)
        return doc

    def _one_subsection(self, node, reference, tree, draft, cfg):
        warn = self.recorder.warn
        retrieved = self.retrieve(node, reference)
        if not retrieved:
            warn(f"node {node.node_id}: empty retrieval")
        text = self.write_subsection(node, retrieved, tree)
        verdict, malformed = self._review(node, text, draft)
        history = [RefinementRound(text=text, verdict=verdict)]
        while not malformed and not verdict.passed and len(history) <= cfg.max_refine_rounds:
            revised = self.refine(node, text, verdict.advice, tree)
            no_change = revised == text
            if no_change:
                warn(f"node {node.node_id}: refinement round {len(history)} unchanged")
            text = revised
            verdict, malformed = self._review(node, text, draft)
            history.append(RefinementRound(text=text, verdict=verdict, no_change=no_change))
        sub = SubsectionDraft(node=node.node_id, history=tuple(history))
        if sub.accepted_with_warning:
            warn(f"node {node.node_id}: accepted with warning after "
                 f"{sub.rounds_used} refinement rounds")
        return sub

    def _review(self, node, text, draft):
        """Review once; an unparseable verdict fails only this subsection."""
        try:
            return self.review(node, text, draft), False
        except TagError as exc:
            self.recorder.warn(f"node {node.node_id}: examiner verdict unparseable after "
                               f"retries: {exc}")
            return ReviewVerdict(result="Fail", advice="unparseable verdict after retries"), True

    def _persist(self, draft, draft_text, cfg, record, components, tree, subs, doc=None,
                 error=None):
        if self.run_dir is None:
            return
        files = {
            "config.json": json_text(cfg.to_record()),
            "draft.json": json_text(draft_to_record(draft)),
            "draft.txt": draft_text + "\n",
            "calls.jsonl": jsonl_text(record.to_records()),
            "warnings.json": json_text({"warnings": record.warnings}),
        }
        if components:
            files["components.json"] = json_text(components)
        if tree is not None:
            files["pgtree.json"] = json_text(asdict(tree))
        for sub in subs.values():
            i, j = sub.node
            files[f"subsections/sec{i:02d}_sub{j:02d}.json"] = json_text(subsection_to_record(sub))
        if doc is not None:
            files.update(patent_files(doc))
            files["patent_body.txt"] = patent_to_text(doc, headers=False)
        files["status.json"] = json_text(
            {"status": "complete" if doc is not None else "partial",
             "error": None if error is None else str(error) or type(error).__name__})
        write_files(self.run_dir, files, _RUN_FILES)


# What a pipeline run writes only once it gets that far, and the zero-shot
# baseline only when it gets a reply: globs under the run dir.
_RUN_FILES = ("components.json", "pgtree.json", "subsections/sec*_sub*.json", "patent.txt",
              "patent.json", "patent_body.txt")
_ZERO_SHOT_FILES = ("raw_response.txt", "sections/*.txt", "patent.txt", "patent.json")


def patent_files(doc: PatentDoc) -> dict[str, str]:
    """A finished patent's patent.txt and patent.json, for a pipeline run and
    the zero-shot baseline alike."""
    return {"patent.txt": patent_to_text(doc), "patent.json": json_text(patent_to_record(doc))}


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

# The baseline's role, its request tag and its reply's default max_tokens; no run config sets them.
ZERO_SHOT = "zero_shot"
ZERO_SHOT_MAX_TOKENS = 16384


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
    for name, tag in SECTION_TAGS.items():
        try:
            text = extract_tag(body, tag)
        except TagError:
            continue
        if text:
            sections[name] = text
    return ZeroShotResult(raw=raw, sections=sections,
                          missing=tuple(name for name in SECTION_TAGS if name not in sections))


def run_zero_shot(gateway: LlmGateway, draft: Draft, max_tokens: int = ZERO_SHOT_MAX_TOKENS,
                  run_dir: Path | None = None) -> ZeroShotResult:
    """The one-call baseline: the whole patent asked for in one request, sent
    through AgentRuntime.ask with the gateway's model, the default sampling,
    max_tokens, no re-ask and the tag zero_shot. A max_tokens over the
    backend's limit, or a run_dir that cannot be a directory, is a
    ConfigError before any call. With run_dir, the reply and its sections are
    written there; a gateway error writes only parse_report.json, naming the
    error, and propagates."""
    gateways = {"default": gateway}
    binding = AgentBinding(max_tokens=max_tokens, parse_retry_max=0)
    check_binding(binding, gateways, ZERO_SHOT)
    if run_dir is not None:
        make_dir(run_dir)
    runtime = AgentRuntime(gateways=gateways, bindings={ZERO_SHOT: binding})
    try:
        result = runtime.ask(ZERO_SHOT, "zero_shot_full", {"draft": render_draft(draft)},
                             ZERO_SHOT, parse_zero_shot_output)
    except GatewayError as exc:
        if run_dir is not None:
            write_files(run_dir, {"parse_report.json": json_text({"error": str(exc)})},
                        _ZERO_SHOT_FILES)
        raise
    if run_dir is not None:
        files = {"raw_response.txt": result.raw,
                 "parse_report.json": json_text({"sections_found": sorted(result.sections),
                                                 "missing": list(result.missing)})}
        for name, text in result.sections.items():
            files[f"sections/{name}.txt"] = text + "\n"
        if result.complete:
            files.update(patent_files(PatentDoc(**result.sections)))
        write_files(run_dir, files, _ZERO_SHOT_FILES)
    return result
